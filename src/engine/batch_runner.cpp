#include "engine/batch_runner.h"

#include "engine/parallel_for.h"
#include "support/check.h"

namespace ttdim::engine {

std::string BatchReport::summary() const {
  return std::to_string(outcomes.size()) + " jobs, " + std::to_string(failed) +
         " failed | " + stats.summary();
}

BatchRunner::BatchRunner(int threads) : threads_(resolve_threads(threads)) {}

BatchReport BatchRunner::run(const std::vector<BatchJob>& jobs) const {
  BatchReport report;
  report.outcomes.resize(jobs.size());
  parallel_for_index(threads_, static_cast<int>(jobs.size()), [&](int i) {
    const std::size_t k = static_cast<std::size_t>(i);
    try {
      report.outcomes[k].solution = core::solve(jobs[k].specs, jobs[k].options);
    } catch (const std::exception& e) {
      report.outcomes[k].error = e.what();
    }
  });
  for (const BatchOutcome& outcome : report.outcomes) {
    if (outcome.ok())
      report.stats = report.stats + outcome.solution->stats;
    else
      ++report.failed;
  }
  return report;
}

}  // namespace ttdim::engine
