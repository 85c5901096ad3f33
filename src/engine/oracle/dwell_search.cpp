#include "engine/oracle/dwell_search.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <vector>

#include "engine/parallel_for.h"
#include "support/check.h"

namespace ttdim::engine::oracle {

using switching::DwellRow;
using switching::DwellTables;

switching::DwellTables compute_dwell_tables_parallel(
    const switching::SwitchedLoop& loop,
    const switching::DwellAnalysisSpec& spec, int threads) {
  const int workers = engine::resolve_threads(threads);
  if (workers <= 1) return switching::compute_dwell_tables(loop, spec);

  const switching::DwellEndpoints endpoints =
      switching::check_dwell_spec(loop, spec);
  DwellTables tables;
  tables.tw_granularity = spec.tw_granularity;
  tables.settling_tt = endpoints.settling_tt;
  tables.settling_et = endpoints.settling_et;

  // Wait candidates in serial-search order. Rows are proven in chunks of
  // 2x the worker count: enough to keep every worker busy, small enough
  // that the speculation past the serial search's stopping row stays
  // bounded.
  std::vector<int> waits;
  for (int wait = 0; wait <= switching::kMaxWait; wait += spec.tw_granularity)
    waits.push_back(wait);
  const int chunk = 2 * workers;

  bool stopped = false;
  for (size_t base = 0; base < waits.size() && !stopped; base += chunk) {
    const int count = static_cast<int>(
        std::min(waits.size() - base, static_cast<size_t>(chunk)));
    std::vector<std::optional<DwellRow>> rows(static_cast<size_t>(count));
    std::vector<std::exception_ptr> errors(static_cast<size_t>(count));
    engine::parallel_for_index(workers, count, [&](int i) {
      // Rows past the serial search's stopping point are speculative and
      // get discarded below; an exception there must not surface, because
      // the serial search never evaluates those waits. (A wait whose
      // schedule overruns the horizon is an infeasible row, not an error,
      // in both searches.)
      try {
        rows[static_cast<size_t>(i)] = switching::compute_dwell_row(
            loop, waits[base + static_cast<size_t>(i)], spec);
      } catch (...) {
        errors[static_cast<size_t>(i)] = std::current_exception();
      }
    });
    for (int i = 0; i < count; ++i) {
      // In wait order, the first event decides: an error the serial
      // search would also have reached rethrows; an infeasible row stops.
      if (errors[static_cast<size_t>(i)])
        std::rethrow_exception(errors[static_cast<size_t>(i)]);
      const std::optional<DwellRow>& row = rows[static_cast<size_t>(i)];
      if (!row.has_value()) {  // first infeasible wait: serial search stops
        stopped = true;
        break;
      }
      tables.t_star_w = waits[base + static_cast<size_t>(i)];
      tables.t_minus.push_back(row->t_minus);
      tables.t_plus.push_back(row->t_plus);
      tables.settling_at_minus.push_back(row->settling_at_minus);
      tables.settling_at_plus.push_back(row->settling_at_plus);
    }
  }
  if (tables.t_star_w < 0) return tables;  // infeasible even at Tw = 0

  TTDIM_ENSURES(tables.t_minus.size() == tables.t_plus.size());
  TTDIM_ENSURES(static_cast<int>(tables.t_minus.size()) ==
                tables.t_star_w / spec.tw_granularity + 1);
  return tables;
}

}  // namespace ttdim::engine::oracle
