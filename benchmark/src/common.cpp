#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <system_error>

#include "bench.h"
#include "casestudy/apps.h"
#include "engine/analysis/analysis_cache.h"
#include "engine/analysis/app_analysis.h"
#include "engine/oracle/slot_config_key.h"
#include "engine/scenario_generator.h"
#include "verify/discrete.h"

namespace bench {

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kCold: return "cold";
    case Workload::kRemap: return "remap";
    case Workload::kChurn: return "churn";
    case Workload::kRestart: return "restart";
  }
  return "?";
}

std::vector<core::AppSpec> table1_specs() {
  std::vector<core::AppSpec> specs;
  for (const casestudy::App& app : casestudy::all_apps())
    specs.push_back({app.name, app.plant, app.kt, app.ke,
                     app.min_interarrival, app.settling_requirement});
  return specs;
}

engine::analysis::AppAnalysisSpec analysis_spec(const core::AppSpec& spec) {
  const core::SolveOptions defaults;
  engine::analysis::AppAnalysisSpec aspec;
  aspec.dwell.settling_requirement = spec.settling_requirement;
  aspec.dwell.settling = defaults.settling;
  aspec.dwell.tw_granularity = defaults.tw_granularity;
  aspec.stop_on_unstable = defaults.require_switching_stability;
  return aspec;
}

BaseAnalysis analyze_base(const std::vector<core::AppSpec>& base,
                          engine::analysis::AnalysisCache* cache,
                          engine::cache::DiskCache* disk) {
  BaseAnalysis out;
  for (const core::AppSpec& spec : base) {
    const engine::analysis::AppAnalysisOutcome outcome =
        engine::analysis::analyze_app(spec.plant, spec.kt, spec.ke,
                                      analysis_spec(spec), cache, 1, disk);
    verify::AppTiming timing = verify::make_app_timing(
        spec.name, outcome.result->tables, spec.min_interarrival);
    int floor = timing.t_star_w + 1;
    for (std::size_t w = 0; w < timing.t_plus.size(); ++w)
      floor = std::max(floor, static_cast<int>(w) + timing.t_plus[w] + 1);
    out.floors.push_back(floor);
    out.timings.push_back(std::move(timing));
  }
  return out;
}

std::vector<std::vector<core::AppSpec>> remap_populations(
    const std::vector<core::AppSpec>& base, const std::vector<int>& floors,
    std::uint64_t seed, int count, double lowest) {
  constexpr int kBlock = 32;
  Rng rng(seed);
  std::vector<std::vector<int>> strata(base.size(), std::vector<int>(kBlock));
  std::vector<std::vector<core::AppSpec>> populations;
  for (int p = 0; p < count; ++p) {
    if (p % kBlock == 0) {
      for (std::vector<int>& stratum : strata) {
        std::iota(stratum.begin(), stratum.end(), 0);
        for (int i = kBlock - 1; i > 0; --i)
          std::swap(stratum[static_cast<std::size_t>(i)],
                    stratum[static_cast<std::size_t>(rng.below(i + 1))]);
      }
    }
    std::vector<core::AppSpec> population = base;
    for (std::size_t j = 0; j < base.size(); ++j) {
      const double u =
          lowest + (1.0 - lowest) *
                       (strata[j][static_cast<std::size_t>(p % kBlock)] +
                        rng.unit()) /
                       kBlock;
      const int span = std::max(0, base[j].min_interarrival - floors[j]);
      population[j].min_interarrival =
          floors[j] + static_cast<int>(std::lround(u * span));
    }
    populations.push_back(std::move(population));
  }
  return populations;
}

std::vector<ChurnWalk> churn_walks(const std::vector<core::AppSpec>& base,
                                   const BaseAnalysis& analysis,
                                   std::uint64_t seed, int count) {
  std::vector<ChurnWalk> walks;
  // The re-rates of each app, (walk, delta) positions; their rates are
  // drawn once all walks are known.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> rerates(
      base.size());
  for (int k = 0; k < count; ++k) {
    ChurnWalk walk;
    walk.seed = static_cast<std::uint64_t>(k + 1);
    engine::ScenarioGenerator gen(analysis.timings, walk.seed);
    const engine::ChurnTrace trace = gen.churn_trace(4);
    // Each app's first kAdd is its registration, covered by the walk's
    // initial solve; a removal that would empty the population is
    // skipped together with its paired re-add.
    std::vector<bool> registered(base.size(), false);
    std::vector<bool> skip_add(base.size(), false);
    int active = static_cast<int>(base.size());
    for (const engine::ChurnEvent& event : trace.events) {
      const std::size_t a = static_cast<std::size_t>(event.app);
      core::AppSpec spec = base[a];
      core::Delta delta;
      switch (event.kind) {
        case engine::ChurnEventKind::kAdd:
          if (!registered[a]) {
            registered[a] = true;
            continue;
          }
          if (skip_add[a]) {
            skip_add[a] = false;
            continue;
          }
          delta.add.push_back(std::move(spec));
          ++active;
          break;
        case engine::ChurnEventKind::kRemove:
          if (active <= 1) {
            skip_add[a] = true;
            continue;
          }
          delta.remove.push_back(spec.name);
          --active;
          break;
        case engine::ChurnEventKind::kRerate:
          rerates[a].emplace_back(walks.size(), walk.deltas.size());
          delta.rerate.push_back(std::move(spec));
          break;
      }
      walk.deltas.push_back(std::move(delta));
    }
    walks.push_back(std::move(walk));
  }
  // Re-rates are drawn as churn_trace draws them, uniform in
  // [floor, 2r] (Latin-hypercube stratified over each app's re-rates, so
  // every seed covers the range evenly). A draw above r returns the app
  // to its Table-1 rate; a draw in [floor, r] is mapped linearly onto the
  // upper half of that range, away from the baseline's slow corner.
  Rng rng(seed);
  for (std::size_t a = 0; a < base.size(); ++a) {
    const int n = static_cast<int>(rerates[a].size());
    std::vector<int> strata(static_cast<std::size_t>(n));
    std::iota(strata.begin(), strata.end(), 0);
    for (int i = n - 1; i > 0; --i)
      std::swap(strata[static_cast<std::size_t>(i)],
                strata[static_cast<std::size_t>(rng.below(i + 1))]);
    const int r0 = base[a].min_interarrival;
    const int floor_r = analysis.floors[a];
    const int mid = std::min(r0, floor_r + (r0 - floor_r + 1) / 2);
    // Share of [floor, 2r] at or below r.
    const double below_r =
        static_cast<double>(std::max(1, r0 - floor_r + 1)) /
        std::max(1, 2 * r0 - floor_r + 1);
    for (int i = 0; i < n; ++i) {
      const auto [w, d] = rerates[a][static_cast<std::size_t>(i)];
      const double u = (strata[static_cast<std::size_t>(i)] + rng.unit()) / n;
      walks[w].deltas[d].rerate.front().min_interarrival =
          u >= below_r ? r0
                       : mid + static_cast<int>(u / below_r * (r0 - mid + 1));
    }
  }
  // As in churn_trace, an app rejoins at the rate it left with.
  const auto index_of = [&base](const std::string& name) {
    return static_cast<std::size_t>(
        std::find_if(base.begin(), base.end(),
                     [&name](const core::AppSpec& s) { return s.name == name; }) -
        base.begin());
  };
  for (ChurnWalk& walk : walks) {
    std::vector<int> rate;
    for (const core::AppSpec& spec : base) rate.push_back(spec.min_interarrival);
    for (core::Delta& delta : walk.deltas) {
      for (const core::AppSpec& spec : delta.rerate)
        rate[index_of(spec.name)] = spec.min_interarrival;
      for (core::AppSpec& spec : delta.add)
        spec.min_interarrival = rate[index_of(spec.name)];
    }
  }
  return walks;
}

std::string hash_inputs(const Inputs& inputs) {
  std::string canonical = core::SolveKey::of(inputs.base, {}).canonical;
  const auto rates = [&canonical](const std::vector<core::AppSpec>& specs) {
    for (const core::AppSpec& spec : specs)
      canonical +=
          spec.name + ":" + std::to_string(spec.min_interarrival) + ";";
  };
  for (const std::vector<core::AppSpec>& population : inputs.populations) {
    canonical += "|pop:";
    rates(population);
  }
  for (const ChurnWalk& walk : inputs.walks) {
    canonical += "|walk:" + std::to_string(walk.seed);
    for (const core::Delta& delta : walk.deltas) {
      canonical += "|";
      for (const std::string& name : delta.remove)
        canonical += "-" + name + ";";
      canonical += "~";
      rates(delta.rerate);
      canonical += "+";
      rates(delta.add);
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    engine::oracle::fnv1a(canonical)));
  return hex;
}

void Result::fail(const std::string& what) {
  ++failed;
  if (problems.size() < 20) problems.push_back(what);
}

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

double percentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return sorted_percentile(samples.data(), samples.size(), p);
}

double sorted_percentile(const double* sorted, std::size_t n, double p) {
  if (n == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, n - 1);
  return sorted[lo] +
         (rank - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

core::SolveOptions base_options(const Config& config) {
  core::SolveOptions options;
  options.proof_threads = config.proof_threads;
  return options;
}

std::string placement_error(const core::Solution& solution) {
  std::vector<int> seen(solution.apps.size(), 0);
  for (const std::vector<int>& slot : solution.proposed.slots)
    for (int member : slot) {
      if (member < 0 || member >= static_cast<int>(seen.size()))
        return "proposed slot names app index " + std::to_string(member);
      ++seen[static_cast<std::size_t>(member)];
    }
  for (std::size_t i = 0; i < seen.size(); ++i)
    if (seen[i] != 1)
      return solution.apps[i].spec.name + " is placed " +
             std::to_string(seen[i]) + " times";
  return "";
}

std::vector<verify::AppTiming> slot_timings(const core::Solution& solution,
                                            const std::vector<int>& slot) {
  std::vector<verify::AppTiming> members;
  for (int member : slot)
    members.push_back(solution.apps[static_cast<std::size_t>(member)].timing);
  return members;
}

std::string reprove_slots(const core::Solution& solution) {
  for (std::size_t s = 0; s < solution.proposed.slots.size(); ++s)
    if (!verify::DiscreteVerifier(
             slot_timings(solution, solution.proposed.slots[s]))
             .verify()
             .safe)
      return "proposed slot " + std::to_string(s) + " is not safe";
  return "";
}

ScratchDir::ScratchDir(const std::string& parent, const std::string& tag) {
  static std::atomic<int> counter{0};
  path_ = parent + "/tmp/" + tag + "-" + std::to_string(getpid()) + "-" +
          std::to_string(counter++);
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace bench
