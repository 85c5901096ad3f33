// ttdim_bench: one workload of the benchmark in its own process.
//
//   ttdim_bench --workload <cold|remap|churn|restart> --seed <n>
//               [--seconds <s>] [--trace <file>] [--max-ops <n>]
//               [--setups <n>] [--proof-threads <n>] [--work-dir <dir>]
//
// Without --trace it is the timed run (end-to-end metrics, tracing off);
// with --trace it is the traced run (per-layer ledger, Chrome trace
// written to <file>). Prints one JSON object on stdout. Exit codes: 0
// the run completed (its JSON says whether every check passed), 1 the
// run aborted, 2 usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

namespace {

using namespace bench;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <cold|remap|churn|restart> --seed <n> "
               "[--seconds <s>] [--trace <file>] [--max-ops <n>] "
               "[--setups <n>] [--proof-threads <n>] [--work-dir <dir>]\n",
               argv0);
  return 2;
}

bool parse_workload(const std::string& name, Workload& out) {
  for (Workload w : {Workload::kCold, Workload::kRemap, Workload::kChurn,
                     Workload::kRestart})
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  return false;
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
      continue;
    }
    std::putchar(c);
  }
  std::putchar('"');
}

void print_result(const Config& config, const Result& result) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"input_hash\":\"%s\","
              "\"attempted\":%ld,\"failed\":%ld,\"problems\":[",
              workload_name(config.workload),
              static_cast<unsigned long long>(config.seed),
              result.input_hash.c_str(), result.attempted, result.failed);
  for (std::size_t i = 0; i < result.problems.size(); ++i) {
    if (i > 0) std::putchar(',');
    print_json_string(result.problems[i]);
  }
  std::printf("],\"metrics\":{");
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    // JSON has no NaN or infinity; a metric that is not finite is
    // reported as null and fails the harness's schema check.
    std::printf("%s\"%s\":{\"value\":", i == 0 ? "" : ",", m.name.c_str());
    if (std::isfinite(m.value))
      std::printf("%.17g", m.value);
    else
      std::printf("null");
    std::printf(",\"unit\":\"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      if (!parse_workload(value, config.workload)) return usage(argv[0]);
      have_workload = true;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0.0)) return usage(argv[0]);
    } else if (arg == "--trace") {
      config.trace_path = value;
    } else if (arg == "--max-ops") {
      config.max_ops = std::atoi(value.c_str());
    } else if (arg == "--setups") {
      config.setups = std::atoi(value.c_str());
    } else if (arg == "--proof-threads") {
      config.proof_threads = std::atoi(value.c_str());
      if (config.proof_threads < 0) return usage(argv[0]);
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed) return usage(argv[0]);
  if (config.trace_path.empty() && config.proof_threads != 1) {
    std::fprintf(stderr, "--proof-threads applies to traced runs only\n");
    return usage(argv[0]);
  }

  try {
    int status = 0;
    const std::optional<Result> result = config.trace_path.empty()
                                             ? run_timed(config, status)
                                             : run_traced(config);
    if (!result) return status;  // the timed run's parent process
    print_result(config, *result);
    for (const std::string& problem : result->problems)
      std::fprintf(stderr, "ttdim_bench %s: FAILED %s\n",
                   workload_name(config.workload), problem.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ttdim_bench %s: aborted: %s\n",
                 workload_name(config.workload), e.what());
    return 1;
  }
  return 0;
}
