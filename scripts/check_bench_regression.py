#!/usr/bin/env python3
"""Gate on benchmark regressions of the case-study solve.

Compares fresh google-benchmark JSON reports (bench_oracle; bench_batch
for BM_CaseStudySolveAnalysisWarm, BM_CaseStudySolveSubsumptionWarm and
BM_CaseStudySolveDiskWarm; bench_verification for the case-study slot
proofs BM_DiscreteS1 / BM_DiscreteS2 and the BM_DiscreteLarge/1
heap-key proof; bench_redimension for the
BM_RedimensionWarmChurn / BM_RedimensionColdPerEvent warm-vs-cold churn
pair; bench_table1 for the per-application analysis layers) against
the checked-in bench/BENCH_baseline.json. Any gated benchmark that cannot be compared —
missing from the current reports or the baseline, or normalized by an
absent/zero calibration — fails the gate loudly; nothing is skipped. Absolute times are
meaningless across machines, so every solve time is first normalized by
the BM_Calibration time (a fixed CPU-bound loop, registered by every
bench binary via bench_common.h) *from the same report*: the compared
quantity is "solves per calibration unit", which cancels the machine's
scalar speed. Normalizing one binary's solve by another binary's
calibration would reintroduce cross-process noise (thermal throttling or
a noisy neighbor during one run but not the other), so each report must
carry its own calibration, and the baseline file keeps the per-binary
runs as separate groups ({"groups": [<report>, ...]}; a plain report is
treated as one group).

Usage:
  check_bench_regression.py <current.json> [<more.json> ...]
                            [--baseline bench/BENCH_baseline.json]
                            [--threshold 0.25]

Exit code 1 when any gated benchmark is more than `threshold` slower
(calibrated) than the baseline. Speedups update nothing — refresh the
baseline deliberately by re-running the affected bench binaries with
--benchmark_format=json and committing the merged groups.
"""

import argparse
import json
import sys

GATED = [
    "BM_CaseStudySolve",
    "BM_CaseStudySolveUncached",
    "BM_CaseStudySolveWarmCache",
    "BM_CaseStudySolvePrefixWarm",
    "BM_CaseStudySolveAnalysisWarm",
    "BM_CaseStudySolveSubsumptionWarm",
    "BM_CaseStudySolveDiskWarm",
    # The discrete verifier (bench_verification): one fresh serial proof
    # per case-study slot, S1 = {C1,C5,C4,C3} (1.44 M states) and
    # S2 = {C6,C2} (10 k states); then the budget-capped heap-key hot
    # loop of 17 apps.
    "BM_DiscreteS1",
    "BM_DiscreteS2",
    "BM_DiscreteLarge/1",
    # Online re-dimensioning (bench_redimension): the steady-state warm
    # remove+re-add cycle through a standing DimensioningSession, and the
    # from-scratch solve pair a redimension-less daemon would pay for the
    # same two events. Gating both pins the >= 10x warm/cold margin of
    # ISSUE 10 from either side: the warm path regressing toward the cold
    # one or the cold baseline quietly speeding past the ratio both trip.
    "BM_RedimensionWarmChurn",
    "BM_RedimensionColdPerEvent",
    # The per-application analysis layers (bench_table1) on C2, the
    # slowest Table-1 pair: the CQLF decision, the switching-stability
    # check (CQLF decision plus the degradation grid) and the dwell-table
    # search.
    "BM_CqlfSearch/1",
    "BM_SwitchingStability/1",
    "BM_DwellTables/1",
]
CALIBRATION = "BM_Calibration"


def times_of(benchmarks):
    times = {}
    for bench in benchmarks:
        name = bench.get("name", "")
        if name not in times and "real_time" in bench:
            times[name] = float(bench["real_time"])
    return times


def load_groups(path):
    """One times-dict per self-normalizing report group in the file."""
    with open(path) as fh:
        report = json.load(fh)
    if "groups" in report:
        return [times_of(g.get("benchmarks", [])) for g in report["groups"]]
    return [times_of(report.get("benchmarks", []))]


def time_of(times, name):
    """Prefer the _median aggregate (present with --benchmark_repetitions)
    over the single-run entry."""
    return times.get(name + "_median", times.get(name))


def calibrated(groups, name, label):
    """Calibration units of `name`, normalized within the first group
    that contains it. None (with a FAIL message) when the benchmark is
    absent everywhere, when the containing group lacks its own
    calibration, or when that calibration is zero/negative — every one
    of these must fail the gate loudly: a silently skipped benchmark
    reads as "within threshold" while measuring nothing."""
    for times in groups:
        raw = time_of(times, name)
        if raw is None:
            continue
        calibration = time_of(times, CALIBRATION)
        if calibration is None:
            print(f"FAIL: the {label} report containing {name} has no "
                  f"{CALIBRATION} of its own")
            return None
        if calibration <= 0:
            print(f"FAIL: the {label} report containing {name} has a "
                  f"non-positive {CALIBRATION} time ({calibration!r}) — "
                  f"cannot normalize")
            return None
        return raw / calibration
    print(f"FAIL: {name} missing from the {label} report(s)")
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "current", nargs="+",
        help="fresh benchmark JSON report(s), each self-normalizing")
    parser.add_argument("--baseline", default="bench/BENCH_baseline.json")
    parser.add_argument("--threshold", type=float, default=0.25)
    args = parser.parse_args()

    current = [group for path in args.current for group in load_groups(path)]
    baseline = load_groups(args.baseline)

    # A report that parsed but contains no benchmarks at all is a broken
    # or truncated file, not an empty result set — refuse it rather than
    # letting every lookup "miss" into messages about the wrong thing.
    if not any(current):
        print("FAIL: no benchmark entries in any current report")
        return 1
    if not any(baseline):
        print(f"FAIL: no benchmark entries in the baseline {args.baseline}")
        return 1

    # Every gated benchmark is checked and reported before the gate
    # decides: an early return on the first problem would silently skip
    # the rest of the list.
    failed = False
    broken = False
    for name in GATED:
        cur = calibrated(current, name, "current")
        base = calibrated(baseline, name, "baseline")
        if cur is None or base is None:
            broken = True
            continue
        change = cur / base - 1.0
        verdict = "ok"
        if change > args.threshold:
            verdict = f"REGRESSION (> {args.threshold:.0%})"
            failed = True
        print(
            f"{name}: baseline {base:.2f} -> current {cur:.2f} "
            f"calibration units ({change:+.1%}) {verdict}"
        )

    if broken:
        print(
            "\nGate is incomplete: benchmark(s) or calibration missing "
            "(see FAIL lines above). A gated benchmark that cannot be "
            "compared fails the gate — it does not pass it. If a "
            "benchmark was added or renamed, refresh "
            "bench/BENCH_baseline.json."
        )
        return 1
    if failed:
        print(
            "\nCase-study solve regressed beyond the threshold. If the "
            "slowdown is intended, refresh bench/BENCH_baseline.json."
        )
        return 1
    print("\nAll gated benchmarks within threshold.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
