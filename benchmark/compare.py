#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 benchmark/compare.py A1.json B1.json [A2.json B2.json ...]

Arguments alternate parent (A) and change (B) result files written by
`benchmark/run.py --seed N --out FILE`; each A/B couple is one pair of
runs, made back to back with the same seed (alternate which side runs
first). Run at least ten pairs before claiming anything.

For every end-to-end metric of BENCHMARK.json on every workload it
prints each side's median and quartiles, the share of pairs the change
won (ties count for neither side) and a verdict:

  better      at least ten pairs, the change won at least 9/10 of them,
              and the medians differ by more than the parent's
              interquartile range
  worse       the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, and not every change run beats every parent run
  within      none of the above: no regression beyond the bound

Per-layer metrics follow with their medians, without a verdict: they
show where a change moved the time. Exits 1 when any verdict is `worse`.
"""
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Fewer pairs cannot estimate the parent's spread; no gain is claimed.
MIN_PAIRS = 10


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def side(results, workload, group, name):
    return [r["workloads"][workload][group][name]["value"] for r in results
            if name in r["workloads"].get(workload, {}).get(group, {})]


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    sign = -1.0 if lower else 1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    if (len(parent) >= MIN_PAIRS and wins >= 0.9 * len(parent)
            and sign * (cm - pm) > (p3 - p1)):
        return wins, "better"
    if worse_by > metric["bound"]:
        return wins, "worse"
    if spread > metric["bound"]:
        best_parent = min(parent) if lower else max(parent)
        all_better = all((c < best_parent) if lower else (c > best_parent)
                         for c in change)
        if not all_better:
            return wins, "unresolved"
    return wins, "within"


def main(paths):
    if len(paths) < 2 or len(paths) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    results = [json.loads(Path(p).read_text()) for p in paths]
    parent, change = results[0::2], results[1::2]
    for a, b in zip(parent, change):
        for workload, row in a["workloads"].items():
            other = b["workloads"].get(workload)
            if other and other["input_hash"] != row["input_hash"]:
                print(f"warning: {workload} inputs differ within a pair "
                      "(different seeds?)", file=sys.stderr)
    for r, path in zip(results, paths):
        for workload, row in r["workloads"].items():
            if not row["correct"]:
                print(f"warning: {path}: {workload} failed its checks",
                      file=sys.stderr)

    workloads = [w["name"] for w in spec["workloads"]]
    any_worse = False
    note = f" (fewer than {MIN_PAIRS}: no gain can be claimed)" \
        if len(parent) < MIN_PAIRS else ""
    print(f"{len(parent)} pairs{note}\n")
    print(f"{'workload':8} {'metric':16} {'parent q1/med/q3':>30} "
          f"{'change q1/med/q3':>30} {'delta':>8} {'bound':>6} {'wins':>6}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            a = side(parent, workload, "end_to_end", metric["name"])
            b = side(change, workload, "end_to_end", metric["name"])
            if not a or len(a) != len(b):
                continue
            wins, outcome = verdict(metric, a, b)
            any_worse = any_worse or outcome == "worse"
            qa, qb = quartiles(a), quartiles(b)
            delta = (qb[1] - qa[1]) / abs(qa[1]) * 100 if qa[1] else 0.0
            print(f"{workload:8} {metric['name']:16} "
                  f"{'%.4g/%.4g/%.4g' % qa:>30} {'%.4g/%.4g/%.4g' % qb:>30} "
                  f"{delta:+7.1f}% {metric['bound']:6.4g} {wins:>3}/{len(a):<2}  {outcome}")
    print(f"\n{'workload':8} {'per-layer metric':40} {'parent med':>12} "
          f"{'change med':>12} {'delta':>8}")
    for workload in workloads:
        for metric in spec["per_layer"]:
            a = side(parent, workload, "per_layer", metric["name"])
            b = side(change, workload, "per_layer", metric["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            delta = f"{(mb - ma) / abs(ma) * 100:+7.1f}%" if ma else "     n/a"
            print(f"{workload:8} {metric['name']:40} {ma:12.4g} {mb:12.4g} {delta}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
