#!/usr/bin/env python3
"""Build and run the ttdim workload benchmark (see benchmark/README.md).

All workloads, timed then traced, with a report:

    python3 benchmark/run.py --seed 1 [--seconds S] [--out FILE] [--smoke]

prints every metric as `workload metric value unit`, writes the result
JSON (default benchmark/out/result.json) and the Chrome traces
benchmark/out/trace_<workload>.json, and exits 1 if any correctness
check failed. --smoke runs two operations per workload and one set-up.

One run of one workload:

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.

Each run is its own ttdim_bench process, so peak RSS belongs to one
workload. The driver is configured and built in Release under
benchmark/build on first use.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = HERE / "build"
OUT = HERE / "out"
BINARY = BUILD / "ttdim_bench"
SPEC = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


def die(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as e:
        die(f"cannot read {SPEC}: {e}")


def build():
    """Configure once, then build ttdim_bench (a no-op when up to date)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"the ttdim sources are not in {ROOT}; nothing to build")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "--target", "ttdim_bench",
                  "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            die("build failed: " + " ".join(step))


def run_bench(workload, seed, seconds, traced, extra=()):
    """One ttdim_bench process; returns its JSON result."""
    OUT.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--work-dir", str(OUT)]
    if traced:
        cmd += ["--trace", str(OUT / f"trace_{workload}.json")]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload}: ttdim_bench ran longer than {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"{workload}: ttdim_bench exited with {proc.returncode}")
    return json.loads(lines[-1])


def schema_problems(result, metrics):
    """What in `result` disagrees with the BENCHMARK.json metric list."""
    problems = []
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive whole number")
    for metric in metrics:
        got = result.get("metrics", {}).get(metric["name"])
        if got is None:
            problems.append(f"metric {metric['name']} is missing")
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {metric['name']} is not a finite number")
        if got.get("unit") != metric["unit"]:
            problems.append(f"metric {metric['name']} has unit {got.get('unit')}"
                            f", not {metric['unit']}")
    return problems


def one_run(args, spec):
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    build()
    result = run_bench(args.workload, args.seed, args.seconds, args.trace == 1)
    problems = schema_problems(result, metrics)
    if problems:
        die(f"{args.workload}: " + "; ".join(problems))
    print("provenance " + json.dumps({"workload": args.workload,
                                      "seed": args.seed,
                                      "input_hash": result["input_hash"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: result["metrics"][m["name"]] for m in metrics},
    }))
    return 0


def all_workloads(args, spec):
    build()
    seconds = args.seconds or spec["run_seconds"]
    extra = ["--max-ops", "2", "--setups", "1"] if args.smoke else []
    report = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
              "workloads": {}}
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        timed = run_bench(workload, args.seed, seconds, False, extra)
        traced = run_bench(workload, args.seed, seconds, True, extra)
        problems = (timed["problems"] + traced["problems"] +
                    schema_problems(timed, spec["end_to_end"]) +
                    schema_problems(traced, spec["per_layer"]))
        if timed["input_hash"] != traced["input_hash"]:
            problems.append("the timed and traced runs generated different inputs")
        failed_pct = 100.0 * timed["failed"] / max(1, timed["attempted"])
        end_to_end = {m["name"]: timed["metrics"][m["name"]]
                      for m in spec["end_to_end"] if m["name"] in timed["metrics"]}
        end_to_end["failed_ops_pct"] = {"value": failed_pct, "unit": "%"}
        per_layer = {m["name"]: traced["metrics"][m["name"]]
                     for m in spec["per_layer"] if m["name"] in traced["metrics"]}
        for name, metric in list(end_to_end.items()) + list(per_layer.items()):
            print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
        for problem in problems:
            print(f"{workload} FAILED {problem}", file=sys.stderr)
        correct = not problems and timed["failed"] == 0 and traced["failed"] == 0
        all_correct = all_correct and correct
        report["workloads"][workload] = {
            "input_hash": timed["input_hash"],
            "attempted": timed["attempted"],
            "failed": timed["failed"],
            "traced_attempted": traced["attempted"],
            "traced_failed": traced["failed"],
            "correct": correct,
            "problems": problems,
            "end_to_end": end_to_end,
            "per_layer": per_layer,
            "trace": str((OUT / f"trace_{workload}.json").relative_to(ROOT)),
        }
    out = Path(args.out) if args.out else OUT / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}; {'all checks passed' if all_correct else 'CHECKS FAILED'}")
    return 0 if all_correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", help="run one workload (driver form)")
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (BENCHMARK.json "
                             "run_seconds by default)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    parser.add_argument("--out", help="result JSON of the all-workload form")
    parser.add_argument("--smoke", action="store_true",
                        help="two operations per workload, one set-up")
    args = parser.parse_args()
    spec = load_spec()
    if args.workload:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            die(f"unknown workload {args.workload}")
        args.seconds = args.seconds or spec["run_seconds"]
        return one_run(args, spec)
    return all_workloads(args, spec)


if __name__ == "__main__":
    sys.exit(main())
