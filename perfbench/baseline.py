#!/usr/bin/env python3
"""Runs every workload of the benchmark and records the spread.

One command for all workloads: each run gets its own seed, and every
end-to-end metric (untraced runs) and per-layer metric (traced runs) is
printed by name with its unit, median and quartiles (as
`statistics.quantiles(n=4)` gives them) over the runs. The quartile
spread as a share of the median is what BENCHMARK.json's bounds are
checked against.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Every workload BENCHMARK.json lists gets RUNS untraced runs, seeds
FIRST_SEED onwards, and TRACE_RUNS traced runs on the first of those
seeds; perfbench/baseline.json was recorded this way. Run it from the
repository root. Without `--out` it only prints.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
TRACE_RUNS = 1
FIRST_SEED = 301


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: run not correct:\n{out.stdout}")
    return result, elapsed


def summarize(values, unit):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    med = statistics.median(values)
    return {
        "unit": unit,
        "median": med,
        "q1": q1,
        "q3": q3,
        "runs": len(values),
        "spread": (q3 - q1) / med if med else 0.0,
    }


def git_rev():
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the baseline here, relative to the repository root")
    args = ap.parse_args()
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(FIRST_SEED, FIRST_SEED + RUNS))
    doc = {
        "git_rev": git_rev(),
        "host_cores": os.cpu_count(),
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    worst = 0.0
    for name in names:
        e2e, layers, units, wall = {}, {}, {}, []
        for seed in seeds:
            res, elapsed = run_once(spec, name, seed, trace=False)
            wall.append(elapsed)
            for k, m in res["metrics"].items():
                e2e.setdefault(k, []).append(m["value"])
                units[k] = m["unit"]
        for seed in seeds[:TRACE_RUNS]:
            res, elapsed = run_once(spec, name, seed, trace=True)
            wall.append(elapsed)
            for k, m in res["metrics"].items():
                layers.setdefault(k, []).append(m["value"])
                units[k] = m["unit"]
        entry = {
            "end_to_end": {k: summarize(v, units[k]) for k, v in e2e.items()},
            "per_layer": {k: summarize(v, units[k]) for k, v in layers.items()},
            "process_wall_s_max": max(wall),
        }
        doc["workloads"][name] = entry
        for k, s in entry["end_to_end"].items():
            flag = ""
            if s["spread"] > bounds[k]:
                flag = "  <-- spread above the bound"
            elif s["spread"] > bounds[k] / 3:
                flag = "  <-- spread above a third of the bound"
            worst = max(worst, s["spread"] / bounds[k])
            print(f"{name:12} {k:20} {s['median']:<12.6g} {s['unit']:6} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} n {s['runs']:<3} "
                  f"spread {s['spread']:.4f} (bound {bounds[k]}){flag}")
        for k, s in entry["per_layer"].items():
            print(f"{name:12} {k:34} {s['median']:<12.6g} {s['unit']:6} n {s['runs']}")
        print(f"{name:12} slowest process {max(wall):.1f} s")
    print(f"worst spread / bound: {worst:.3f}")
    if args.out:
        with open(os.path.join(ROOT, args.out), "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
