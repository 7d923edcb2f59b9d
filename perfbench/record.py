"""Run the benchmark over several seeds and summarise it (a trajectory entry).

Usage (from the root of a checkout):

    python3 perfbench/record.py --seeds 10 [--first-seed N] [--out FILE]

Every workload in BENCHMARK.json runs once untraced per seed, all its seeds
back to back, and then once traced.  For every end-to-end metric the summary
gives the median, the quartiles and the spread (Q3 - Q1) / median next to a
third of the bound in BENCHMARK.json, and it keeps the traced run's
per-layer metrics.  With
``--out`` the summary is written as JSON, e.g. a new file under
``perfbench/trajectory/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import provenance

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


def bench(workload, seed, seconds, trace):
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{out.stderr[-3000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["duration_s"] = time.monotonic() - t0
    print(f"{workload} seed={seed} trace={trace} {result['duration_s']:.1f}s "
          f"correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    runs = {w: [bench(w, s, spec["run_seconds"], 0) for s in seeds] for w in names}
    summary = {"provenance": provenance.collect(ROOT, list(seeds)), "workloads": {}}
    for w in names:
        entry = {"runs": len(runs[w]), "max_duration_s": max(r["duration_s"] for r in runs[w]),
                 "all_correct": all(r["correct"] for r in runs[w]), "end_to_end": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"],
                "unit": m["unit"], "values": values,
            }
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"{w:18s} {m['name']:12s} median {med:10.4f} {m['unit']:4s} "
                  f"spread {spread:.4f} (bound/3 {m['bound'] / 3:.4f}) {flag}")
        traced = bench(w, args.first_seed, spec["run_seconds"], 1)
        entry["traced_duration_s"] = traced["duration_s"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        summary["workloads"][w] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
