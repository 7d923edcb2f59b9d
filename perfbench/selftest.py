"""Self-test of the benchmark on tiny inputs (about 15 seconds).

Usage (from the root of a checkout): python3 perfbench/selftest.py

1. BENCHMARK.json keeps the declared shape: its keys, name and unit
   syntax, bounds and counts.
2. ``run.py`` on the smoke workload (the vortex point, and ``simulate`` with
   n=64 and t_final=0.05) emits, with ``--trace 0`` and ``--trace 1``,
   exactly the metric names BENCHMARK.json declares, and every output
   check passes.
3. ``run.py`` in a directory holding only BENCHMARK.json and the benchmark
   exits non-zero without printing a result.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json keys")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    check(1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128, "metric counts")
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], w["name"])
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m["name"])
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"), m["name"])
        names.append(m["name"])
    check(all(NAME.match(n) for n in names) and len(names) == len(set(names)), "names")
    check({"name": "setup_s", "unit": "s", "better": "lower", "bound": max(
        m["bound"] for m in spec["end_to_end"])} in spec["end_to_end"], "setup_s has the largest bound")


def run(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_spec(spec)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = run(ROOT, trace)
        check(out.returncode == 0, f"trace {trace} exit {out.returncode}: {out.stderr[-2000:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
        check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
              f"trace {trace} checks: {out.stdout[-2000:]}")
        declared = {m["name"] for m in spec[key]}
        emitted = set(result["metrics"])
        check(emitted == declared, f"trace {trace} metrics differ: "
              f"missing {sorted(declared - emitted)}, extra {sorted(emitted - declared)}")
        check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()), "values")
        if key == "end_to_end":
            check(all(v["value"] > 0 for v in result["metrics"].values()), "end-to-end metrics > 0")
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = run(bare, 0)
    shutil.rmtree(bare, ignore_errors=True)
    check(out.returncode != 0 and '"correct"' not in out.stdout, "bare directory must fail")
    print("selftest passed")


if __name__ == "__main__":
    main()
