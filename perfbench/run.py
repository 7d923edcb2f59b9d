"""alphapatch benchmark: runs one workload through the real CLI and reports.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload prove-point --seed 1 --seconds 30 --trace 0

Every pass runs the workload's commands through ``alphapatch.cli.main`` in a
fresh child interpreter, then checks every output.  ``--trace 0`` repeats
passes while another one still fits in ``--seconds`` (at least one) and
reports the end-to-end metrics as medians over passes; set-up time is the
median of set-up-only spawns made before and after the passes.
``--trace 1`` runs one untraced and one traced pass plus the leaf
microbenchmarks, and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record (provenance, per-pass commands
and checks) goes to ``.bench_build/perfbench/results/``.  Exits 2 without a
result when the checkout has no ``src/alphapatch`` to benchmark.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import provenance
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_SAMPLES = 10
DEADLINE_S = 175.0
MICRO_SCALE = {workloads.SMOKE: 0.05}


class HarnessError(RuntimeError):
    """The benchmark could not run the workload; no result is printed."""


class Run:
    def __init__(self, workload, seed, trace):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.dir = os.path.join(WORK, f"run-{workload}-s{seed}-t{trace}-{os.getpid()}")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = self.failed = 0
        self.passes = []
        self._n = 0

    def _spawn(self, args, tag, stamp=False):
        """Run a child in its own process group and wait for it; ``stamp``
        appends the spawn instant for the child's set-up clock."""
        err_path = os.path.join(self.dir, f"{tag}.stderr")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError(f"out of time before {tag}")
        with open(err_path, "w") as err:
            cmd = [sys.executable, *args]
            spawned = time.monotonic()
            proc = subprocess.Popen(
                cmd + [repr(spawned)] if stamp else cmd,
                env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err,
                start_new_session=True,
            )
            code = "timeout"
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
            finally:
                if code != 0:  # also stops pool workers it left behind
                    try:
                        os.killpg(proc.pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                    proc.wait()
        if code != 0:
            with open(err_path) as fh:
                tail = fh.read()[-2000:]
            raise HarnessError(f"{tag} exited with {code}:\n{tail}")

    def child(self, mode, traced=False):
        self._n += 1
        tag = f"{mode}{self._n}"
        spec = {
            "workload": self.workload, "seed": self.seed, "mode": mode, "trace": traced,
            "out_dir": os.path.join(self.dir, tag),
            "log": os.path.join(self.dir, f"{tag}.log"),
            "result": os.path.join(self.dir, f"{tag}.json"),
            "run_id": f"{self.workload}-s{self.seed}-{os.getpid()}-{tag}",
            "trace_path": os.path.join(WORK, "traces", f"{self.workload}-s{self.seed}-{os.getpid()}.jsonl"),
        }
        spec_path = os.path.join(self.dir, f"{tag}.spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        self._spawn([os.path.join(HERE, "child.py"), spec_path], tag, stamp=True)
        with open(spec["result"]) as fh:
            res = json.load(fh)
        if not os.path.realpath(res["module"]).startswith(os.path.realpath(SRC) + os.sep):
            raise HarnessError(f"alphapatch was imported from {res['module']}, not {SRC}")
        res["out_dir"] = spec["out_dir"]
        return res

    def count(self, label, ok):
        self.attempted += 1
        self.failed += not ok
        if not ok:
            print(f"FAILED: {label}")

    def run_pass(self, traced=False):
        res = self.child("pass", traced)
        for cmd in res["commands"]:
            self.count(f"{cmd['label']} exit {cmd['exit']}", cmd["exit"] == 0)
        try:
            rows = workloads.region_rows(res["out_dir"])
            res["checks"] = workloads.check_outputs(self.workload, res["out_dir"])
        except (OSError, KeyError, ValueError) as exc:  # missing or malformed outputs
            rows, res["checks"] = [], [("outputs readable", False, repr(exc))]
        for row in rows:
            label = f"verdict C={row['C']} [{row['alpha_lo']},{row['alpha_hi']}] {row['verdict']}"
            self.count(label, row["verdict"] != "indeterminate")
        for name, ok, detail in res["checks"]:
            self.count(f"{name} ({detail})", ok)
        self.passes.append(res)
        return res

    def micro(self):
        out = os.path.join(self.dir, "micro.json")
        scale = MICRO_SCALE.get(self.workload, 1.0)
        self._spawn([os.path.join(HERE, "micro.py"), "--seed", str(self.seed),
                     "--scale", str(scale), "--out", out], "micro")
        with open(out) as fh:
            return json.load(fh)

    def end_to_end(self, seconds):
        # half the set-up samples before the passes and half after; the
        # minimum is the set-up time free of the host's slow spells
        setup = [self.child("setup")["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
        start = time.monotonic()
        durations = []
        while True:
            t0 = time.monotonic()
            self.run_pass()
            durations.append(time.monotonic() - t0)
            next_end = time.monotonic() + statistics.median(durations)
            if next_end - start > seconds or next_end > self.deadline - 10.0:
                break
        setup += [self.child("setup")["setup_s"] for _ in range(SETUP_SAMPLES - len(setup))]
        med = lambda key: statistics.median(p[key] for p in self.passes)
        return {
            "wall_s": med("wall_s"),
            "cpu_s": med("cpu_s"),
            "setup_s": min(setup),
            "peak_rss_mb": med("peak_rss_mb"),
        }

    def per_layer(self):
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        ref = self.run_pass()
        traced = self.run_pass(traced=True)
        files = workloads.result_files(ref["out_dir"])
        same = files == workloads.result_files(traced["out_dir"]) and all(
            _read(os.path.join(ref["out_dir"], f)) == _read(os.path.join(traced["out_dir"], f))
            for f in files
        )
        self.count(f"traced outputs byte-identical ({len(files)} files)", same)
        metrics = dict(traced["layers"])
        metrics.update(self.micro())
        # pool utilisation of the untraced pass's prove-convexity commands:
        # their CPU time (the workers' included) over workers x their wall
        # time, both from the same pass; 0 where the pipeline is not used
        conv = [c for c in ref["commands"] if c["label"].startswith("prove-convexity")]
        workers = _workers(ref)
        metrics["pipeline.parallel_efficiency"] = (
            sum(c["cpu_s"] for c in conv) / (workers * sum(c["wall_s"] for c in conv))
            if conv else 0.0
        )
        metrics["cli.bytes_written"] = _tree_bytes(traced["out_dir"])
        metrics["enclosure_width_max"] = workloads.enclosure_width_max(traced["out_dir"])
        metrics["failed_share"] = self.failed / self.attempted
        return metrics


def _workers(res):
    """Pool size the pass's prove-convexity commands asked for (1 if none)."""
    return max(
        (int(c["argv"][c["argv"].index("--workers") + 1])
         for c in res["commands"] if "--workers" in c["argv"]),
        default=1,
    )


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _tree_bytes(path):
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def declared_units():
    """{metric: unit} as BENCHMARK.json declares them."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read BENCHMARK.json: {exc}") from exc
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def build():
    """Byte-compile the package so no timed spawn pays for compilation."""
    if not os.path.isfile(os.path.join(SRC, "alphapatch", "cli.py")):
        raise HarnessError(f"no alphapatch sources under {SRC}; run from the root of a checkout")
    if not compileall.compile_dir(os.path.join(SRC, "alphapatch"), quiet=1):
        raise HarnessError("alphapatch sources do not compile")


def main(argv=None):
    parser = argparse.ArgumentParser(description="alphapatch benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + (workloads.SMOKE,))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        units = declared_units()
        build()
        run = Run(args.workload, args.seed, args.trace)
        os.makedirs(run.dir, exist_ok=True)
        prov = provenance.collect(ROOT, args.seed)
        try:
            values = run.per_layer() if args.trace else run.end_to_end(args.seconds)
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    prov["loadavg_after"] = os.getloadavg()
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(values.items())},
    }
    record = dict(result, workload=args.workload, trace=args.trace, provenance=prov, passes=[
        {k: p[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "commands", "checks")}
        for p in run.passes
    ])
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}.json"
    with open(os.path.join(results_dir, name), "w") as fh:
        json.dump(record, fh, indent=1)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"passes: {len(run.passes)}; operations: {run.attempted} attempted, {run.failed} failed")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
