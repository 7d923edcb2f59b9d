"""One pass of a workload in a fresh interpreter.

Usage: child.py SPEC_JSON SPAWNED.  The spec names the workload, seed, mode
("setup" or "pass"), output directory and result path; SPAWNED is the
parent's ``time.monotonic()`` just before it started this process.  Set-up
time runs from that instant until ``alphapatch.cli`` is imported and the
pass's inputs are built.  The result is written as JSON.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback


def _cpu():
    """User plus system CPU seconds of this process and its waited children."""
    return sum(
        u.ru_utime + u.ru_stime
        for u in (resource.getrusage(resource.RUSAGE_SELF),
                  resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def main(spec_path, spawned):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import alphapatch.cli as cli
    import workloads

    cmds = workloads.commands(spec["workload"], spec["seed"], spec["out_dir"], spec["trace"])
    setup_s = time.monotonic() - spawned
    result = {"setup_s": setup_s, "module": cli.__file__}
    if spec["mode"] == "pass":
        tracer = None
        if spec["trace"]:
            import tracing

            tracer = tracing.Tracer(spec["run_id"])
            tracing.install(tracer)
        cpu0 = _cpu()
        t0 = time.perf_counter()
        runs = []
        with open(spec["log"], "w") as log, contextlib.redirect_stdout(log):
            for label, argv in cmds:
                tc, cc = time.perf_counter(), _cpu()
                try:
                    code = cli.main(argv)
                except Exception:  # a crashing command is a failed operation
                    traceback.print_exc(file=log)
                    code = "exception"
                runs.append({"label": label, "argv": argv, "exit": code,
                             "wall_s": time.perf_counter() - tc, "cpu_s": _cpu() - cc})
        wall = time.perf_counter() - t0
        cpu = _cpu() - cpu0
        rss = (resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        result.update(
            wall_s=wall,
            cpu_s=cpu,
            # ru_maxrss is in KiB on Linux; pool workers are waited children
            peak_rss_mb=max(rss) / 1024.0,
            commands=runs,
        )
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spec["trace_path"])
            result["layers"] = tracing.rollup(tracer, wall)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
