"""In-memory span tracer installed by rebinding module attributes.

Nothing under ``src/`` knows about tracing: :func:`install` replaces public
functions of the ``alphapatch`` modules with wrappers that record a span
(name, start, end, parent, run id) per call, plus a few counters taken from
return values.  Leaf layers (``interval``, ``jets``, ``curves``) run millions
of calls per pass and are measured by ``micro.py`` instead.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

WRITERS = {
    "pipeline.write_region_files",
    "signcheck.write_certificate_csv",
    "cli.write_snapshots_csv",
    "cli.write_diagnostics_csv",
    "cli.write_manifest",
}


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [id, name, start_ns, end_ns, parent_id, attrs]
        self.stack = []
        self.counts = defaultdict(int)
        self._patched = []

    def wrap(self, fn, attrs=None):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), name, clock(), 0, stack[-1] if stack else None, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()
            if attrs is not None:
                rec[5] = attrs(result)
            return result

        return traced

    def patch(self, module, attr, replacement):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def current(self):
        return self.spans[self.stack[-1]][1] if self.stack else None

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "name": name, "start_ns": start,
                    "end_ns": end, "parent": parent, "attrs": attrs,
                }) + "\n")


def count_integrand(tracer, f, error):
    """``f`` wrapped to count its calls, and those that raise ``error``,
    made while ``quadrature.adaptive_integrate`` is the innermost span."""
    counts = tracer.counts

    def integrand(y):
        inside = tracer.current() == "quadrature.adaptive_integrate"
        counts["integrand_wrapped"] += 1
        counts["integrand_calls"] += inside
        try:
            return f(y)
        except error:
            counts["integrand_errors"] += inside
            raise

    return integrand


def wrapper_costs(calls=20000, reps=7):
    """Seconds a span wrapper and a counting integrand wrapper add to one call,
    timed in this process: the minimum over ``reps`` of ``calls`` wrapped
    calls of a no-op, less the minimum of as many bare calls."""

    def noop(y):
        return y

    def best(fn, tracer):
        times = []
        for _ in range(reps):
            del tracer.spans[1:]
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(None)
            times.append(time.perf_counter() - t0)
        return min(times) / calls

    tracer = Tracer("calibration")
    # one open span, so the integrand wrapper sees the quadrature as current
    tracer.spans.append([0, "quadrature.adaptive_integrate", 0, 0, None, None])
    tracer.stack.append(0)
    bare = best(noop, tracer)
    return {
        "span": max(best(tracer.wrap(noop), tracer) - bare, 0.0),
        "integrand": max(best(count_integrand(tracer, noop, ValueError), tracer) - bare, 0.0),
    }


def install(tracer):
    """Wrap the cell-level and coarser entry points of every traced layer."""
    from alphapatch import cli, integrands, pipeline, quadrature, signcheck, simulator
    from alphapatch.interval import IntervalError

    w = tracer.wrap
    for name in ("main", "cmd_prove_lemma", "cmd_prove_rotation", "cmd_prove_convexity",
                 "cmd_simulate", "write_snapshots_csv", "write_diagnostics_csv", "write_manifest"):
        tracer.patch(cli, name, w(getattr(cli, name)))
    write_regions = w(pipeline.write_region_files)
    write_certs = w(signcheck.write_certificate_csv)
    tracer.patch(cli, "write_region_files", write_regions)
    tracer.patch(pipeline, "write_region_files", write_regions)
    tracer.patch(cli, "write_certificate_csv", write_certs)

    sign = w(signcheck.validate_sign, lambda r: {"evaluations": r.evaluations})
    for module in (cli, pipeline, integrands):
        tracer.patch(module, "validate_sign", sign)
    tracer.patch(cli, "ellipse_rotation_check", w(integrands.ellipse_rotation_check))

    tracer.patch(cli, "run_queue", w(pipeline.run_queue, lambda rows: {"rows": len(rows)}))
    tracer.patch(pipeline, "process", w(pipeline.process))
    tracer.patch(pipeline, "singular_residual", w(integrands.singular_residual))
    tracer.patch(pipeline, "adaptive_integrate", w(
        quadrature.adaptive_integrate,
        lambda r: {"cells": r.subinterval_count, "cap_hit": r.max_depth_hit},
    ))

    make_integrand = pipeline.make_kt_integrand

    def counted_integrand(spec):
        return count_integrand(tracer, make_integrand(spec), IntervalError)

    tracer.patch(pipeline, "make_kt_integrand", counted_integrand)

    for name in ("evolve", "velocity", "arc_chord_min", "diagnostics"):
        tracer.patch(simulator, name, w(getattr(simulator, name)))


def rollup(tracer, wall_s):
    """Per-layer aggregates and self time per module from the recorded spans.

    ``trace.overhead_share`` is the wrapper time the pass carried (spans and
    wrapped integrand calls, each times its cost from :func:`wrapper_costs`)
    over the pass's ``wall_s`` less that time.
    """
    spans = tracer.spans
    dur = [(s[3] - s[2]) * 1e-9 for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[4] is not None:
            child[s[4]] += d
    self_s = defaultdict(float)
    total = defaultdict(float)
    calls = defaultdict(int)
    for s, d, c in zip(spans, dur, child):
        self_s[s[1].split(".")[0]] += d - c
        total[s[1]] += d
        calls[s[1]] += 1

    def named(name, parent=None):
        return [
            (s, d) for s, d in zip(spans, dur)
            if s[1] == name and (parent is None or (s[4] is not None and spans[s[4]][1] == parent))
        ]

    quad = named("quadrature.adaptive_integrate")
    cells = sum(s[5]["cells"] for s, _ in quad)
    quad_in_process = sum(d for _, d in named("quadrature.adaptive_integrate", "pipeline.process"))
    residual_in_process = sum(d for _, d in named("integrands.singular_residual", "pipeline.process"))
    velocity_in_evolve = len(named("simulator.velocity", "simulator.evolve"))
    chord_in_evolve = len(named("simulator.arc_chord_min", "simulator.evolve"))
    attempted = velocity_in_evolve // 6  # six RKF45 stages per attempted step
    accepted = max(chord_in_evolve - 1, 0)  # one check up front, then one per accepted step
    sets = calls["pipeline.process"]
    rows = sum(s[5]["rows"] for s, _ in named("pipeline.run_queue"))
    busy_s = total["quadrature.adaptive_integrate"]
    metrics = {
        "signcheck.evaluations": sum(s[5]["evaluations"] for s, _ in named("signcheck.validate_sign")),
        "signcheck.busy_ms": total["signcheck.validate_sign"] * 1e3,
        "quadrature.cells": cells,
        "quadrature.cap_hits": sum(bool(s[5]["cap_hit"]) for s, _ in quad),
        "quadrature.busy_s": busy_s,
        "quadrature.us_per_cell": busy_s * 1e6 / cells if cells else 0.0,
        "quadrature.integrand_calls": tracer.counts["integrand_calls"],
        "quadrature.integrand_errors": tracer.counts["integrand_errors"],
        "pipeline.process_s": total["pipeline.process"],
        "pipeline.sets_processed": sets,
        "pipeline.verdict_rows": rows,
        "pipeline.useful_ratio": rows / sets if sets else 0.0,
        "pipeline.overhead_s": total["pipeline.process"] - quad_in_process - residual_in_process,
        "simulator.evolve_s": total["simulator.evolve"],
        "simulator.velocity_calls": calls["simulator.velocity"],
        "simulator.rk_steps_attempted": attempted,
        "simulator.rk_steps_accepted": accepted,
        "simulator.rk_reject_share": 1.0 - accepted / attempted if attempted else 0.0,
        "simulator.diagnostics_ms": total["simulator.diagnostics"] * 1e3,
        "cli.write_ms": sum(total[n] for n in WRITERS) * 1e3,
    }
    costs = wrapper_costs()
    overhead_s = len(spans) * costs["span"] + tracer.counts["integrand_wrapped"] * costs["integrand"]
    metrics["trace.overhead_share"] = overhead_s / (wall_s - overhead_s)
    for module in ("cli", "pipeline", "quadrature", "integrands", "signcheck", "simulator"):
        metrics[f"trace.self_s.{module}"] = self_s[module]
    return metrics
