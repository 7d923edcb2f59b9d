"""Contract between the package and the benchmark in ``perfbench/``.

The traced benchmark pass rebinds package functions by module and name
(``perfbench/tracing.py``), and the quick tier calls leaf APIs directly
(``perfbench/micro.py``).  A rename that breaks either fails here rather
than in the benchmark run.
"""

import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import micro  # noqa: E402
import tracing  # noqa: E402

from alphapatch import cli  # noqa: E402

# rebound by name in the traced pass; the region writer and the queue are
# reached through cli, the integrand factory through pipeline
REQUIRED = {
    ("alphapatch.cli", "write_region_files"),
    ("alphapatch.cli", "run_queue"),
    ("alphapatch.pipeline", "make_kt_integrand"),
    ("alphapatch.cli", "validate_sign"),
    ("alphapatch.pipeline", "validate_sign"),
    ("alphapatch.integrands", "validate_sign"),
}


def test_tracer_installs_runs_and_uninstalls(tmp_path, capsys):
    tracer = tracing.Tracer("test")
    tracing.install(tracer)
    patched = list(tracer._patched)
    try:
        assert REQUIRED <= {(m.__name__, attr) for m, attr, _ in patched}
        code = cli.main(["prove-lemma", "--only", "d1:left", "--out-dir", str(tmp_path)])
        assert code == 0
    finally:
        tracer.uninstall()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, (module.__name__, attr)
    names = {span[1] for span in tracer.spans}
    assert {"cli.main", "cli.cmd_prove_lemma", "signcheck.validate_sign"} <= names
    metrics = tracing.rollup(tracer, wall_s=1.0)
    assert metrics["signcheck.evaluations"] > 0


def test_traced_convexity_counts_quadrature_cells(tmp_path, capsys):
    """The traced pass reads cells and the depth-cap flag from the result of
    every ``adaptive_integrate`` call that ``process`` makes; summed, the
    cells are the manifest's total."""
    tracer = tracing.Tracer("test")
    tracing.install(tracer)
    try:
        argv = ["prove-convexity", "--c-phase", "0.15", "--alpha", "0:0", "--workers", "1"]
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    quad = [s for s in tracer.spans if s[1] == "quadrature.adaptive_integrate"]
    assert quad
    for span in quad:
        assert set(span[5]) == {"cells", "cap_hit"}
        assert tracer.spans[span[4]][1] == "pipeline.process"
    metrics = tracing.rollup(tracer, wall_s=1.0)
    with open(tmp_path / "manifest.json") as fh:
        total = json.load(fh)["quadrature"]["total"]
    assert metrics["quadrature.cells"] == total["cells"] > 0
    assert metrics["quadrature.integrand_calls"] > 0


def test_micro_quick_tier_reports_declared_metrics():
    metrics = micro.run(1, 0.05)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(metrics) <= declared
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())


def test_traced_evolve_counts_rk_steps(monkeypatch):
    """The traced pass derives RK step counts from the spans inside
    ``evolve``: six ``velocity`` calls per attempted step, one
    ``arc_chord_min`` call up front and one per accepted step."""
    from alphapatch import simulator as sim

    counts = {"attempted": 0, "filtered": 0}
    step, floor = sim._step, sim._noise_floor_filter

    def counted_step(*args):
        counts["attempted"] += 1
        return step(*args)

    def counted_floor(*args):
        counts["filtered"] += 1  # once up front, then once per accepted step
        return floor(*args)

    monkeypatch.setattr(sim, "_step", counted_step)
    monkeypatch.setattr(sim, "_noise_floor_filter", counted_floor)
    cfg = sim.SimConfig(
        alpha=1.0, t_final=0.2, snapshot_interval=0.1, rk_abs_tol=1e-11, rk_rel_tol=1e-11
    )
    tracer = tracing.Tracer("test")
    tracing.install(tracer)
    try:
        sim.evolve(sim.ellipse_state(1.0, 3.0, 64), cfg)
    finally:
        tracer.uninstall()
    attempted, accepted = counts["attempted"], counts["filtered"] - 1
    assert 0 < accepted < attempted  # the run rejects at least one step
    names = [s[1] for s in tracer.spans]
    evolve_id = names.index("simulator.evolve")
    inside = [s[1] for s in tracer.spans if s[4] == evolve_id]
    assert inside.count("simulator.velocity") == 6 * attempted
    assert inside.count("simulator.arc_chord_min") == 1 + accepted
    metrics = tracing.rollup(tracer, wall_s=1.0)
    assert metrics["simulator.rk_steps_attempted"] == attempted
    assert metrics["simulator.rk_steps_accepted"] == accepted
