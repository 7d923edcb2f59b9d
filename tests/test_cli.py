import csv
import hashlib
import json
import math
import os

import pytest

from alphapatch import simulator as sim
from alphapatch.cli import main, config_hash, load_sim_config, lemma_tasks, write_snapshots_csv


def test_lemma_task_count():
    tasks = lemma_tasks()
    assert len(tasks) == 14
    names = [name for name, _ in tasks]
    assert "kC:0.15" in names and "kC:0.45" in names
    assert "d6:right" in names


def test_prove_lemma_single_task(tmp_path, capsys):
    code = main(["prove-lemma", "--only", "kC:0.45", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] kC:0.45" in out
    cert = tmp_path / "lemma_certificates.csv"
    assert cert.exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "prove-lemma"
    assert str(cert) in manifest["outputs"]


def test_prove_lemma_coarse_width_fails(tmp_path, capsys):
    code = main(["prove-lemma", "--only", "d6:right", "--min-width", "0.1", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out


def test_prove_lemma_unknown_task(tmp_path, capsys):
    code = main(["prove-lemma", "--only", "nope", "--out-dir", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--min-width", "0"],
        ["--min-width", "-1"],
        ["--min-width", "nan"],
        ["--only", "kC:0.15", "--min-width", "0"],
    ],
)
def test_prove_lemma_rejects_bad_input(tmp_path, capsys, monkeypatch, flags):
    """One line on stderr and exit 2, before any task is certified."""
    import alphapatch.cli as cli

    monkeypatch.setattr(cli, "validate_sign", lambda *a, **k: pytest.fail("work started"))
    out_dir = tmp_path / "out"
    assert main(["prove-lemma", *flags, "--out-dir", str(out_dir)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out_dir.exists()


def test_prove_rotation_single_pair(tmp_path, capsys):
    code = main(
        [
            "prove-rotation",
            "--alpha", "1.0",
            "--axis-ratio", "0.5",
            "--out-dir", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] alpha=1.0 R=0.5" in out
    rows = (tmp_path / "rotation_certificates.csv").read_text().strip().splitlines()
    assert rows[0] == "alpha,axis_ratio,outcome,interior_subintervals"
    assert rows[1].startswith("1.0,0.5,positive")


# sha256 of the certificate file of each default certificate run
_CERTIFICATE_DIGESTS = {
    "prove-lemma": ("lemma_certificates.csv", "e57f852621f6a706573bc2191c4296c0343e398e1d4f16334e1b42ad48a1e98e"),
    "prove-rotation": (
        "rotation_certificates.csv",
        "1c24c1abd70ed5da24212f6c0c7c9d0c09e363b5e51173952891d6cdf8cecb20",
    ),
}


@pytest.mark.parametrize("command", list(_CERTIFICATE_DIGESTS))
def test_certificate_csv_bytes(tmp_path, capsys, command):
    """The default lemma and rotation runs write these bytes exactly."""
    name, digest = _CERTIFICATE_DIGESTS[command]
    assert main([command, "--out-dir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# sha256 of the region files of the prove-point benchmark's two
# prove-convexity commands, per phase: (alphas, positive, negative,
# indeterminate)
_REGION_DIGESTS = {
    "0.15": (
        ["0:0", "0.02:0.02", "1.0:1.0", "1.96:1.96"],
        "ce2248293fd74679d2d98bf18a98e3ea2c2011604bf8ee3b474850f73cce1f2b",
        "e833ca92864533b6609b4ab2d32e1b974759d0925facd1a526dc96d39948d209",
        "7bf2477c3ba46880a9764d5c9dd0d33b1bf8a6f6b10f3a04c0def981b2e22d75",
    ),
    "0.45": (
        ["0:0", "1.0:1.0"],
        "8e532a23d484b377832d997ac263462c24142f51b91c3a5f4f84615f105b02ab",
        "fa49711a8ddcf3c873d00c11cafe7cc2835951dc1dbbd102a40860d84215ba11",
        "7bf2477c3ba46880a9764d5c9dd0d33b1bf8a6f6b10f3a04c0def981b2e22d75",
    ),
}


@pytest.mark.parametrize("c_phase", list(_REGION_DIGESTS))
def test_region_csv_bytes(tmp_path, capsys, c_phase):
    """The point sets of each phase write these region files exactly; the
    alpha = 1.96 row reads big_alpha."""
    alphas, *digests = _REGION_DIGESTS[c_phase]
    argv = ["prove-convexity", "--c-phase", c_phase]
    for a in alphas:
        argv += ["--alpha", a]
    assert main([*argv, "--workers", "1", "--out-dir", str(tmp_path)]) == 0
    for name, digest in zip(("positive.csv", "negative.csv", "indeterminate.csv"), digests):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_prove_rotation_rejects_bad_alpha(tmp_path, capsys):
    code = main(["prove-rotation", "--alpha", "2.5", "--out-dir", str(tmp_path)])
    assert code == 2


def test_prove_convexity_vortex(tmp_path, capsys):
    code = main(
        [
            "prove-convexity",
            "--c-phase", "0.15",
            "--alpha", "0:0",
            "--workers", "1",
            "--out-dir", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "negative" in out
    assert "jump" in out  # the +-2pi interpretation line
    with open(tmp_path / "negative.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2
    assert rows[1][3] == "vortex"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["c_phase"] == 0.15
    work = manifest["quadrature"]
    (row,) = work["sets"]
    assert (row["alpha_lo"], row["alpha_hi"]) == (0.0, 0.0)
    assert row["cells"] > 0 and row["jet_evaluations"] >= row["cells"]
    assert row["max_depth_hit"] is False
    assert row["batches"] > 0 and row["discarded_cells"] >= 0
    assert row["alpha_limited_cells"] == 0
    assert work["total"] == {
        "cells": row["cells"],
        "jet_evaluations": row["jet_evaluations"],
        "max_depth_hit_sets": 0,
        "batches": row["batches"],
        "discarded_cells": row["discarded_cells"],
        "alpha_limited_cells": 0,
    }


def test_verdict_line_alpha_round_trips(tmp_path, capsys):
    """The printed alpha endpoints parse back to the region row's: at 9
    digits [1.0, 1.0000000001] would read [1,1]."""
    code = main(
        ["prove-convexity", "--alpha", "1.0:1.0000000001", "--workers", "1", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    (line,) = [text for text in capsys.readouterr().out.splitlines() if " alpha=[" in text]
    printed = line.split("alpha=[", 1)[1].split("]", 1)[0].split(",")
    with open(tmp_path / "positive.csv") as fh:
        (row,) = list(csv.DictReader(fh))
    assert [float(x) for x in printed] == [float(row["alpha_lo"]), float(row["alpha_hi"])]
    assert float(printed[1]) == 1.0000000001


def test_prove_convexity_requires_alpha(tmp_path):
    assert main(["prove-convexity", "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--alpha", "0:0", "--abs-tol", "0"],
        ["--alpha", "0:0", "--rel-tol", "-1"],
        ["--alpha", "0:0", "--max-depth", "0"],
        ["--full-sweep", "--sweep-step", "0"],
        ["--alpha", "1.0:0.5"],
        ["--alpha", "x:1"],
        ["--alpha", "0.1:0.2:0.3"],
        ["--alpha", "1.5:2.5"],
        ["--alpha=-0.5:0"],
        ["--alpha", "0:0.01"],
        ["--alpha", "0:0", "--workers", "0"],
        ["--alpha", "0:0", "--workers", "-3"],
        ["--alpha", "0:0", "--split-threshold", "nan"],
        ["--alpha", "0:0", "--split-threshold", "0"],
        ["--alpha", "0:0", "--split-threshold", "-1"],
        ["--alpha", "0:0", "--abs-tol", "inf"],
        ["--alpha", "0:0", "--rel-tol", "inf"],
        ["--full-sweep", "--sweep-step", "1e-300"],
        ["--alpha", "0:0", "--split-threshold", "inf"],
    ],
)
def test_prove_convexity_rejects_bad_input(tmp_path, capsys, monkeypatch, flags):
    """One line on stderr and exit 2, before any set is processed."""
    import alphapatch.cli as cli

    monkeypatch.setattr(cli, "run_queue", lambda *a, **k: pytest.fail("work started"))
    out_dir = tmp_path / "out"
    assert main(["prove-convexity", *flags, "--out-dir", str(out_dir)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--axis-ratio", "1.5"],
        ["--axis-ratio", "0"],
        ["--alpha", "1.0", "--alpha", "3"],
        ["--alpha", "0", "--axis-ratio", "-0.5"],
        ["--alpha", "nan"],
        ["--delta", "1"],
        ["--delta", "0"],
        ["--min-width", "0"],
        ["--min-width", "-1"],
        ["--min-width", "nan"],
    ],
)
def test_prove_rotation_rejects_bad_input(tmp_path, capsys, monkeypatch, flags):
    """One line on stderr and exit 2, before any pair is certified."""
    import alphapatch.cli as cli

    monkeypatch.setattr(cli, "ellipse_rotation_check", lambda *a, **k: pytest.fail("work started"))
    out_dir = tmp_path / "out"
    assert main(["prove-rotation", *flags, "--out-dir", str(out_dir)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "config",
    [
        ["--set", "n=100"],
        ["--set", "n=inf"],
        ["--set", "alpha=2.5"],
        ["--set", "colour=red"],
        ["--set", "shape=square"],
        ["--set", "t_final=-1"],
        ["--set", "t_final=0"],
        ["--set", "snapshot_interval=0"],
        ["--set", "rk_abs_tol=nan"],
        ["--set", "arc_chord_factor=2"],
        ["--set", "arc_chord_factor=1"],
        ["--set", "arc_chord_factor=0"],
        ["--set", "arc_chord_factor=nan"],
        ["no/such/dir/run.cfg"],
        ["--set", "jump=nan"],
        ["--set", "jump=-inf"],
        ["--set", "r1=nan"],
        ["--set", "r1=0"],
        ["--set", "r2=inf"],
        ["--set", "r2=-3"],
        ["--set", "shape=circle", "--set", "radius=0"],
        ["--set", "shape=circle", "--set", "radius=nan"],
        ["--set", "shape=bump", "--set", "c_phase=nan"],
        ["--set", "t_final=inf"],
        ["--set", "filter_order=8"],
        ["--set", "n=64.5"],
        ["--set", "n=131072"],
        ["--set", "n=1099511627776"],
        ["--set", "r1=1e308"],
        ["--set", "r2=1e308"],
        ["--set", "rk_abs_tol=inf"],
        ["--set", "rk_rel_tol=inf"],
    ],
)
def test_simulate_rejects_bad_config(tmp_path, capsys, monkeypatch, config):
    """One line on stderr and exit 2, before the run starts or any file is
    written."""
    monkeypatch.setattr(sim, "evolve", lambda *a, **k: pytest.fail("work started"))
    out_dir = tmp_path / "out"
    assert main(["simulate", "--set", "n=64", *config, "--out-dir", str(out_dir)]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not out_dir.exists()


def test_simulate_circle(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--set", "shape=circle",
            "--set", "n=64",
            "--set", "alpha=1.0",
            "--set", "t_final=0.2",
            "--set", "snapshot_interval=0.1",
            "--out-dir", str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "no convexity loss" in out
    with open(tmp_path / "diagnostics.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "min_curvature", "area", "arc_chord_min", "speed_variation"]
    assert len(rows) >= 3
    area = float(rows[-1][2])
    assert abs(area - math.pi) < 1e-6
    with open(tmp_path / "snapshots.csv") as fh:
        header = fh.readline().strip()
    assert header == "t,x_index,z1,z2"


def test_snapshots_csv_round_trips_points(tmp_path):
    snaps = [sim.ellipse_state(1.0, 3.0, 64), sim.bump_state(0.15, 64)]
    snaps[1].time = 0.5
    path = tmp_path / "snapshots.csv"
    with open(path, "w") as fh:
        write_snapshots_csv(fh, snaps)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 64
    for k, snap in enumerate(snaps):
        mine = rows[64 * k : 64 * (k + 1)]
        assert [float(r["t"]) for r in mine] == [snap.time] * 64
        got = [(float(r["z1"]), float(r["z2"])) for r in mine]
        assert got == [tuple(p) for p in snap.points.tolist()]


def test_simulate_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("shape=circle\nn=64\nalpha=0.5\nt_final=0.1\nsnapshot_interval=0.1\n")
    code = main(["simulate", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["alpha"] == 0.5
    assert manifest["config_hash"] == config_hash(manifest["config"])
    assert manifest["halt"] is None


def test_simulate_halt_keeps_history(tmp_path, capsys, monkeypatch):
    def halting_evolve(state, cfg, on_snapshot=None):
        for t in (0.0, 0.1):
            snap = sim.SimState(state.points, t)
            on_snapshot(snap, sim.arc_chord_min(snap))
        raise sim.ArcChordCollapse(0.15, 1e-6)

    monkeypatch.setattr(sim, "evolve", halting_evolve)
    code = main(["simulate", "--set", "shape=circle", "--set", "n=64", "--out-dir", str(tmp_path)])
    assert code == 1
    assert "halted early" in capsys.readouterr().err
    with open(tmp_path / "diagnostics.csv") as fh:
        rows = list(csv.reader(fh))
    assert [float(r[0]) for r in rows[1:]] == [0.0, 0.1]
    with open(tmp_path / "snapshots.csv") as fh:
        snap_rows = list(csv.reader(fh))[1:]
    assert [float(r[0]) for r in snap_rows] == [0.0] * 64 + [0.1] * 64
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["halt"]["reason"] == "ArcChordCollapse"
    assert manifest["halt"]["time"] == 0.15


def test_simulate_writes_each_snapshot_when_it_is_taken(tmp_path, monkeypatch):
    """An interrupted run leaves the header and every snapshot reached
    before the interrupt in both files."""
    def interrupted_evolve(state, cfg, on_snapshot=None):
        snap = sim.SimState(state.points, 0.0)
        on_snapshot(snap, sim.arc_chord_min(snap))
        raise KeyboardInterrupt

    monkeypatch.setattr(sim, "evolve", interrupted_evolve)
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--set", "shape=circle", "--set", "n=64", "--out-dir", str(tmp_path)])
    state = sim.circle_state(1.0, 64)
    with open(tmp_path / "snapshots.csv") as fh:
        snap_rows = list(csv.reader(fh))
    assert snap_rows[0] == ["t", "x_index", "z1", "z2"]
    assert [(float(r[2]), float(r[3])) for r in snap_rows[1:]] == [tuple(p) for p in state.points.tolist()]
    with open(tmp_path / "diagnostics.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "min_curvature", "area", "arc_chord_min", "speed_variation"]
    assert len(rows) == 2
    assert float(rows[1][3]) == sim.diagnostics(state).arc_chord_min
    assert not (tmp_path / "manifest.json").exists()


def test_every_solver_setting_is_a_config_key():
    """No SimConfig field is out of reach of a simulate config."""
    from dataclasses import fields

    from alphapatch.cli import _SOLVER_KEYS

    settable = {f.name for f in fields(sim.SimConfig)} - {"alpha"}
    assert settable == set(_SOLVER_KEYS)


def test_sim_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("shapee=circle\n")
    with pytest.raises(ValueError):
        load_sim_config(str(cfg))


def test_config_hash_stable():
    pairs = {"a": 1, "b": "x"}
    assert config_hash(pairs) == config_hash({"b": "x", "a": 1})
    assert config_hash(pairs) != config_hash({"a": 2, "b": "x"})


def test_full_sweep_tiling():
    from alphapatch.cli import full_sweep_intervals

    tiles = full_sweep_intervals(0.25)
    assert tiles[0] == (0.0, 0.0)
    assert tiles[1][0] > 0.0
    assert tiles[-1][1] < 2.0
    for (_, ha), (lb, _) in zip(tiles[1:], tiles[2:]):
        assert ha == lb
    assert sum(hi - lo for lo, hi in tiles) > 1.99


def test_full_sweep_rejects_a_step_that_does_not_advance():
    """1e-9 + 1e-300 rounds back to 1e-9, so the slices would repeat forever."""
    from alphapatch.cli import full_sweep_intervals

    with pytest.raises(ValueError, match="does not advance"):
        full_sweep_intervals(1e-300)
