"""Workload definitions and output checks.

A workload is a list of ``alphapatch`` CLI commands.  The seed only permutes
the order of commands and of their repeated arguments, which changes no
verdict, enclosure or trajectory, so every seed runs the same mathematics.
The checks read the files the commands wrote and need nothing but the
standard library.
"""

from __future__ import annotations

import csv
import os
import random

WORKLOADS = ("prove-point", "prove-band", "simulate-ellipse")
# tiny inputs that exercise every metric path; used by selftest.py only
SMOKE = "smoke"

BAND_WORKERS = 2

# criterion-6 full-period oracle values of the alpha = 1 target integral
ORACLE_ALPHA_1 = {0.15: 1.199598610674645, 0.45: 3.567112440117504}
# criterion-8 bounds
AREA_DRIFT_MAX = 1e-4
SPEED_VARIATION_MAX = 1e-3

POINT_ALPHAS = {0.15: ["0:0", "0.02:0.02", "1.0:1.0", "1.96:1.96"], 0.45: ["0:0", "1.0:1.0"]}
BAND_ALPHAS = ["0.02:0.0201", "1.0:1.0001"]
ELLIPSE = ["shape=ellipse", "r1=1", "r2=3", "alpha=1", "n=512", "t_final=1", "snapshot_interval=0.5"]
SMOKE_SIM = ["shape=ellipse", "r1=1", "r2=3", "alpha=1", "n=64", "t_final=0.05", "snapshot_interval=0.025"]
REGION_FILES = ("positive.csv", "negative.csv", "indeterminate.csv")


def _convexity(rng, c, alphas, workers, out):
    argv = ["prove-convexity", "--c-phase", str(c)]
    for a in rng.sample(alphas, len(alphas)):
        argv += ["--alpha", a]
    return argv + ["--workers", str(workers), "--out-dir", out]


def _simulate(rng, pairs, out):
    argv = ["simulate"]
    for p in rng.sample(pairs, len(pairs)):
        argv += ["--set", p]
    return argv + ["--out-dir", out]


def commands(workload, seed, out_dir, traced):
    """[(label, argv)] for one pass.  A traced prove-band pass uses one worker
    so that every span lands in the traced process."""
    rng = random.Random(f"{workload}:{seed}")
    d = lambda name: os.path.join(out_dir, name)
    if workload == "prove-point":
        cmds = [
            ("prove-lemma", ["prove-lemma", "--out-dir", d("lemma")]),
            ("prove-rotation", ["prove-rotation", "--out-dir", d("rotation")]),
        ]
        cmds += [
            (f"prove-convexity C={c}", _convexity(rng, c, alphas, 1, d(f"c{c}")))
            for c, alphas in POINT_ALPHAS.items()
        ]
        return rng.sample(cmds, len(cmds))
    if workload == "prove-band":
        workers = 1 if traced else BAND_WORKERS
        return [("prove-convexity C=0.15", _convexity(rng, 0.15, BAND_ALPHAS, workers, d("c0.15")))]
    if workload == "simulate-ellipse":
        return [("simulate", _simulate(rng, ELLIPSE, d("sim")))]
    if workload == SMOKE:
        return [
            ("prove-convexity C=0.15", _convexity(rng, 0.15, ["0:0"], 1, d("c0.15"))),
            ("simulate", _simulate(rng, SMOKE_SIM, d("sim"))),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def region_rows(out_dir):
    """Every verdict row of every prove-convexity output directory."""
    rows = []
    for sub in sorted(os.listdir(out_dir)):
        base = os.path.join(out_dir, sub)
        if os.path.exists(os.path.join(base, "positive.csv")):
            for name in REGION_FILES:
                rows += _read_csv(os.path.join(base, name))
    return rows


def requested(workload):
    """{C: [(alpha_lo, alpha_hi, expected verdict)]} of a workload."""
    spec = {
        "prove-point": POINT_ALPHAS,
        "prove-band": {0.15: BAND_ALPHAS},
        SMOKE: {0.15: ["0:0"]},
    }.get(workload, {})
    out = {}
    for c, alphas in spec.items():
        for a in alphas:
            lo, hi = (float(x) for x in a.split(":"))
            # theorem bands: negative for small alpha, positive for large
            out.setdefault(c, []).append((lo, hi, "negative" if hi < 0.5 else "positive"))
    return out


def _tiles(rows, lo, hi):
    spans = sorted((float(r["alpha_lo"]), float(r["alpha_hi"])) for r in rows)
    if not spans or spans[0][0] != lo or spans[-1][1] != hi:
        return False
    return all(a[1] == b[0] for a, b in zip(spans, spans[1:]))


def check_outputs(workload, out_dir):
    """[(name, ok, detail)] for one pass's outputs."""
    checks = []
    rows = region_rows(out_dir)
    for c, wanted in requested(workload).items():
        c_rows = [r for r in rows if abs(float(r["C"]) - c) < 1e-9]
        claimed = 0
        for lo, hi, verdict in wanted:
            inside = [r for r in c_rows if lo <= float(r["alpha_lo"]) and float(r["alpha_hi"]) <= hi]
            claimed += len(inside)
            checks.append((f"tiling C={c} [{lo},{hi}]", _tiles(inside, lo, hi), len(inside)))
            signs = sorted({r["verdict"] for r in inside})
            checks.append((f"sign C={c} [{lo},{hi}]", signs == [verdict], signs))
            if lo <= 1.0 <= hi:
                want = ORACLE_ALPHA_1[c]
                cover = [r for r in inside if float(r["alpha_lo"]) <= 1.0 <= float(r["alpha_hi"])]
                ok = bool(cover) and all(
                    float(r["enc_lo"]) <= want <= float(r["enc_hi"]) for r in cover
                )
                checks.append((f"oracle C={c} alpha=1", ok, want))
        checks.append((f"no stray rows C={c}", claimed == len(c_rows), len(c_rows)))
    if workload == "prove-point":
        certs = _read_csv(os.path.join(out_dir, "lemma", "lemma_certificates.csv"))
        names = {r["name"] for r in certs}
        checks.append(("lemma 14/14 claims", len(names) == 14, len(names)))
        rot = _read_csv(os.path.join(out_dir, "rotation", "rotation_certificates.csv"))
        positive = sum(r["outcome"] == "positive" for r in rot)
        checks.append(("rotation 9/9 pairs", len(rot) == 9 and positive == 9, positive))
    if workload in ("simulate-ellipse", SMOKE):
        diags = _read_csv(os.path.join(out_dir, "sim", "diagnostics.csv"))
        checks.append(("simulate snapshots", len(diags) == 3, len(diags)))
    if workload == "simulate-ellipse":
        # criterion-8 bounds, stated for the resolved N = 512 ellipse
        areas = [float(d["area"]) for d in diags]
        drift = max(abs(a - areas[0]) / areas[0] for a in areas)
        speed = max(float(d["speed_variation"]) for d in diags)
        checks.append(("simulate area drift", drift <= AREA_DRIFT_MAX, drift))
        checks.append(("simulate speed variation", speed <= SPEED_VARIATION_MAX, speed))
    return checks


def result_files(out_dir):
    """Region, certificate and simulator files whose bytes define the result
    (manifests carry timestamps and are left out)."""
    found = []
    for root, _, files in os.walk(out_dir):
        for name in files:
            if name.endswith(".csv"):
                found.append(os.path.relpath(os.path.join(root, name), out_dir))
    return sorted(found)


def enclosure_width_max(out_dir):
    widths = [
        float(r["enc_hi"]) - float(r["enc_lo"]) for r in region_rows(out_dir) if r["enc_lo"]
    ]
    return max(widths, default=0.0)
