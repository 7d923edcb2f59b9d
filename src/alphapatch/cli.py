"""Command-line front end.

Four subcommands tie the certificates and the simulator together:

* ``prove-lemma``      -- the 14 polynomial sign tasks behind the hull bounds
* ``prove-rotation``   -- ellipse non-rotation positivity certificates
* ``prove-convexity``  -- the work-queue sign certification of the curvature
                          derivative over alpha ranges
* ``simulate``         -- the floating-point contour-dynamics runs

Every run writes a manifest (command, config hash, timestamps, outputs) so
results are reproducible and attributable; configs are flat ``key=value``
text both in files and on the command line, hashed canonically.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from datetime import datetime, timezone

from .interval import Interval, SignOutcome, PI
from .curves import lemma_poly
from .quadrature import Tolerance
from .signcheck import DEFAULT_MIN_WIDTH, SignTask, validate_sign, write_certificate_csv
from .integrands import WINDOW_HALF, ellipse_rotation_check
from .pipeline import (
    SPLIT_THRESHOLD,
    ParameterSet,
    run_queue,
    write_region_files,
    zone_fact_tasks,
)
from . import simulator as sim


def _utc_now():
    return datetime.now(timezone.utc).isoformat()


def config_hash(pairs):
    text = "\n".join(f"{k}={v}" for k, v in sorted(pairs.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_manifest(out_dir, command, pairs, outputs, started, **fields):
    """Write manifest.json; ``fields`` become further top-level keys."""
    manifest = {
        "command": command,
        "config_hash": config_hash(pairs),
        "config": dict(sorted(pairs.items())),
        "started": started,
        "finished": _utc_now(),
        "outputs": sorted(outputs),
        **fields,
    }
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return path


# ---------------------------------------------------------------------------
# prove-lemma
# ---------------------------------------------------------------------------


def lemma_tasks(min_width=DEFAULT_MIN_WIDTH):
    """The fourteen sign tasks: k_C > 0 on [-pi, pi] for both phases, and
    the alternating d_1..d_6 signs on the two endpoint zones."""
    full = Interval(-PI.hi, PI.hi)
    tasks = []
    for c in (0.15, 0.45):
        phase = Interval.around(c)
        tasks.append(
            (
                f"kC:{c}",
                SignTask(
                    lambda x, p=phase: lemma_poly("kc", x, p),
                    full,
                    min_width,
                    SignOutcome.ALL_POSITIVE,
                ),
            )
        )
    return tasks + zone_fact_tasks(min_width)


def cmd_prove_lemma(args):
    started = _utc_now()
    if not args.min_width > 0.0:
        print(f"--min-width {args.min_width} must be positive", file=sys.stderr)
        return 2
    tasks = lemma_tasks(args.min_width)
    if args.only:
        tasks = [(name, t) for name, t in tasks if name == args.only]
        if not tasks:
            print(f"no task named {args.only!r}", file=sys.stderr)
            return 2
    results = []
    failures = 0
    for name, task in tasks:
        res = validate_sign(task)
        ok = res.outcome == task.expected
        failures += not ok
        results.append((name, res))
        print(
            f"[{'PASS' if ok else 'FAIL'}] {name}: {res.outcome.value}"
            f" ({len(res.certificate)} subintervals)"
        )
    os.makedirs(args.out_dir, exist_ok=True)
    cert_path = os.path.join(args.out_dir, "lemma_certificates.csv")
    write_certificate_csv(cert_path, results)
    pairs = {"min_width": args.min_width, "only": args.only or ""}
    manifest = write_manifest(args.out_dir, "prove-lemma", pairs, [cert_path], started)
    print(f"certificates: {cert_path}\nmanifest: {manifest}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# prove-rotation
# ---------------------------------------------------------------------------


def cmd_prove_rotation(args):
    started = _utc_now()
    alphas = args.alpha or [0.5, 1.0, 1.5]
    ratios = args.axis_ratio or [0.1, 0.5, 0.9]
    bad = [f"alpha {a} outside (0, 2)" for a in alphas if not 0.0 < a < 2.0]
    bad += [f"axis ratio {r} outside (0, 1)" for r in ratios if not 0.0 < r < 1.0]
    if not 0.0 < args.delta < math.pi / 4:  # the interior [delta, pi/2 - delta] must exist
        bad.append(f"delta {args.delta} outside (0, pi/4)")
    if not args.min_width > 0.0:
        bad.append(f"min width {args.min_width} must be positive")
    if bad:
        print("; ".join(bad), file=sys.stderr)
        return 2
    failures = 0
    rows = []
    for a in alphas:
        for r in ratios:
            cert = ellipse_rotation_check(
                Interval.around(a), r, delta=args.delta, min_width=args.min_width
            )
            ok = cert.outcome == SignOutcome.ALL_POSITIVE
            failures += not ok
            n_sub = len(cert.interior.certificate) if cert.interior else 0
            rows.append([a, r, cert.outcome.value, n_sub])
            print(f"[{'PASS' if ok else 'FAIL'}] alpha={a} R={r}: {cert.outcome.value} ({n_sub} subintervals)")
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "rotation_certificates.csv")
    with open(path, "w") as fh:
        fh.write("alpha,axis_ratio,outcome,interior_subintervals\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    pairs = {
        "alphas": ",".join(map(str, alphas)),
        "ratios": ",".join(map(str, ratios)),
        "delta": args.delta,
        "min_width": args.min_width,
    }
    manifest = write_manifest(args.out_dir, "prove-rotation", pairs, [path], started)
    print(f"certificates: {path}\nmanifest: {manifest}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# prove-convexity
# ---------------------------------------------------------------------------


def _parse_alpha_interval(text):
    """``lo:hi``, ``lo,hi`` or a single value: the vortex point 0, or inside
    (0, 2) with lo <= hi.  No regime covers an interval [0, hi] with hi > 0."""
    parts = text.split(":" if ":" in text else ",")
    try:
        lo, hi = float(parts[0]), float(parts[-1])
        if len(parts) <= 2 and (lo == hi == 0.0 or 0.0 < lo <= hi < 2.0):
            return lo, hi
    except ValueError:
        pass
    raise ValueError(f"bad alpha interval {text!r}: want 0 or lo:hi with 0 < lo <= hi < 2")


def full_sweep_intervals(step):
    """Initial alpha intervals covering {0} and [1e-9, 2 - 1e-9]: the vortex
    point plus contiguous slices of width ``step``."""
    if not step > 0.0:
        raise ValueError(f"sweep step {step} must be positive")
    intervals = [(0.0, 0.0)]
    lo = 1e-9
    while lo < 2.0 - 1e-9:
        hi = min(lo + step, 2.0 - 1e-9)
        if not lo < hi:
            raise ValueError(f"sweep step {step} does not advance past alpha {lo}")
        intervals.append((lo, hi))
        lo = hi
    return intervals


def _quadrature_work(rows):
    """Per verdict row and in total: accepted quadrature cells, order-4 jet
    evaluations, whether the depth cap was hit, batches of lanes, cells
    evaluated ahead of the walk but never reached, and cells accepted by the
    alpha-limited stop (for the manifest)."""
    quads = [v.quadrature for v in rows]
    sets = [
        {
            "c_phase": v.ps.c_phase.mid(),
            "alpha_lo": v.ps.alpha.lo,
            "alpha_hi": v.ps.alpha.hi,
            "cells": q.subinterval_count,
            "jet_evaluations": q.jet_evaluations,
            "max_depth_hit": q.max_depth_hit,
            "batches": q.batches,
            "discarded_cells": q.discarded_cells,
            "alpha_limited_cells": q.alpha_limited_cells,
        }
        for v, q in zip(rows, quads)
    ]
    total = {
        "cells": sum(q.subinterval_count for q in quads),
        "jet_evaluations": sum(q.jet_evaluations for q in quads),
        "max_depth_hit_sets": sum(q.max_depth_hit for q in quads),
        "batches": sum(q.batches for q in quads),
        "discarded_cells": sum(q.discarded_cells for q in quads),
        "alpha_limited_cells": sum(q.alpha_limited_cells for q in quads),
    }
    return {"sets": sets, "total": total}


def cmd_prove_convexity(args):
    started = _utc_now()
    try:
        tol = Tolerance(args.abs_tol, args.rel_tol, args.max_depth)
        if args.workers < 1:
            raise ValueError(f"--workers {args.workers} must be at least 1")
        if not 0.0 < args.split_threshold < math.inf:
            raise ValueError(f"--split-threshold {args.split_threshold} must be positive and finite")
        if args.full_sweep:
            intervals = full_sweep_intervals(args.sweep_step)
        else:
            intervals = [_parse_alpha_interval(t) for t in (args.alpha or [])]
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if not intervals:
        print("no alpha intervals requested", file=sys.stderr)
        return 2
    initial = [ParameterSet.for_phase(lo, hi, args.c_phase, tol=tol) for lo, hi in intervals]
    rows = run_queue(initial, split_threshold=args.split_threshold, workers=args.workers)
    paths = write_region_files(rows, args.out_dir)
    unresolved = [
        v
        for v in rows
        if v.outcome == SignOutcome.INDETERMINATE
        and v.ps.alpha.width() > args.split_threshold
    ]
    for v in rows:
        a = v.ps.alpha
        if v.outcome == SignOutcome.ALL_POSITIVE:
            note = "curvature minimum rises: jump +2pi loses convexity backward, -2pi forward"
        elif v.outcome == SignOutcome.ALL_NEGATIVE:
            note = "curvature minimum falls: jump +2pi loses convexity forward, -2pi backward"
        else:
            note = "unclassified"
        print(f"C={args.c_phase} alpha=[{a.lo:.17g},{a.hi:.17g}]: {v.outcome.value} ({note})")
    pairs = {
        "c_phase": args.c_phase,
        "alphas": ";".join(f"{lo}:{hi}" for lo, hi in intervals),
        "abs_tol": args.abs_tol,
        "rel_tol": args.rel_tol,
        "max_depth": args.max_depth,
        "split_threshold": args.split_threshold,
        "workers": args.workers,
        "full_sweep": args.full_sweep,
    }
    manifest = write_manifest(
        args.out_dir,
        "prove-convexity",
        pairs,
        list(p for p in paths.values()),
        started,
        quadrature=_quadrature_work(rows),
    )
    print(f"manifest: {manifest}")
    return 1 if unresolved else 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

# config keys passed through to SimConfig, defaulting to its own defaults
_SOLVER_KEYS = (
    "jump",
    "rk_abs_tol",
    "rk_rel_tol",
    "t_final",
    "snapshot_interval",
    "arc_chord_factor",
)

_SIM_DEFAULTS = {
    "shape": "ellipse",
    "r1": 1.0,
    "r2": 3.0,
    "radius": 1.0,
    "c_phase": 0.15,
    "n": 512,
    "alpha": 1.0,
    **{key: getattr(sim.SimConfig, key) for key in _SOLVER_KEYS},
}


def load_sim_config(path=None, overrides=()):
    pairs = dict(_SIM_DEFAULTS)
    if path:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("=")
                pairs[key.strip()] = value.strip()
    for text in overrides:
        key, _, value = text.partition("=")
        pairs[key.strip()] = value.strip()
    typed = {}
    for key, default in _SIM_DEFAULTS.items():
        raw = pairs[key]
        if isinstance(default, str):
            typed[key] = str(raw)
        elif isinstance(default, int) and not isinstance(default, bool):
            value = float(raw)
            if not value.is_integer():
                raise ValueError(f"{key} {raw} must be a whole number")
            typed[key] = int(value)
        else:
            typed[key] = float(raw)
    unknown = set(pairs) - set(_SIM_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return typed


def _initial_state(cfgmap):
    shape = cfgmap["shape"]
    if shape == "ellipse":
        return sim.ellipse_state(cfgmap["r1"], cfgmap["r2"], cfgmap["n"])
    if shape == "circle":
        return sim.circle_state(cfgmap["radius"], cfgmap["n"])
    if shape == "bump":
        return sim.bump_state(cfgmap["c_phase"], cfgmap["n"])
    raise ValueError(f"unknown shape {shape!r}")


def write_snapshots_csv(fh, snapshots):
    """Add the snapshots' rows to the open file fh, after the header if fh
    is still empty."""
    if fh.tell() == 0:
        fh.write("t,x_index,z1,z2\n")
    for snap in snapshots:
        for i, (z1, z2) in enumerate(snap.points):
            fh.write(f"{snap.time:.10g},{i},{float(z1)!r},{float(z2)!r}\n")


def write_diagnostics_csv(fh, diags):
    """As write_snapshots_csv, one row per Diagnostics."""
    if fh.tell() == 0:
        fh.write("t,min_curvature,area,arc_chord_min,speed_variation\n")
    for d in diags:
        fh.write(
            f"{d.time:.10g},{d.min_curvature!r},{d.area!r},"
            f"{d.arc_chord_min!r},{d.speed_variation!r}\n"
        )


def cmd_simulate(args):
    started = _utc_now()
    try:
        cfgmap = load_sim_config(args.config, args.set or [])
        state = _initial_state(cfgmap)
        cfg = sim.SimConfig(alpha=cfgmap["alpha"], **{key: cfgmap[key] for key in _SOLVER_KEYS})
    except (OSError, ValueError) as exc:
        print(exc, file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    snap_path = os.path.join(args.out_dir, "snapshots.csv")
    diag_path = os.path.join(args.out_dir, "diagnostics.csv")
    diags = []
    halted = None
    with open(snap_path, "w") as snap_fh, open(diag_path, "w") as diag_fh:

        def record(snap, arc_chord):
            # each snapshot is on disk once evolve hands it over, so a run
            # that halts, fails or is interrupted keeps every snapshot reached
            diags.append(sim.diagnostics(snap, arc_chord))
            write_snapshots_csv(snap_fh, [snap])
            write_diagnostics_csv(diag_fh, diags[-1:])
            snap_fh.flush()
            diag_fh.flush()

        try:
            sim.evolve(state, cfg, on_snapshot=record)
        except (sim.ArcChordCollapse, sim.StepSizeUnderflow) as exc:
            halted = exc
    loss = next((d.time for d in diags if d.min_curvature < 0.0), None)
    if loss is not None:
        print(f"convexity lost by t = {loss:.6g}")
    else:
        print("no convexity loss observed")
    halt = None
    if halted is not None:
        halt = {"reason": type(halted).__name__, "time": halted.time, "message": str(halted)}
    manifest = write_manifest(
        args.out_dir, "simulate", cfgmap, [snap_path, diag_path], started, halt=halt
    )
    print(f"snapshots: {snap_path}\ndiagnostics: {diag_path}\nmanifest: {manifest}")
    if halted is not None:
        print(f"halted early: {halted}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="alphapatch",
        description="Validated certificates and simulations for alpha-patch contours",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove-lemma", help="certify the 14 polynomial sign claims")
    p.add_argument("--min-width", type=float, default=DEFAULT_MIN_WIDTH)
    p.add_argument("--only", help="run a single task, e.g. kC:0.45")
    p.add_argument("--out-dir", default="out/lemma")
    p.set_defaults(fn=cmd_prove_lemma)

    p = sub.add_parser("prove-rotation", help="certify ellipse non-rotation positivity")
    p.add_argument("--alpha", type=float, action="append")
    p.add_argument("--axis-ratio", type=float, action="append")
    p.add_argument("--delta", type=float, default=WINDOW_HALF)
    p.add_argument("--min-width", type=float, default=DEFAULT_MIN_WIDTH)
    p.add_argument("--out-dir", default="out/rotation")
    p.set_defaults(fn=cmd_prove_rotation)

    p = sub.add_parser("prove-convexity", help="certify curvature-derivative signs")
    p.add_argument("--c-phase", type=float, default=0.15, choices=[0.15, 0.45])
    p.add_argument("--alpha", action="append", help="alpha interval lo:hi (repeatable)")
    p.add_argument("--abs-tol", type=float, default=Tolerance.abs_tol)
    p.add_argument("--rel-tol", type=float, default=Tolerance.rel_tol)
    p.add_argument("--max-depth", type=int, default=Tolerance.max_depth)
    p.add_argument("--split-threshold", type=float, default=SPLIT_THRESHOLD)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.add_argument("--full-sweep", action="store_true", help="cover {0} and [1e-9, 2-1e-9] (long)")
    p.add_argument("--sweep-step", type=float, default=0.01)
    p.add_argument("--out-dir", default="out/convexity")
    p.set_defaults(fn=cmd_prove_convexity)

    p = sub.add_parser("simulate", help="run the contour-dynamics simulator")
    p.add_argument("config", nargs="?", help="flat key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out-dir", default="out/simulate")
    p.set_defaults(fn=cmd_simulate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.time()
    code = args.fn(args)
    print(f"done in {time.time() - t0:.1f}s (exit {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())
