"""Seeded microbenchmarks of the leaf layers (the quick tier).

Usage: python3 perfbench/micro.py --seed N [--scale S] [--out FILE]

Times single operations of ``interval``, ``jets``, ``curves``,
``integrands``, ``quadrature.gl2_enclosure`` and ``simulator.velocity`` /
``arc_chord_min`` and prints one JSON object of metrics.  Each figure is the
median over repeats of the mean time per call over a seeded operand list.
Interval operands follow the acceptance suite's criterion-5 distribution;
integrand and GL2 cells are dyadic quadrature cells of [1/128, pi] at the
workloads' point alphas.  ``--scale`` shrinks operand lists and repeats
(the self-test uses a small scale).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import sys
import time
import tracemalloc

REGIME_ALPHAS = {"vortex": 0.0, "small_alpha": 0.02, "big_alpha": 1.0, "very_big_alpha": 1.96}


def _per_call(fn, operands, reps):
    """Median over ``reps`` of the mean seconds per call of ``fn(*args)``."""
    clock = time.perf_counter
    samples = []
    for _ in range(reps):
        t0 = clock()
        for args in operands:
            fn(*args)
        samples.append((clock() - t0) / len(operands))
    return statistics.median(samples)


def _usable(fn, operands, IntervalError):
    """Drop operands on which ``fn`` raises an interval-domain error."""
    kept = []
    for args in operands:
        try:
            fn(*args)
        except IntervalError:
            continue
        kept.append(args)
    return kept


def run(seed, scale=1.0):
    from alphapatch.interval import Interval, IntervalError
    from alphapatch.jets import Jet4
    from alphapatch.curves import Bump, lemma_poly
    from alphapatch.integrands import IntegrandSpec, Regime, make_kt_integrand, singular_residual
    from alphapatch.quadrature import gl2_enclosure
    from alphapatch import simulator as sim

    rng = random.Random(seed)
    n = lambda k: max(2, int(k * scale))
    reps = lambda k: max(1, int(round(k * min(1.0, 2 * scale))))
    metrics = {}

    def c5(positive=False):
        # criterion 5: centre U(-100, 100), radius |N(0, 1)| * 10^U{-10..1}
        while True:
            c = rng.uniform(-100, 100)
            w = abs(rng.gauss(0, 1.0)) * 10 ** rng.randint(-10, 1)
            x = Interval(c - w, c + w)
            if not positive or x.lo > 0.0:
                return x

    def jet(positive=False):
        return Jet4([c5(positive)] + [c5() * 0.01 for _ in range(4)])

    ops = {
        "add": (lambda x, y: x + y, lambda: (c5(), c5())),
        "mul": (lambda x, y: x * y, lambda: (c5(), c5())),
        "div": (lambda x, y: x / y, lambda: (c5(), c5())),
        "exp": (lambda x: x.exp(), lambda: (c5(),)),
        "log": (lambda x: x.log(), lambda: (c5(True),)),
        "sin": (lambda x: x.sin(), lambda: (c5(),)),
        "pow": (lambda x, p: x.pow(p), lambda: (c5(True), rng.uniform(-1.5, 1.5))),
    }
    for name, (fn, draw) in ops.items():
        operands = _usable(fn, [draw() for _ in range(n(2000))], IntervalError)
        metrics[f"interval.{name}_ns"] = _per_call(fn, operands, reps(7)) * 1e9

    jet_ops = {
        "mul": (lambda x, y: x * y, lambda: (jet(), jet())),
        "div": (lambda x, y: x / y, lambda: (jet(), jet())),
        "exp": (lambda x: x.exp(), lambda: (jet(),)),
        "sin_cos": (lambda x: x.sin_cos(), lambda: (jet(),)),
        "pow": (lambda x, p: x.pow(p), lambda: (jet(True), rng.uniform(-1.5, 1.5))),
    }
    for name, (fn, draw) in jet_ops.items():
        operands = _usable(fn, [draw() for _ in range(n(300))], IntervalError)
        metrics[f"jets.{name}_ns"] = _per_call(fn, operands, reps(5)) * 1e9

    phase = Interval.around(0.15)
    names = ["kc", "d1", "d2", "d3", "d4", "d5", "d6"]

    def poly_arg():
        lo = rng.uniform(-math.pi, math.pi)
        return (rng.choice(names), Interval(lo, lo + 10 ** rng.uniform(-10, -1)), phase)

    operands = [poly_arg() for _ in range(n(700))]
    metrics["curves.lemma_poly_us"] = _per_call(lemma_poly, operands, reps(5)) * 1e6

    def cell():
        # a dyadic cell of the adaptive quadrature over [1/128, pi]
        a0, b0 = 1.0 / 128.0, math.pi
        depth = rng.randint(0, 13)
        width = (b0 - a0) / 2**depth
        lo = a0 + rng.randrange(2**depth) * width
        return lo, lo + width

    curve = Bump(phase)
    for regime in Regime:
        alpha = REGIME_ALPHAS[regime.value]
        spec = IntegrandSpec.for_regime(regime, Interval(alpha), curve)
        f = make_kt_integrand(spec)
        nodes = []
        for a, b in (cell() for _ in range(n(40))):
            m, h = (Interval(a) + Interval(b)) * 0.5, (Interval(b) - Interval(a)) * 0.5
            nodes.append((m + h * (1.0 / math.sqrt(3.0)),))
        on_interval = _usable(f, nodes, IntervalError)
        on_jet = _usable(f, [(Jet4.variable(x),) for (x,) in nodes[: n(15)]], IntervalError)
        cells = _usable(
            lambda a, b: gl2_enclosure(f, a, b), [cell() for _ in range(n(10))], IntervalError
        )
        r = regime.value
        metrics[f"integrands.eval_interval_us.{r}"] = _per_call(f, on_interval, reps(3)) * 1e6
        metrics[f"integrands.eval_jet_us.{r}"] = _per_call(f, on_jet, reps(3)) * 1e6
        metrics[f"integrands.residual_ms.{r}"] = _per_call(singular_residual, [(spec,)], reps(5)) * 1e3
        metrics[f"quadrature.gl2_us.{r}"] = (
            _per_call(lambda a, b: gl2_enclosure(f, a, b), cells, reps(3)) * 1e6
        )

    cfg = sim.SimConfig(alpha=1.0)
    for size, k in ((256, 9), (512, 7), (1024, 5)):
        state = sim.ellipse_state(1.0, 3.0, size)
        sim.velocity(state, cfg)  # first call pays numpy's lazy set-up
        metrics[f"simulator.velocity_ms.n{size}"] = (
            _per_call(sim.velocity, [(state, cfg)], reps(k)) * 1e3
        )
    state = sim.ellipse_state(1.0, 3.0, 512)
    tracemalloc.start()
    sim.velocity(state, cfg)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    metrics["simulator.velocity_alloc_mb"] = peak / 2**20
    metrics["simulator.arc_chord_ms"] = _per_call(sim.arc_chord_min, [(state,)], reps(7)) * 1e3
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", help="also write the metrics to this file")
    args = parser.parse_args()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    metrics = run(args.seed, args.scale)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(metrics, fh)
    print(json.dumps(metrics, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
