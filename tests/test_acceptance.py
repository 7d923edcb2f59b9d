"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  The convexity probes are computed once in a session
fixture and shared between the sign criterion and the cross-validation
criterion.
"""

import math
import random
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from mpmath import mp, mpf

from alphapatch.interval import Interval, SignOutcome
from alphapatch.jets import Jet4
from alphapatch.curves import EPS_ZONE, z1_derivs
from alphapatch.quadrature import Tolerance, adaptive_integrate
from alphapatch.integrands import ellipse_rotation_check
from alphapatch.pipeline import ParameterSet, run_queue
from alphapatch.cli import lemma_tasks
from alphapatch.signcheck import validate_sign
from alphapatch import simulator as sim

from quad_cases import CASES

mp.dps = 40

PROBES = [
    (0.15, 0.0, 0.0, "negative"),
    (0.15, 0.02, 0.0201, "negative"),
    (0.15, 0.05, 0.0501, "negative"),
    (0.15, 0.5, 0.5001, "positive"),
    (0.15, 1.0, 1.0001, "positive"),
    (0.15, 1.96, 1.9601, "positive"),
    (0.45, 0.0, 0.0, "negative"),
    (0.45, 1.0, 1.0001, "positive"),
]


def _run_probe(args):
    c, alo, ahi = args
    t0 = time.time()
    rows = run_queue([ParameterSet.for_phase(alo, ahi, c)], split_threshold=5e-6)
    elapsed = time.time() - t0
    return (
        c,
        alo,
        ahi,
        elapsed,
        [(v.ps.alpha.lo, v.ps.alpha.hi, v.outcome.value, v.enclosure.lo, v.enclosure.hi) for v in rows],
    )


@pytest.fixture(scope="session")
def probe_results():
    jobs = [(c, alo, ahi) for c, alo, ahi, _ in PROBES]
    results = {}
    with ProcessPoolExecutor(max_workers=2) as pool:
        for c, alo, ahi, elapsed, rows in pool.map(_run_probe, jobs):
            results[(c, alo, ahi)] = (elapsed, rows)
    return results


def test_criterion_1_lemma_reproduction():
    t0 = time.time()
    failures = []
    for name, task in lemma_tasks(min_width=2e-10):
        res = validate_sign(task)
        if res.outcome != task.expected:
            failures.append(name)
    elapsed = time.time() - t0
    ok = not failures and elapsed <= 300.0
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 1: 14 sign claims certified in {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed <= 300.0


def test_criterion_2_non_rotation():
    t0 = time.time()
    failures = []
    for a in (0.5, 1.0, 1.5):
        for r in (0.1, 0.5, 0.9):
            cert = ellipse_rotation_check(Interval.around(a), r)
            if cert.outcome != SignOutcome.ALL_POSITIVE:
                failures.append((a, r))
    elapsed = time.time() - t0
    ok = not failures and elapsed <= 120.0
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion 2: 9-point non-rotation grid certified in {elapsed:.1f}s"
    )
    assert not failures, failures
    assert elapsed <= 120.0


def test_criterion_3_convexity_probes(probe_results):
    bad = []
    slow = []
    for c, alo, ahi, want in PROBES:
        elapsed, rows = probe_results[(c, alo, ahi)]
        outcomes = {r[2] for r in rows}
        if outcomes != {want}:
            bad.append((c, alo, ahi, outcomes))
        if elapsed > 1800.0:
            slow.append((c, alo, ahi, elapsed))
        # the split rows must tile the probe interval
        spans = sorted((r[0], r[1]) for r in rows)
        assert spans[0][0] == alo and spans[-1][1] == ahi
        for (la, ha), (lb, hb) in zip(spans, spans[1:]):
            assert ha == lb
    ok = not bad and not slow
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 3: 8 convexity probes match the theorem bands")
    assert not bad, bad
    assert not slow, slow


def test_criterion_3_sign_coherence(probe_results):
    # small-alpha negative verdicts forbid a positive big-alpha verdict just
    # above the regime boundary for the same phase
    small_neg = any(
        rows and all(r[2] == "negative" for r in rows)
        for (c, alo, ahi), (_, rows) in probe_results.items()
        if c == 0.15 and 0.0 < alo <= 0.04
    )
    assert small_neg
    for (c, alo, ahi), (_, rows) in probe_results.items():
        if c == 0.15 and alo >= 0.04 and alo < 0.045:
            assert all(r[2] != "positive" for r in rows)
    print("[PASS] criterion 3 coherence: no positive verdict adjacent to the negative band")


def test_criterion_4_quadrature_oracles():
    tol = Tolerance(1e-6, 1e-6, 13)
    t0 = time.time()
    for name, fn, a, b, exact in CASES:
        res = adaptive_integrate(fn, [(a, b)], tol)
        assert mpf(res.enclosure.lo) <= exact <= mpf(res.enclosure.hi), name
    sin_res = adaptive_integrate(lambda x: x.sin(), [(0.0, math.pi)], tol)
    assert sin_res.enclosure.lo <= 2.0 <= sin_res.enclosure.hi
    assert sin_res.enclosure.width() <= 1e-5
    cubic = adaptive_integrate(lambda x: x.powi(3), [(0.0, 1.0)], tol)
    assert cubic.enclosure.width() <= 1e-12
    assert cubic.enclosure.lo <= 0.25 <= cubic.enclosure.hi
    print(f"[PASS] criterion 4: 50 closed-form integrals enclosed ({time.time()-t0:.1f}s)")


def test_criterion_5_containment_million():
    rnd = random.Random(314159)
    mp.dps = 40
    t0 = time.time()
    checked = 0
    while checked < 10**6:
        cx = rnd.uniform(-100, 100)
        wx = abs(rnd.gauss(0, 1.0)) * 10 ** rnd.randint(-10, 1)
        cy = rnd.uniform(-100, 100)
        wy = abs(rnd.gauss(0, 1.0)) * 10 ** rnd.randint(-10, 1)
        X = Interval(cx - wx, cx + wx)
        Y = Interval(cy - wy, cy + wy)
        x = rnd.uniform(X.lo, X.hi)
        y = rnd.uniform(Y.lo, Y.hi)
        op = checked & 3
        if op == 3 and Y.lo <= 0.0 <= Y.hi:
            continue
        if op == 0:
            Z, exact = X + Y, mpf(x) + mpf(y)
        elif op == 1:
            Z, exact = X - Y, mpf(x) - mpf(y)
        elif op == 2:
            Z, exact = X * Y, mpf(x) * mpf(y)
        else:
            Z, exact = X / Y, mpf(x) / mpf(y)
        assert mpf(Z.lo) <= exact <= mpf(Z.hi), (op, X, Y, x, y)
        checked += 1
    print(f"[PASS] criterion 5: 10^6 randomized operations contained ({time.time()-t0:.0f}s)")


# extended-precision full-period oracle values (tanh-sinh quadrature of the
# displays at dps 40, tolerance well below 1e-10)
_ORACLE_I_10 = {
    0.15: mpf("1.199598610674645087130772"),
    0.45: mpf("3.567112440117504077017651"),
}


def test_criterion_6_cross_validation(probe_results):
    for c in (0.15, 0.45):
        _, rows = probe_results[(c, 1.0, 1.0001)]
        covering = [r for r in rows if r[0] <= 1.0 <= r[1]]
        assert covering, rows
        enc_lo, enc_hi = covering[0][3], covering[0][4]
        want = _ORACLE_I_10[c]
        assert mpf(enc_lo) <= want <= mpf(enc_hi), (c, enc_lo, enc_hi)
    print("[PASS] criterion 6: oracle I(1.0)|z_x|^3 lies inside the rigorous enclosures")


def test_criterion_7_steady_circle():
    # tight RK tolerances: at the stability-limited step size the global
    # drift is (number of steps) x (local tolerance), and the stiffest case
    # (alpha = 1.5) takes ~2000 steps to reach t = 1
    t0 = time.time()
    for alpha in (0.0, 0.5, 1.0, 1.5):
        st = sim.circle_state(1.0, 512)
        cfg = sim.SimConfig(
            alpha=alpha, t_final=1.0, snapshot_interval=1.0,
            rk_abs_tol=1e-10, rk_rel_tol=1e-10,
        )
        snaps = sim.evolve(st, cfg)
        radii = np.sqrt((snaps[-1].points**2).sum(axis=1))
        dev = float(np.abs(radii - 1.0).max())
        assert dev <= 1e-6, (alpha, dev)
    print(f"[PASS] criterion 7: circle steady for four alphas ({time.time()-t0:.0f}s)")


def test_criterion_8_convexity_loss():
    t0 = time.time()
    st = sim.ellipse_state(1.0, 3.0, 512)
    cfg = sim.SimConfig(alpha=1.0, t_final=10.0, snapshot_interval=1.0)
    snaps = sim.evolve(st, cfg)
    diags = [sim.diagnostics(s) for s in snaps]
    area0 = diags[0].area
    loss_time = next((d.time for d in diags if d.min_curvature < 0.0), None)
    drift = max(abs(d.area - area0) / area0 for d in diags)
    speed_var = max(d.speed_variation for d in diags)
    ok = loss_time is not None and loss_time <= 40.0 and drift <= 1e-4 and speed_var <= 1e-3
    print(
        f"[{'PASS' if ok else 'FAIL'}] criterion 8: convexity lost at t={loss_time}, "
        f"area drift {drift:.2e}, speed variation {speed_var:.2e} ({time.time()-t0:.0f}s)"
    )
    assert loss_time is not None and loss_time <= 40.0
    assert drift <= 1e-4
    assert speed_var <= 1e-3


def test_criterion_9_time_reversibility():
    t0 = time.time()
    st = sim.ellipse_state(1.0, 3.0, 512)
    fwd = sim.evolve(st, sim.SimConfig(alpha=1.0, t_final=1.0, snapshot_interval=1.0))
    back_start = sim.SimState(fwd[-1].points.copy(), 0.0)
    back = sim.evolve(
        back_start,
        sim.SimConfig(alpha=1.0, jump=2 * math.pi, t_final=1.0, snapshot_interval=1.0),
    )
    err = float(np.abs(back[-1].points - st.points).max())
    ok = err <= 1e-4
    print(f"[{'PASS' if ok else 'FAIL'}] criterion 9: reversibility error {err:.2e} ({time.time()-t0:.0f}s)")
    assert err <= 1e-4


def test_criterion_10_derivative_coherence():
    rnd = random.Random(1001)
    for _ in range(100):
        x0 = rnd.uniform(-math.pi + EPS_ZONE, math.pi - EPS_ZONE)
        X = Interval(x0)
        direct = z1_derivs(X, 5)
        jet0 = z1_derivs(Jet4.variable(X), 0)[0]
        for k in range(5):
            jk = jet0.deriv(k)
            assert jk.hi >= direct[k].lo and direct[k].hi >= jk.lo, (x0, k)
        j5 = z1_derivs(Jet4.variable(X), 1)[1].deriv(4)
        assert j5.hi >= direct[5].lo and direct[5].hi >= j5.lo, x0
    h = 1e-5
    for _ in range(25):
        x0 = rnd.uniform(-2.8, 2.8)
        for k in range(1, 5):
            lo_v = z1_derivs(Interval(x0 - h), k - 1)[k - 1]
            hi_v = z1_derivs(Interval(x0 + h), k - 1)[k - 1]
            fd = (hi_v.mid() - lo_v.mid()) / (2 * h)
            enc = z1_derivs(Interval(x0), k)[k]
            trunc = z1_derivs(Interval(x0), 6)[min(k + 2, 6)].mag()
            budget = h * h * trunc / 6 * 1.5 + 1e-9 * (1.0 + abs(fd))
            assert enc.lo - budget <= fd <= enc.hi + budget, (x0, k)
    print("[PASS] criterion 10: jet and closed-form derivative paths coherent")
