import math
import random

import numpy as np
import pytest
from mpmath import mp, mpf

from alphapatch.interval import Interval, DomainViolation, IntervalError, SignOutcome, PI
from alphapatch.jets import Jet4
from alphapatch.curves import Bump
from alphapatch.integrands import (
    ALPHA_CR,
    ALPHA_BR,
    IntegrandSpec,
    Regime,
    make_kt_integrand,
    singular_residual,
    ellipse_rotation_integrand,
    ellipse_rotation_check,
)

import oracles
from lanes import assert_lanes_match, lanes, single

C15 = Bump(Interval.around(0.15))
C45 = Bump(Interval.around(0.45))


def _spec(regime, alo, ahi=None, curve=C15):
    return IntegrandSpec.for_regime(regime, Interval(alo, ahi if ahi is not None else alo), curve)


def test_regime_target_matching():
    """Big and very big alpha share the scaled target; small alpha takes its
    alpha-derivative; each regime checks its alpha."""
    y = Interval(1.3)
    big = make_kt_integrand(_spec(Regime.BIG_ALPHA, 1.97))(y)
    assert make_kt_integrand(_spec(Regime.VERY_BIG_ALPHA, 1.97))(y) == big
    small = make_kt_integrand(_spec(Regime.SMALL_ALPHA, 0.02))(y)
    assert small != make_kt_integrand(_spec(Regime.BIG_ALPHA, 0.02))(y)
    with pytest.raises(ValueError):
        IntegrandSpec.for_regime(Regime.VORTEX, Interval(0.5), C15)
    with pytest.raises(ValueError):
        IntegrandSpec.for_regime(Regime.VERY_BIG_ALPHA, Interval(1.99, 2.0), C15)


def test_window_straddle_rejected():
    f = make_kt_integrand(_spec(Regime.BIG_ALPHA, 1.0))
    with pytest.raises(DomainViolation):
        f(Interval(-0.001, 0.001))
    with pytest.raises(DomainViolation):
        f(Jet4.variable(Interval(-0.5, 0.5)))


# frozen extended-precision display evaluations
_FROZEN = [
    (Regime.BIG_ALPHA, 1.0, C45, 2.0, -0.04210135542083188496432),
    (Regime.VERY_BIG_ALPHA, 1.9, C15, 2.0, -0.0563049956510282197581),
]


def test_frozen_pointwise_values():
    for regime, a, curve, y, want in _FROZEN:
        f = make_kt_integrand(_spec(regime, a, curve=curve))
        enc = f(Interval(y))
        assert enc.lo <= want <= enc.hi, (regime, a, y)
        jet = f(Jet4.variable(Interval(y)))
        assert jet.d0.lo <= want <= jet.d0.hi


def test_vortex_pair_sum_oracle():
    f = make_kt_integrand(_spec(Regime.VORTEX, 0.0))
    got = f(Interval(0.8)) + f(Interval(-0.8))
    want = -0.5970657780170714600199
    assert got.lo <= want <= got.hi
    assert got.width() < 1e-10


_TARGET_ORACLES = {
    Regime.VORTEX: lambda zk, y, a: oracles.integrand_vortex(zk, y),
    Regime.BIG_ALPHA: oracles.integrand_alpha,
    Regime.SMALL_ALPHA: oracles.integrand_dalpha,
    Regime.VERY_BIG_ALPHA: oracles.integrand_tilde_full,
}

_REGIME_ALPHAS = {
    Regime.VORTEX: (0.0, 0.0),
    Regime.SMALL_ALPHA: (0.005, ALPHA_CR),
    Regime.BIG_ALPHA: (ALPHA_CR, ALPHA_BR),
    Regime.VERY_BIG_ALPHA: (ALPHA_BR, 1.999),
}


def test_oracle_containment_500_samples():
    """Jet d0 enclosures contain the extended-precision display values at
    500 random (target, alpha, y) samples."""
    mp.dps = 60
    rnd = random.Random(2024)
    regimes = list(_TARGET_ORACLES)
    zks = {0.15: (C15, oracles.make_curve(mpf("0.15"))), 0.45: (C45, oracles.make_curve(mpf("0.45")))}
    checked = 0
    for i in range(500):
        regime = regimes[i % 4]
        a_lo, a_hi = _REGIME_ALPHAS[regime]
        a = rnd.uniform(a_lo + 1e-3, a_hi - 1e-3) if regime != Regime.VORTEX else 0.0
        curve, zk = zks[rnd.choice((0.15, 0.45))]
        y = rnd.uniform(0.05, math.pi - 0.01) * rnd.choice((1.0, -1.0))
        f = make_kt_integrand(IntegrandSpec.for_regime(regime, Interval(a), curve))
        jet = f(Jet4.variable(Interval(y)))
        want = _TARGET_ORACLES[regime](zk, mpf(repr(y)), mpf(repr(a)))
        assert mpf(jet.d0.lo) <= want <= mpf(jet.d0.hi), (regime, a, y)
        checked += 1
    assert checked == 500
    mp.dps = 30


def test_counterterms_project_to_zero():
    """The tilde integrand minus the scaled one is the projected tangent
    counter-terms, which vanish at x = pi: the very-big-alpha regime may
    evaluate the scaled integrand.  Checked on the term-by-term mpmath
    oracle."""
    mp.dps = 60
    try:
        for c in ("0.15", "0.45"):
            zk = oracles.make_curve(mpf(c))
            for a in ("1.95", "1.96", "1.98", "1.999"):
                for y in ("0.05", "0.7", "-1.3", "2.9", "-3.1"):
                    a_mp, y_mp = mpf(a), mpf(y)
                    tilde = oracles.integrand_tilde_full(zk, y_mp, a_mp)
                    base = oracles.integrand_alpha(zk, y_mp, a_mp)
                    assert abs(tilde - base) < mpf("1e-40"), (c, a, y)
    finally:
        mp.dps = 30


def test_dalpha_matches_alpha_derivative():
    """Central difference of the plain target in alpha lies inside the
    DI enclosure (pointwise in y), in the small-alpha range and across the
    big and very-big ones; the enclosure also contains the mpmath oracle of
    DI."""
    h = 1e-4
    y = Interval(1.3)
    zk = oracles.make_curve(mpf("0.15"))
    mp.dps = 60
    try:
        for a0 in (0.02, 0.03, 0.5, 1.0, 1.96):
            f_di = make_kt_integrand(_spec(Regime.SMALL_ALPHA, a0))
            spec_p = IntegrandSpec(Regime.BIG_ALPHA, Interval(a0 + h), C15)
            spec_m = IntegrandSpec(Regime.BIG_ALPHA, Interval(a0 - h), C15)
            fp = make_kt_integrand(spec_p)(y)
            fm = make_kt_integrand(spec_m)(y)
            fd = (fp.mid() - fm.mid()) / (2 * h)
            enc = f_di(y)
            budget = h * h * 10.0 + 1e-9
            assert enc.lo - budget <= fd <= enc.hi + budget, a0
            want = oracles.integrand_dalpha(zk, mpf(repr(y.lo)), mpf(repr(a0)))
            assert mpf(enc.lo) <= want <= mpf(enc.hi), a0
    finally:
        mp.dps = 30


def test_residual_closed_forms():
    # int_{-w}^{w} |x|^{1-alpha} dx = 2 w^{2-alpha} / (2-alpha); alpha = 1
    w = 1.0 / 128.0
    a = Interval(1.0)
    val = Interval(w).pow(2.0 - a) / (2.0 - a) * 2.0
    assert val.lo <= 2 * w <= val.hi  # = 1/64
    # int_0^w |log x| x^{1-alpha} dx at alpha = 1: w (1 - log w)
    rp = Interval(w).pow(2.0 - a)
    log_int = rp * (-(Interval(w).log()) / (2.0 - a) + 1.0 / (2.0 - a).sqr())
    want = w * (1 - math.log(w))
    assert log_int.lo <= want <= log_int.hi


def test_residual_negligible_all_regimes():
    for regime, a in [
        (Regime.VORTEX, Interval(0.0)),
        (Regime.SMALL_ALPHA, Interval(0.02, 0.0201)),
        (Regime.BIG_ALPHA, Interval(1.0, 1.0001)),
        (Regime.VERY_BIG_ALPHA, Interval(1.96, 1.9601)),
    ]:
        for curve in (C15, C45):
            spec = IntegrandSpec.for_regime(regime, a, curve)
            res = singular_residual(spec)
            assert res.lo <= 0.0 <= res.hi
            # "extremely small": far below one thousandth of the signal
            assert res.hi <= 1e-60, (regime, curve)


# singular_residual half-widths, float.hex, per (regime, alpha band):
# (C = 0.15, C = 0.45)
_RESIDUAL_BITS = {
    (Regime.VORTEX, 0.0, 0.0): ("0x1.e096c238026e7p-251", "0x1.b7f3d2ae30fdbp-251"),
    (Regime.SMALL_ALPHA, 0.02, 0.0201): ("0x1.110f3bd5aeea9p-241", "0x1.fb1970ea62e2dp-242"),
    (Regime.BIG_ALPHA, 1.0, 1.0001): ("0x1.71db85b85554dp-236", "0x1.725b873511339p-236"),
    (Regime.VERY_BIG_ALPHA, 1.96, 1.9601): ("0x1.beb5895634cedp-223", "0x1.e9fb129785125p-223"),
}


def test_residual_frozen_bits():
    """The window residual is symmetric and bit-for-bit what it was when the
    four regimes' bounds were first certified."""
    for (regime, alo, ahi), bits in _RESIDUAL_BITS.items():
        for curve, hex_hi in zip((C15, C45), bits):
            spec = _spec(regime, alo, ahi, curve)
            res = singular_residual(spec)
            hi = float.fromhex(hex_hi)
            assert (res.lo, res.hi) == (-hi, hi), (regime, curve)


def test_ellipse_rotation_integrand_endpoints():
    a = Interval(1.0)
    end0 = ellipse_rotation_integrand(a, 0.8, Interval(1e-30, 2e-30))
    assert end0.lo <= 0.0 <= end0.hi or abs(end0.mid()) < 1e-25
    # at y = pi/2 the cos^a - sin^a factor kills the integrand
    mid = ellipse_rotation_integrand(a, 0.8, PI.half())
    assert mid.lo <= 0.0 <= mid.hi


def test_ellipse_rotation_frozen_value():
    enc = ellipse_rotation_integrand(Interval(1.0), 0.8, Interval(1.0))
    want = 0.2938456610777631783575
    assert enc.lo <= want <= enc.hi
    assert enc.lo > 0


def test_ellipse_rotation_check_grid_point():
    cert = ellipse_rotation_check(Interval.around(1.0), 0.8)
    assert cert.outcome == SignOutcome.ALL_POSITIVE
    assert cert.interior.outcome == SignOutcome.ALL_POSITIVE
    assert cert.lower_zone_ok and cert.upper_zone_ok


def test_ellipse_rotation_check_near_degenerate():
    cert = ellipse_rotation_check(Interval.around(1.0), 0.999)
    assert cert.outcome == SignOutcome.ALL_POSITIVE


def test_kt_scaled_integrand_single_call():
    enc = make_kt_integrand(_spec(Regime.VORTEX, 0.0))(Interval(2.0))
    want = -0.2994245680433803336357
    assert enc.lo <= want <= enc.hi


# point and 1e-4-wide alpha bands of every regime
_VALUE_SLOT_BANDS = [
    (Regime.VORTEX, 0.0, 0.0),
    (Regime.SMALL_ALPHA, 0.02, 0.02),
    (Regime.SMALL_ALPHA, 0.02, 0.0201),
    (Regime.BIG_ALPHA, 1.0, 1.0),
    (Regime.BIG_ALPHA, 1.0, 1.0001),
    (Regime.VERY_BIG_ALPHA, 1.96, 1.96),
    (Regime.VERY_BIG_ALPHA, 1.96, 1.9601),
]


def _node_intervals(rnd, count):
    """Random quadrature-node intervals near +-pi, near the window edges
    +-1/128, inside the domain, and inside the window, where those that
    straddle y = 0 must fail."""
    edge = 1.0 / 128.0
    out = []
    for i in range(count):
        kind = i % 4
        if kind == 0:
            c = math.pi - rnd.uniform(0.0, 1e-3)
        elif kind == 1:
            c = edge + rnd.uniform(-1e-4, 1e-3)
        elif kind == 2:
            c = rnd.uniform(edge, math.pi)
        else:
            c = rnd.uniform(0.0, 1e-3)
        c *= rnd.choice((1.0, -1.0))
        r = 10 ** rnd.uniform(-12, -2.5)
        out.append(Interval(c - r, c + r))
    return out


@pytest.mark.parametrize("curve", [C15, C45], ids=["C0.15", "C0.45"])
def test_value_slot_matches_interval_evaluation(curve):
    """The quadrature evaluates its Gauss nodes on plain intervals: that must
    be bit-for-bit the value slot of the jet evaluation, and fail exactly
    where the jet evaluation fails.  Batched, the nodes and the cells the
    quadrature evaluates whole keep each lane's single-interval result."""
    rnd, cells_rnd = random.Random(4), random.Random(5)
    outcomes = set()
    for regime, lo, hi in _VALUE_SLOT_BANDS:
        f = make_kt_integrand(_spec(regime, lo, hi, curve))
        xs = _node_intervals(rnd, 30)
        for x in xs:
            try:
                plain = f(x)
            except IntervalError:
                plain = None
            try:
                slot = f(Jet4.variable(x)).d0
            except IntervalError:
                slot = None
            if plain is None or slot is None:
                assert plain is None and slot is None, (regime, lo, hi, x, plain, slot)
            else:
                assert plain == slot, (regime, lo, hi, x, plain, slot)
            outcomes.add(plain is None)
        _assert_batched_evaluation_matches(f, xs, regime)
        _assert_batched_evaluation_matches(f, _dyadic_cells(cells_rnd), regime)
    assert outcomes == {True, False}


def _dyadic_cell(a, b, depth, k):
    """Cell ``k`` of [a, b] at ``depth``, halved at midpoints as the
    quadrature's walk halves it."""
    for bit in reversed(range(depth)):
        mid = 0.5 * (a + b)
        a, b = (mid, b) if k >> bit & 1 else (a, mid)
    return Interval(a, b)


def _dyadic_cells(rnd):
    """Quadrature cells of both window halves at depths 0-13, the crude
    bounds' and remainders' arguments: at each depth the two end cells of
    each half and one random cell between."""
    edge = 1.0 / 128.0
    out = []
    for a, b in ((edge, math.pi), (-math.pi, -edge)):
        for depth in range(14):
            n = 2**depth
            for k in sorted({0, rnd.randrange(n), n - 1}):
                out.append(_dyadic_cell(a, b, depth, k))
    return out


def _assert_batched_evaluation_matches(f, xs, what):
    """The intervals as lanes of one batch, across both sides of the window
    as the quadrature batches them, plus a lane straddling the window: the
    plain evaluation and all five jet slots carry each lane's
    single-interval bits and are flagged exactly where it raises."""
    xs = xs + [Interval(-1e-3, 2e-3)]
    assert {x.hi < 0.0 for x in xs} == {True, False}
    with np.errstate(all="ignore"):
        X = lanes(xs)
        assert_lanes_match(f(X), [single(f, x) for x in xs], (what, "plain"), X)
        X = lanes(xs)
        jet = f(Jet4.variable(X))
        one = [single(lambda x: f(Jet4.variable(x)), x) for x in xs]
        for k in range(5):
            singles = [None if j is None else single(j.deriv, k) for j in one]
            assert_lanes_match(jet.deriv(k), singles, (what, "jet", k), X)
