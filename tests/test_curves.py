import math
import random

import pytest
from mpmath import mp, mpf, diff, pi as mp_pi, sin as mp_sin, cos as mp_cos, exp as mp_exp

from alphapatch.interval import Interval, DomainViolation, PI
from alphapatch.jets import Jet4
from alphapatch.curves import (
    Bump,
    ZoneViolation,
    EPS_ZONE,
    ZONE_LEFT,
    ZONE_RIGHT,
    lemma_poly,
    hull_enclosure,
    bump_envelope,
    z1_derivs,
    z2_derivs,
)

import oracles

mp.dps = 40

C15 = Bump(Interval.around(0.15))
C45 = Bump(Interval.around(0.45))


def _curvature_numerator(curve, x, z1x, z1xx):
    """-z1'' z2' + z2'' z1': the sign of the curvature (|z_x| > 0)."""
    z2 = z2_derivs(x, 2, curve.c_phase)
    return -z1xx * z2[1] + z2[2] * z1x


def test_bump_at_zero():
    c1 = z1_derivs(Interval(0.0), 0)[0]
    c2 = z2_derivs(Interval(0.0), 0, C15.c_phase)[0]
    assert c1.lo <= 1.0 <= c1.hi and c1.width() < 1e-12
    want = float(mp_sin(-mpf("0.15")))
    assert c2.lo <= want <= c2.hi


def test_bump_first_derivative_formula():
    c1 = z1_derivs(Interval(1.0), 1)[1]
    want = -4 * mp_pi**2 * 1 * mp_exp(1 - 1 / (1 - 1 / mp_pi**2)) / (1 - mp_pi**2) ** 4
    # d_1(x) = -4 pi^2 x over (x^2-pi^2)^2
    want = (-4 * mp_pi**2) * mp_exp(1 - 1 / (1 - 1 / mp_pi**2)) / (1 - mp_pi**2) ** 2
    assert mpf(c1.lo) <= want <= mpf(c1.hi)
    assert c1.width() < 1e-12


def test_bump_touching_pi_raises():
    with pytest.raises(DomainViolation):
        z1_derivs(Interval(math.pi, PI.hi), 1)


def test_kc_at_pi():
    for curve, cval in ((C15, 0.15), (C45, 0.45)):
        enc = lemma_poly("kc", Interval(PI.lo, PI.hi), curve.c_phase)
        want = 8 * mp_pi**6 * mp_cos(mpf(str(cval)))
        assert mpf(enc.lo) <= want <= mpf(enc.hi)
        assert enc.lo > 0


def test_d2_at_minus_pi():
    enc = lemma_poly("d2", Interval(-PI.hi, -PI.lo))
    want = 8 * mp_pi**6
    assert mpf(enc.lo) <= want <= mpf(enc.hi)
    assert enc.lo > 0


def test_d1_positive_on_left_zone():
    enc = lemma_poly("d1", ZONE_LEFT)
    assert enc.lo > 0


def test_dk_match_oracle_derivatives():
    """Hardcoded polynomials reproduce mpmath differentiation of z1 up to
    order 6, including the corrected top-order table."""
    rnd = random.Random(21)
    for _ in range(25):
        x0 = rnd.uniform(-2.6, 2.6)
        env = mp_exp(1 - 1 / (1 - (mpf(x0) / mp_pi) ** 2))
        for k in range(1, 7):
            dk = lemma_poly(f"d{k}", Interval(x0))
            want = diff(oracles.z1, mpf(x0), k) * (mpf(x0) ** 2 - mp_pi**2) ** (2 * k) / env
            assert mpf(dk.lo) - 1e-18 <= want <= mpf(dk.hi) + 1e-18, (k, x0)


def test_two_derivative_paths_overlap():
    """Direct formula vs jet differentiation of the closed form, k = 1..5."""
    rnd = random.Random(77)
    for _ in range(100):
        x0 = rnd.uniform(-math.pi + EPS_ZONE, math.pi - EPS_ZONE)
        X = Interval(x0)
        direct = z1_derivs(X, 5)
        jet0 = z1_derivs(Jet4.variable(X), 0)[0]
        for k in range(5):
            jk = jet0.deriv(k)
            assert jk.hi >= direct[k].lo and direct[k].hi >= jk.lo, (x0, k)
        jet1 = z1_derivs(Jet4.variable(X), 1)[1]
        j5 = jet1.deriv(4)
        assert j5.hi >= direct[5].lo and direct[5].hi >= j5.lo, x0


def test_finite_difference_check():
    h = 1e-5
    rnd = random.Random(8)
    for _ in range(40):
        x0 = rnd.uniform(-2.8, 2.8)
        for k in range(1, 5):
            lo_v = z1_derivs(Interval(x0 - h), k - 1)[k - 1]
            hi_v = z1_derivs(Interval(x0 + h), k - 1)[k - 1]
            fd = (hi_v.mid() - lo_v.mid()) / (2 * h)
            enc = z1_derivs(Interval(x0), k)[k]
            # central-difference truncation is h^2/6 * next-next derivative
            trunc = z1_derivs(Interval(x0), 6)[min(k + 2, 6)].mag()
            budget = h * h * trunc / 6 * 1.5 + 1e-9 * (1.0 + abs(fd))
            assert enc.lo - budget <= fd <= enc.hi + budget, (x0, k)


# frozen: sympy high-precision z1 derivatives at -pi + 1/128
_Z1_AT_INNER = {
    1: 5.212765473870540641951620e-83,
    2: 1.328206738403000204293411e-78,
    3: 3.350082766767692430723334e-74,
    4: 8.363142750001294989308163e-70,
    5: 2.066031605805059561822922e-65,
}


def test_hull_enclosure_left_zone():
    for k, want in _Z1_AT_INNER.items():
        h = hull_enclosure(k, ZONE_LEFT)
        assert h.lo <= 0.0 and h.hi >= want, k
        assert h.hi <= want * 1.0001
    h0 = hull_enclosure(0, ZONE_LEFT)
    assert h0.lo <= -1.0 <= h0.hi + 1e-12
    assert h0.width() <= 1e-18 + 4e-16


def test_hull_degenerate_at_pi():
    for k in range(1, 6):
        h = hull_enclosure(k, Interval(PI.lo, PI.hi))
        assert h.lo == 0.0 and h.hi == 0.0


def test_hull_zone_violation():
    with pytest.raises(ZoneViolation):
        hull_enclosure(1, Interval(0.0, 1.0))


def test_hull_contains_direct_values():
    rnd = random.Random(4)
    zone = Interval(ZONE_RIGHT.lo, math.pi - 1e-9)
    for k in range(6):
        h = hull_enclosure(k, ZONE_RIGHT)
        for _ in range(25):
            x0 = rnd.uniform(zone.lo, zone.hi)
            v = z1_derivs(Interval(x0), k)[k]
            # both enclose the true point value, so they must overlap
            assert h.lo <= v.hi and v.lo <= h.hi, (k, x0)


def test_curvature_zero_at_pi():
    X = Interval(PI.lo, PI.hi)
    enc = _curvature_numerator(C45, X, hull_enclosure(1, X), hull_enclosure(2, X))
    assert enc.lo <= 0.0 <= enc.hi
    assert enc.width() < 1e-12


def test_curvature_numerator_identity():
    """numerator enclosure overlaps k_C(x) * E(x) at random interior points."""
    rnd = random.Random(31)
    for _ in range(50):
        x0 = rnd.uniform(-2.9, 2.9)
        X = Interval(x0)
        z1 = z1_derivs(X, 2)
        numerator = _curvature_numerator(C15, X, z1[1], z1[2])
        # the curvature numerator equals k_C(x) E(x) / (x^2-pi^2)^4; the
        # denominator is positive so the sign story is unchanged
        ident = (
            lemma_poly("kc", X, C15.c_phase)
            * bump_envelope(X)
            / (X.sqr() - PI.sqr()).powi(4)
        )
        assert numerator.hi >= ident.lo and ident.hi >= numerator.lo, x0


def test_bump_positive_curvature_away_from_pi():
    X = Interval(0.0, 0.1)
    z1 = z1_derivs(X, 2)
    assert _curvature_numerator(C15, X, z1[1], z1[2]).lo > 0
