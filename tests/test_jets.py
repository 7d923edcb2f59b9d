import math
import random

from mpmath import mp, mpf, diff

from alphapatch.interval import Interval, PI
from alphapatch.jets import Jet4

mp.dps = 40


def test_variable_jet():
    j = Jet4.variable(Interval(2.0))
    assert j.d0 == Interval(2.0)
    assert j.deriv(1) == Interval(1.0)
    assert j.deriv(2).is_zero() and j.deriv(3).is_zero() and j.deriv(4).is_zero()


def test_constant_jet():
    j = Jet4.constant(PI)
    assert j.d0 == PI
    assert all(j.deriv(k).is_zero() for k in (1, 2, 3, 4))


def test_sin_at_zero():
    j = Jet4.variable(Interval(0.0)).sin()
    expect = (0.0, 1.0, 0.0, -1.0, 0.0)
    for k, e in enumerate(expect):
        d = j.deriv(k)
        assert d.lo <= e <= d.hi
        assert d.width() <= 1e-14


def test_square_derivatives():
    v = Jet4.variable(Interval(3.0))
    j = v * v
    expect = (9.0, 6.0, 2.0, 0.0, 0.0)
    for k, e in enumerate(expect):
        d = j.deriv(k)
        assert d.lo <= e <= d.hi and d.width() <= 1e-12


def test_quartic_top_coefficient_exact():
    # d4 of a degree-4 polynomial equals 4! * leading coefficient
    v = Jet4.variable(Interval(1.7))
    p = 2.5 * v.powi(4) - 3.0 * v.sqr() + v + 7.0
    d4 = p.deriv(4)
    assert d4.lo <= 60.0 <= d4.hi
    assert d4.width() <= 32 * math.ulp(60.0)


# frozen oracle values: mpmath.diff of exp(1 - 1/(1-(y/pi)^2)) at y = 1
_BUMP_EXPONENT_JET = (
    0.893378799962988633161942,
    -0.2241593627907542474583952,
    -0.2690061442506586104765666,
    -0.1409426775437402950675245,
    -0.1663283540718021742110642,
)


def test_bump_exponent_jet_oracle():
    y = Jet4.variable(Interval(1.0))
    t2 = (y / PI).sqr()
    j = (1.0 - 1.0 / (1.0 - t2)).exp()
    for k, e in enumerate(_BUMP_EXPONENT_JET):
        d = j.deriv(k)
        assert d.lo <= e <= d.hi, k
        assert d.width() < 1e-10


def test_pow_interval_exponent():
    v = Jet4.variable(Interval(2.0))
    j = v.pow(Interval(1.5))
    # derivatives of x^1.5 at 2
    vals = [2**1.5, 1.5 * 2**0.5, 0.75 * 2**-0.5, -0.375 * 2**-1.5, 0.5625 * 2**-2.5]
    for k, e in enumerate(vals):
        d = j.deriv(k)
        assert d.lo <= e <= d.hi and d.width() < 1e-10


def _tan(u):
    s, c = u.sin_cos()
    return s / c


_EXPRS = [
    ("sin(x)*exp(cos(x))", lambda x: x.sin() * x.cos().exp(), lambda x: mp.sin(x) * mp.e ** mp.cos(x)),
    ("log(2+sin(x))", lambda x: (2.0 + x.sin()).log(), lambda x: mp.log(2 + mp.sin(x))),
    ("1/(1+x^2)", lambda x: 1.0 / (1.0 + x.sqr()), lambda x: 1 / (1 + x * x)),
    ("tan(x/2)", lambda x: _tan(x * 0.5), lambda x: mp.tan(x / 2)),
    ("sqrt(3+x)", lambda x: (x + 3.0).sqrt(), lambda x: mp.sqrt(3 + x)),
    ("exp(x)/(2+cos(x))", lambda x: x.exp() / (x.cos() + 2.0), lambda x: mp.e**x / (2 + mp.cos(x))),
    ("x^2.5 * log(x)", lambda x: x.pow(2.5) * x.log(), lambda x: x**mpf(2.5) * mp.log(x)),
]


def test_random_compositions_contain_oracle_derivatives():
    rnd = random.Random(12)
    checked = 0
    for name, jet_fn, mp_fn in _EXPRS:
        for _ in range(30):
            x0 = rnd.uniform(0.3, 1.2)
            j = jet_fn(Jet4.variable(Interval(x0)))
            for k in range(5):
                want = mp_fn(mpf(x0)) if k == 0 else diff(mp_fn, mpf(x0), k)
                d = j.deriv(k)
                assert mpf(d.lo) <= want <= mpf(d.hi), (name, x0, k)
            checked += 1
    assert checked == 7 * 30


_OUTER = [
    ("sin", lambda u: u.sin(), lambda u: mp.sin(u)),
    ("cos", lambda u: u.cos(), lambda u: mp.cos(u)),
    ("exp", lambda u: u.exp(), lambda u: mp.e**u),
    ("log2p", lambda u: (u + 2.5).log(), lambda u: mp.log(u + mpf(2.5))),
    ("sqrt3p", lambda u: (u + 3.0).sqrt(), lambda u: mp.sqrt(u + 3)),
    ("tan_half", lambda u: _tan(u * 0.5), lambda u: mp.tan(u / 2)),
    ("sqr", lambda u: u.sqr(), lambda u: u * u),
    ("pow1.7", lambda u: (u + 2.0).pow(1.7), lambda u: (u + 2) ** mpf(1.7)),
]

_INNER = [
    ("id", lambda x: x, lambda x: x),
    ("sin", lambda x: x.sin(), lambda x: mp.sin(x)),
    ("cos", lambda x: x.cos(), lambda x: mp.cos(x)),
    ("cube", lambda x: x.powi(3), lambda x: x**3),
    ("inv1p", lambda x: 1.0 / (x.sqr() + 1.0), lambda x: 1 / (x * x + 1)),
    ("expq", lambda x: (x * 0.4).exp(), lambda x: mp.e ** (x * mpf(0.4))),
]


def test_200_random_composed_expressions():
    """Random two-level compositions of the supported primitives: every jet
    component contains the extended-precision derivative."""
    rnd = random.Random(777)
    for case in range(200):
        oname, ojet, omp = _OUTER[rnd.randrange(len(_OUTER))]
        iname, ijet, imp = _INNER[rnd.randrange(len(_INNER))]
        scale = rnd.uniform(0.2, 1.5)
        x0 = rnd.uniform(0.1, 1.0)

        def jet_fn(v):
            return ojet(ijet(v) * scale)

        def mp_fn(t):
            return omp(imp(t) * mpf(scale))

        j = jet_fn(Jet4.variable(Interval(x0)))
        for k in range(5):
            want = mp_fn(mpf(x0)) if k == 0 else diff(mp_fn, mpf(x0), k)
            d = j.deriv(k)
            assert mpf(d.lo) <= want <= mpf(d.hi), (case, oname, iname, x0, k)


def test_wide_interval_jets_contain_pointwise():
    # containment at every order over non-degenerate value intervals
    rnd = random.Random(5)
    for _ in range(200):
        a = rnd.uniform(0.4, 0.9)
        w = rnd.uniform(0.0, 0.2)
        X = Interval(a, a + w)
        j = (Jet4.variable(X).sqr() + 1.0).log()
        for x0 in (X.lo, X.mid(), X.hi):
            g = lambda t: mp.log(1 + t * t)
            for k in range(5):
                want = g(mpf(x0)) if k == 0 else diff(g, mpf(x0), k)
                d = j.deriv(k)
                assert mpf(d.lo) <= want <= mpf(d.hi)
