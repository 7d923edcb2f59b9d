import math
import random
import sys

import numpy as np
import pytest
from mpmath import mp, mpf

from alphapatch import interval
from alphapatch.jets import Jet4

from lanes import assert_lanes_match, bits, lanes, single

from alphapatch.interval import (
    Interval,
    IntervalArray,
    IntervalError,
    DivisionByZeroInterval,
    DomainViolation,
    EndpointOverflow,
    PI,
    TWO_PI,
    SQRT3_THIRD,
)

mp.dps = 40


def test_add_endpoint_formula():
    r = Interval(1, 2) + Interval(3, 4)
    assert r.lo <= 4.0 <= 6.0 <= r.hi
    assert 4.0 - r.lo <= 4 * math.ulp(4.0)
    assert r.hi - 6.0 <= 4 * math.ulp(6.0)


def test_mul_endpoint_formula():
    r = Interval(-1, 2) * Interval(3, 4)
    assert r.lo <= -4.0 and r.hi >= 8.0
    assert r.width() <= 12.0 + 8 * math.ulp(8.0)


def test_div_by_zero_interval():
    with pytest.raises(DivisionByZeroInterval):
        Interval(1, 1) / Interval(-1, 1)


def test_point_width_control():
    # point inputs: arithmetic results stay within 4 ulp of the midpoint
    rnd = random.Random(7)
    for _ in range(2000):
        x = rnd.uniform(-50, 50)
        y = rnd.uniform(-50, 50)
        for op in ("add", "sub", "mul", "div"):
            if op == "div" and abs(y) < 1e-3:
                continue
            a, b = Interval(x), Interval(y)
            r = {
                "add": a + b,
                "sub": a - b,
                "mul": a * b,
                "div": a / b,
            }[op]
            assert r.width() <= 4 * math.ulp(abs(r.mid()) + 1e-300)


def test_sin_quarter_period():
    r = Interval(0.0, math.pi / 2).sin()
    assert r.lo <= 0.0 <= 1.0 <= r.hi
    assert r.lo >= 0.0  # clamped: sin >= 0 on [0, pi]
    assert r.hi - 1.0 <= 4 * math.ulp(1.0)


def test_cos_extremum_detection():
    r = Interval(-0.5, 0.5).cos()
    assert r.hi == 1.0
    assert r.lo <= math.cos(0.5)
    r2 = Interval(3.0, 3.5).cos()
    assert r2.lo == -1.0


def test_log_tight():
    r = Interval(1.0, math.e).log()
    assert r.lo <= 0.0 and r.hi >= 1.0
    assert r.width() <= 1.0 + 1e-14


def test_log_domain():
    with pytest.raises(DomainViolation):
        Interval(0.0, 1.0).log()
    with pytest.raises(DomainViolation):
        Interval(-1.0, 1.0).sqrt()


def test_pow_interval_exponent():
    r = Interval(4.0, 9.0).pow(Interval(0.5, 0.5))
    assert r.lo <= 2.0 and r.hi >= 3.0
    assert r.width() <= 1.0 + 1e-12
    r2 = Interval(2.0, 2.0).pow(Interval(1.0, 2.0))
    assert r2.lo <= 2.0 and r2.hi >= 4.0
    with pytest.raises(DomainViolation):
        Interval(0.0, 1.0).pow(Interval(1.0, 1.0))


def test_overflow_reported():
    with pytest.raises(EndpointOverflow):
        Interval(1e308) * Interval(10.0)
    with pytest.raises(EndpointOverflow):
        Interval(900.0).exp()


def test_powi():
    r = Interval(-2.0, 3.0).powi(2)
    assert r.lo == 0.0 and r.hi >= 9.0
    r3 = Interval(-2.0, 3.0).powi(3)
    assert r3.lo <= -8.0 and r3.hi >= 27.0
    assert Interval(5.0).powi(0) == Interval(1.0)


def test_constants_enclose():
    assert mpf(PI.lo) <= mp.pi <= mpf(PI.hi)
    assert PI.hi - PI.lo <= 2 * math.ulp(math.pi)
    assert mpf(TWO_PI.lo) <= 2 * mp.pi <= mpf(TWO_PI.hi)
    s = mp.sqrt(3) / 3
    assert mpf(SQRT3_THIRD.lo) <= s <= mpf(SQRT3_THIRD.hi)


_OPS = ("add", "sub", "mul", "div")


def _rand_interval(rnd):
    c = rnd.uniform(-100, 100)
    w = abs(rnd.gauss(0, 1)) * 10 ** rnd.randint(-12, 1)
    return Interval(c - w, c + w)


def test_containment_random_sample():
    """Fast version of the randomized containment sweep (the full million-
    operation run lives in the acceptance suite)."""
    rnd = random.Random(42)
    for _ in range(20000):
        X = _rand_interval(rnd)
        Y = _rand_interval(rnd)
        x = rnd.uniform(X.lo, X.hi)
        y = rnd.uniform(Y.lo, Y.hi)
        op = _OPS[rnd.randrange(4)]
        if op == "div" and Y.lo <= 0.0 <= Y.hi:
            continue
        Z = {
            "add": lambda: X + Y,
            "sub": lambda: X - Y,
            "mul": lambda: X * Y,
            "div": lambda: X / Y,
        }[op]()
        exact = {
            "add": mpf(x) + mpf(y),
            "sub": mpf(x) - mpf(y),
            "mul": mpf(x) * mpf(y),
            "div": mpf(x) / mpf(y),
        }[op]
        assert mpf(Z.lo) <= exact <= mpf(Z.hi), (op, X, Y, x, y)


def test_inclusion_monotonicity():
    rnd = random.Random(99)
    for _ in range(3000):
        X = _rand_interval(rnd)
        Y = _rand_interval(rnd)
        Xp = Interval(X.lo - abs(rnd.gauss(0, 0.1)), X.hi + abs(rnd.gauss(0, 0.1)))
        Yp = Interval(Y.lo - abs(rnd.gauss(0, 0.1)), Y.hi + abs(rnd.gauss(0, 0.1)))
        for op in ("add", "sub", "mul"):
            f = {
                "add": lambda a, b: a + b,
                "sub": lambda a, b: a - b,
                "mul": lambda a, b: a * b,
            }[op]
            assert f(X, Y).is_subset(f(Xp, Yp))


def _elem_sample(seed, count):
    rnd = random.Random(seed)
    out = []
    for _ in range(count):
        c = rnd.uniform(-8, 8)
        w = abs(rnd.gauss(0, 0.5))
        X = Interval(c - w, c + w)
        out.append((X, rnd.uniform(X.lo, X.hi)))
    return out


_ELEM_ORACLES = {"sin": mp.sin, "cos": mp.cos, "log": mp.log, "sqrt": mp.sqrt, "exp": mp.exp}


def test_elem_containment_random():
    for X, x in _elem_sample(3, 5000):
        assert X.sin().lo <= math.sin(x) <= X.sin().hi or mpf(X.sin().lo) <= mp.sin(mpf(x)) <= mpf(X.sin().hi)
        assert mpf(X.cos().lo) <= mp.cos(mpf(x)) <= mpf(X.cos().hi)
        if X.lo > 0:
            assert mpf(X.log().lo) <= mp.log(mpf(x)) <= mpf(X.log().hi)
            assert mpf(X.sqrt().lo) <= mp.sqrt(mpf(x)) <= mpf(X.sqrt().hi)
        if X.hi < 700:
            assert mpf(X.exp().lo) <= mp.exp(mpf(x)) <= mpf(X.exp().hi)


def test_elem_containment_random_array():
    """The same sample as one batch of lanes: every lane contains the true
    value, carries the bits of the single-interval result, and is flagged
    exactly where that one raises (log and sqrt of lanes reaching <= 0)."""
    sample = _elem_sample(3, 5000)
    for name, oracle in _ELEM_ORACLES.items():
        X = lanes([X for X, _ in sample])
        R = getattr(X, name)()
        assert_lanes_match(R, [single(getattr(Xi, name)) for Xi, _ in sample], name, X)
        for i, (Xi, x) in enumerate(sample):
            if not R.err[i]:
                assert mpf(R.lo[i]) <= oracle(mpf(x)) <= mpf(R.hi[i]), (name, Xi, x)


# ---------------------------------------------------------------------------
# IntervalArray against Interval, lane by lane
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _quiet_numpy():
    # flagged lanes may overflow or divide by zero; the flags report it
    with np.errstate(all="ignore"):
        yield


_SPECIAL = [
    Interval(0.0),
    Interval(-0.0),
    Interval(-0.0, 0.0),
    Interval(0.0, 1.0),
    Interval(-1.0, -0.0),
    Interval(-2.0, 3.0),
    Interval(-3.0, 2.0),
    Interval(2.0, 3.0),
    Interval(-3.0, -2.0),
    Interval(1.5),
    Interval(-1.5),
    Interval(5e-324),
    Interval(-5e-324, 5e-324),
    Interval(1e-200, 1e-190),
    Interval(1e300, 1e308),
    Interval(-1.7e308, -1e308),
    Interval(-1.7e308, 1.7e308),
    Interval(700.0, 709.7),
    Interval(709.0, 710.0),
    Interval(-800.0, -745.0),
    Interval(1e13, 1e13 + 1.0),
    Interval(-2.0 * math.pi, 0.5),
    Interval(1.5, 1.6),
]


def _operands():
    rnd = random.Random(11)
    return _SPECIAL + [_rand_interval(rnd) for _ in range(20)]


_BINARY = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


@pytest.mark.parametrize("op", sorted(_BINARY))
def test_array_binary_ops_match_interval(op):
    """Every pair of operands, as lanes against lanes, lanes against one
    interval and one number on either side: same bits, zero short-circuits
    and signed zeros included, and a flag exactly where Interval raises."""
    fn = _BINARY[op]
    ops = _operands()
    xs = [x for x in ops for _ in ops]
    ys = [y for _ in ops for y in ops]
    X, Y = lanes(xs), lanes(ys)
    Y.err = X.err  # one batch
    assert_lanes_match(fn(X, Y), [single(fn, x, y) for x, y in zip(xs, ys)], op, X)
    for y in ops + [2.0, -0.5, 0.0, 3]:
        X = lanes(ops)
        expect = [single(fn, x, y) for x in ops]
        assert_lanes_match(single(fn, X, y) or _flagged(X), expect, (op, y), X)
        X = lanes(ops)
        expect = [single(fn, y, x) for x in ops]
        assert_lanes_match(single(fn, y, X) or _flagged(X), expect, (op, "left", y), X)


def _flagged(X):
    """The batch with every lane flagged: what a raising operation means
    for lanes (a single divisor across zero fails them all)."""
    X.err[:] = True
    return X


def _unary_cases():
    cases = {
        "neg": lambda x: -x,
        "sqr": lambda x: x.sqr(),
        "sqrt": lambda x: x.sqrt(),
        "exp": lambda x: x.exp(),
        "log": lambda x: x.log(),
        "sin": lambda x: x.sin(),
        "cos": lambda x: x.cos(),
        "pow": lambda x: x.pow(Interval(0.5, 1.5)),
    }
    cases.update({f"powi{n}": (lambda x, n=n: x.powi(n)) for n in (-3, -2, -1, 0, 1, 2, 3, 4, 5)})
    return cases


@pytest.mark.parametrize("op", sorted(_unary_cases()))
def test_array_unary_ops_match_interval(op):
    fn = _unary_cases()[op]
    ops = _operands()
    X = lanes(ops)
    assert_lanes_match(fn(X), [single(fn, x) for x in ops], op, X)


def test_array_sin_cos_match_interval_random():
    """sin and cos on wide, narrow, point and multi-period lanes, including
    ends exactly on the critical-point enclosures."""
    rnd = random.Random(5)
    ops = [Interval(0.0, math.pi), Interval(-math.pi / 2, math.pi / 2), Interval(math.pi / 2)]
    for k in range(-6, 7):
        for crit in (PI * k, PI * (k + 0.5)):
            for end in (crit.lo, crit.hi):
                for e in (math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf)):
                    ops += [Interval(e - 0.25, e), Interval(e, e + 0.25), Interval(e)]
    for _ in range(4000):
        c = rnd.uniform(-160.0, 160.0)
        w = rnd.choice((0.0, 1e-9, 0.3, 2.0, 7.0)) * rnd.random()
        ops.append(Interval(c - w, c + w))
    for name in ("sin", "cos"):
        X = lanes(ops)
        assert_lanes_match(getattr(X, name)(), [getattr(x, name)() for x in ops], name, X)


def test_array_error_mask_sticks():
    """A lane whose log fails stays flagged through later operations that
    hide it in the values: the jet's deriv(4) comes out finite, and a
    product with an exact zero is the single ZERO."""
    X = lanes([Interval(-2.0, -1.0), Interval(1.0, 2.0)])
    d4 = Jet4.variable(X).log().deriv(4)
    assert np.isfinite(d4.lo).all() and np.isfinite(d4.hi).all()
    assert X.err.tolist() == [True, False]
    Y = lanes([Interval(-2.0, -1.0), Interval(1.0, 2.0)])
    assert (Y.log() * 0.0).is_zero()
    assert Y.err.tolist() == [True, False]


def test_array_join_and_split():
    """join puts two arrays' lanes side by side on a fresh mask that starts
    as both of theirs; split hands the halves back on a given mask, which
    takes in a flag from either half.  Endpoints keep their bits, -0.0
    included."""
    right = lanes([Interval(-0.0, 1.0), Interval(2.0, 3.0)])
    left = lanes([Interval(-4.0, -0.0), Interval(0.5, 0.75)])
    left.err[0] = True
    both = right.join(left)
    assert [bits(both, i) for i in range(4)] == [bits(right, 0), bits(right, 1), bits(left, 0), bits(left, 1)]
    assert both.err.tolist() == [False, False, True, False]
    assert both.err is not right.err and both.err is not left.err
    both.err[1] = True
    err = np.zeros(2, bool)
    first, second = both.split(err)
    assert err.tolist() == [True, True]
    assert first.err is err and second.err is err
    assert [bits(first, i) for i in range(2)] == [bits(right, 0), bits(right, 1)]
    assert [bits(second, i) for i in range(2)] == [bits(left, 0), bits(left, 1)]


@pytest.mark.parametrize("name", ["half", "hull", "mid", "mag", "mig", "is_subset", "__eq__"])
def test_array_rejects_one_answer_methods(name):
    """Lanes are not an Interval: the queries that would need one answer for
    all lanes do not exist on them, so none can return a plain Interval
    without the flag mask (half) or fail on a numpy truth value, and ``==``
    raises a TypeError naming it."""
    X = IntervalArray(np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.zeros(2, bool))
    assert not isinstance(X, Interval)
    if name == "__eq__":
        for other in (X, Interval(1.0, 3.0)):
            with pytest.raises(TypeError, match=name):
                X == other
            with pytest.raises(TypeError, match=name):
                other == X
    else:
        assert not hasattr(X, name)
        with pytest.raises(AttributeError, match=name):
            getattr(X, name)


def _step_values(rng):
    """±0, ±5e-324, the smallest normal and its neighbours, every power of
    two in the double range with its two neighbours, ±max, and 10^6 random
    finite bit patterns."""
    normal = np.array([sys.float_info.min])
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    fixed = np.concatenate(
        ([0.0, 5e-324, sys.float_info.max], normal, np.nextafter(normal, 0.0), np.nextafter(normal, 1.0), powers)
    )
    fixed = np.concatenate((fixed, np.nextafter(fixed, -np.inf), np.nextafter(fixed, np.inf)))
    fixed = fixed[np.isfinite(fixed)]
    patterns = rng.integers(-(2**63), 2**63, 10**6, dtype=np.int64, endpoint=False).view(np.float64)
    return np.concatenate((fixed, -fixed, patterns[np.isfinite(patterns)]))


def test_round_out_is_nextafter():
    """The lanes' integer step gives np.nextafter's bits on both rows, and
    flags exactly where the rounded lo is -inf or the rounded hi is +inf."""
    rng = np.random.default_rng(18)
    values = _step_values(rng)
    for lo, hi in ((values, rng.permutation(values)), (rng.permutation(values), values)):
        err = np.zeros(lo.size, bool)
        e = interval._round_out(np.stack((-lo, hi)), err)
        want_lo, want_hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        assert np.array_equal((-e[0]).view(np.int64), want_lo.view(np.int64))
        assert np.array_equal(e[1].view(np.int64), want_hi.view(np.int64))
        assert np.array_equal(err, (want_lo == -np.inf) | (want_hi == np.inf))
        assert err.any()


def test_round_out_flags_infinities_as_nextafter_does():
    """Raw infinite endpoints (and NaN, which is never flagged) against the
    same flag rule."""
    ends = np.array([np.inf, -np.inf, np.nan, 1.0])
    lo, hi = np.repeat(ends, ends.size), np.tile(ends, ends.size)
    err = np.zeros(lo.size, bool)
    interval._round_out(np.stack((-lo, hi)), err)
    assert np.array_equal(err, (np.nextafter(lo, -np.inf) == -np.inf) | (np.nextafter(hi, np.inf) == np.inf))
