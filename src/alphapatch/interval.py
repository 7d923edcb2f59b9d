"""Outward-rounded interval arithmetic over double endpoints.

Every rigorous computation in this package bottoms out here.  Endpoints are
finite doubles; each primitive arithmetic operation rounds both endpoints one
representable number outward, which over-approximates the at-most-half-ulp
error of round-to-nearest.  Elementary functions go through libm and are
padded by two ulps per endpoint, which covers any libm with less than one ulp
of error (true of glibc/musl for the functions used here); monotone pieces
are evaluated at the endpoints and sin/cos account for interior extrema.

Intervals are immutable and the functions are pure, so everything in this
module is safe to share across threads and processes.

:class:`IntervalArray` holds many independent intervals ("lanes") in numpy
arrays and gives, lane by lane, bit for bit what :class:`Interval` gives.
Arithmetic runs in numpy, where IEEE basic operations are correctly rounded
too.  The lanes keep their endpoints as one (2, n) array [-lo; hi], so
rounding lo down is rounding -lo up, and one integer step on the int64 view
rounds every endpoint of an operation outward: the bits of ``np.nextafter``
for every finite double, at a fraction of its cost.  A lane is flagged where
either row reaches the largest double before the step, which is exactly
where the outward step would overflow to an infinity.  exp, log, sin and
cos go through ``math`` lane by lane, so the two-ulp padding (still
``np.nextafter``) keeps covering the same libm.  A lane whose
:class:`Interval` evaluation would raise is flagged instead.
All arrays derived from one batch share one mutable flag mask, so a failure
anywhere in lane i's evaluation marks lane i even where a later operation
(a product with an exact zero, say) hides it in the values.  numpy may warn
about the flagged lanes; batches run under ``np.errstate(all="ignore")``.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

import numpy as np

__all__ = [
    "Interval",
    "IntervalArray",
    "SignOutcome",
    "IntervalError",
    "DivisionByZeroInterval",
    "DomainViolation",
    "EndpointOverflow",
    "PI",
    "TWO_PI",
    "SQRT3_THIRD",
]

_INF = math.inf
_NEXT = math.nextafter
_ISFINITE = math.isfinite
_MAX = sys.float_info.max


class IntervalError(ArithmeticError):
    """Base class for interval evaluation failures.

    These signal "this enclosure degenerated, subdivide or bail", and the
    adaptive drivers treat them exactly that way.
    """


class DivisionByZeroInterval(IntervalError):
    """Denominator interval contains zero."""


class DomainViolation(IntervalError):
    """Argument interval leaves the domain of the function (log/sqrt/pow of
    an interval touching zero, ...)."""


class EndpointOverflow(IntervalError):
    """An endpoint overflowed the double range; we refuse to widen to inf."""


class SignOutcome(Enum):
    """Verdict of a sign-certification run."""

    ALL_POSITIVE = "positive"
    ALL_NEGATIVE = "negative"
    INDETERMINATE = "indeterminate"


class Interval:
    """Closed interval [lo, hi] with finite double endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        lo = float(lo)
        hi = lo if hi is None else float(hi)
        if not (_ISFINITE(lo) and _ISFINITE(hi)):
            raise EndpointOverflow(f"non-finite endpoint: [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"lo > hi: [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    # -- constructors ------------------------------------------------------

    @classmethod
    def around(cls, x):
        """Smallest interval strictly containing the real whose nearest
        double is ``x`` (one ulp out on both sides)."""
        x = float(x)
        return _mk(_NEXT(x, -_INF), _NEXT(x, _INF))

    # -- basic queries -----------------------------------------------------

    def width(self):
        return self.hi - self.lo

    def mid(self):
        m = 0.5 * (self.lo + self.hi)
        if not _ISFINITE(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        return m

    def mag(self):
        """max |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def mig(self):
        """min |x| over the interval (0 if it straddles zero)."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def is_subset(self, other):
        return other.lo <= self.lo and self.hi <= other.hi

    def is_zero(self):
        return self.lo == 0.0 and self.hi == 0.0

    def hull(self, other):
        return _mk(min(self.lo, other.lo), max(self.hi, other.hi))

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented  # lanes answer (by raising) for themselves
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Interval:
            if isinstance(other, (int, float)):
                other = Interval(other)
            else:
                return NotImplemented
        if other.lo == 0.0 and other.hi == 0.0:
            return self
        if self.lo == 0.0 and self.hi == 0.0:
            return other
        return _out(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Interval:
            if isinstance(other, (int, float)):
                other = Interval(other)
            else:
                return NotImplemented
        if other.lo == 0.0 and other.hi == 0.0:
            return self
        if self.lo == 0.0 and self.hi == 0.0:
            return _mk(-other.hi, -other.lo)
        return _out(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return Interval(other) - self
        return NotImplemented

    def __mul__(self, other):
        if type(other) is not Interval:
            if isinstance(other, (int, float)):
                other = Interval(other)
            else:
                return NotImplemented
        a, b = self.lo, self.hi
        c, d = other.lo, other.hi
        if (a == 0.0 and b == 0.0) or (c == 0.0 and d == 0.0):
            return ZERO
        p1 = a * c
        p2 = a * d
        p3 = b * c
        p4 = b * d
        return _out(min(p1, p2, p3, p4), max(p1, p2, p3, p4))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Interval:
            if isinstance(other, (int, float)):
                other = Interval(other)
            else:
                return NotImplemented
        c, d = other.lo, other.hi
        if c <= 0.0 <= d:
            raise DivisionByZeroInterval(f"denominator {other!r} contains 0")
        if self.lo == 0.0 and self.hi == 0.0:
            return ZERO
        a, b = self.lo, self.hi
        q1 = a / c
        q2 = a / d
        q3 = b / c
        q4 = b / d
        return _out(min(q1, q2, q3, q4), max(q1, q2, q3, q4))

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return Interval(other) / self
        return NotImplemented

    def __neg__(self):
        return _mk(-self.hi, -self.lo)

    def half(self):
        """x/2 without outward padding (halving a double is exact)."""
        return _mk(0.5 * self.lo, 0.5 * self.hi)

    def require(self, ok, error):
        """Raise ``error()`` unless ``ok``.  On an :class:`IntervalArray`,
        ``ok`` is a lane mask and the lanes where it is False are flagged."""
        if not ok:
            raise error()

    # -- elementary functions ----------------------------------------------

    def sqr(self):
        """x^2 with the dependency handled (never spuriously negative)."""
        a, b = self.lo, self.hi
        if a <= 0.0 <= b:
            m = max(-a, b)
            hi = m * m
            hi = _NEXT(hi, _INF)
            if not _ISFINITE(hi):
                raise EndpointOverflow("sqr overflow")
            return _mk(0.0, hi)
        if a > 0.0:
            return _out(a * a, b * b)
        return _out(b * b, a * a)

    def powi(self, n):
        """Integer power, tight on even powers and monotone on odd ones."""
        if n == 0:
            return ONE
        if n < 0:
            return ONE / self.powi(-n)
        if n == 1:
            return self
        if n == 2:
            return self.sqr()
        if n % 2 == 0:
            half = self.powi(n // 2)
            return half.sqr()
        # odd power via interval squaring chain, keeps every step outward
        return self * self.sqr().powi((n - 1) // 2)

    def sqrt(self):
        if self.lo <= 0.0:
            raise DomainViolation(f"sqrt of {self!r} touching <= 0")
        return _mk(_pad2dn(math.sqrt(self.lo)), _pad2up(math.sqrt(self.hi)))

    def exp(self):
        try:
            lo = _pad2dn(math.exp(self.lo))
            hi = math.exp(self.hi)
        except OverflowError:
            raise EndpointOverflow("exp overflow") from None
        if lo < 0.0:
            lo = 0.0
        if not _ISFINITE(hi):
            raise EndpointOverflow("exp overflow")
        return _mk(lo, _pad2up(hi))

    def log(self):
        if self.lo <= 0.0:
            raise DomainViolation(f"log of {self!r} touching <= 0")
        return _mk(_pad2dn(math.log(self.lo)), _pad2up(math.log(self.hi)))

    def pow(self, p):
        """x^p for interval (or scalar) exponent, as exp(p * log x).

        Requires lo > 0, as log() does: a base touching zero means an
        arc-chord enclosure degenerated and the caller has to subdivide.
        """
        return (p * self.log()).exp()

    def sin(self):
        return _sin_cos(self, 0)

    def cos(self):
        return _sin_cos(self, 1)


def _mk(lo, hi):
    iv = Interval.__new__(Interval)
    iv.lo = lo
    iv.hi = hi
    return iv


def _out(lo, hi):
    lo = _NEXT(lo, -_INF)
    hi = _NEXT(hi, _INF)
    if not (_ISFINITE(lo) and _ISFINITE(hi)):
        raise EndpointOverflow(f"endpoint overflow: [{lo}, {hi}]")
    return _mk(lo, hi)


def _pad2up(x):
    x = _NEXT(_NEXT(x, _INF), _INF)
    if not _ISFINITE(x):
        raise EndpointOverflow("overflow in elementary function")
    return x


def _pad2dn(x):
    x = _NEXT(_NEXT(x, -_INF), -_INF)
    if not _ISFINITE(x):
        raise EndpointOverflow("overflow in elementary function")
    return x


def _sin_cos(X, which):
    """Shared sin/cos core.  which=0 for sin, 1 for cos.

    Endpoint evaluations padded by 2 ulp; an extremum of the appropriate
    parity forces the corresponding bound to exactly +-1.  Extrema of sin
    sit at pi/2 + k*pi, of cos at k*pi; the intersection test runs against
    interval enclosures of those points so an off-by-an-ulp argument can
    only widen the result.
    """
    a, b = X.lo, X.hi
    if b - a >= TWO_PI.hi or max(abs(a), abs(b)) > 1e12:
        return _mk(-1.0, 1.0)
    f = math.sin if which == 0 else math.cos
    va = f(a)
    vb = f(b)
    lo = max(_pad2dn(min(va, vb)), -1.0)
    hi = min(_pad2up(max(va, vb)), 1.0)
    # critical points: x = (k + 1/2) pi for sin, x = k pi for cos; at both
    # families the extremum value is +1 for even k and -1 for odd k
    shift = 0.5 if which == 0 else 0.0
    k_lo = int(math.floor(a / math.pi - shift)) - 1
    k_hi = int(math.ceil(b / math.pi - shift)) + 1
    table = _CRIT[which]
    for k in range(k_lo, k_hi + 1):
        if -_CRIT_K <= k <= _CRIT_K:
            crit = table[k + _CRIT_K]
        else:
            crit = PI * (k + shift)
        if crit.hi >= a and crit.lo <= b:
            if k % 2 == 0:
                hi = 1.0
            else:
                lo = -1.0
    # sign clamps from exact range facts: sin >= 0 on [0, pi], <= 0 on
    # [-pi, 0]; cos >= 0 on [-pi/2, pi/2].  (math.pi < pi, so the float
    # comparisons below are conservative.)
    if which == 0:
        if a >= 0.0 and b <= math.pi:
            lo = max(lo, 0.0)
        elif b <= 0.0 and a >= -math.pi:
            hi = min(hi, 0.0)
    else:
        if a >= -math.pi / 2 and b <= math.pi / 2:
            lo = max(lo, 0.0)
    if lo > hi:  # can only happen through over-eager clamps; keep containment
        lo, hi = min(lo, hi), max(lo, hi)
    return _mk(lo, hi)


ZERO = Interval(0.0, 0.0)
ONE = Interval(1.0, 1.0)

# math.pi rounds down from the true value, so [math.pi, nextafter] encloses pi
PI = _mk(math.pi, _NEXT(math.pi, _INF))
TWO_PI = _mk(math.tau, _NEXT(math.tau, _INF))
SQRT3_THIRD = Interval(3.0).sqrt() / 3.0

# enclosures of the sin/cos critical points pi * (k + 1/2) and pi * k for
# |k| <= _CRIT_K, formed once rather than on every call; indexed by k + _CRIT_K
_CRIT_K = 64
_CRIT = tuple(
    tuple(PI * (k + shift) for k in range(-_CRIT_K, _CRIT_K + 1)) for shift in (0.5, 0.0)
)


def _crit_arrays(table, parity):
    """Ends of the table's enclosures for k of one parity (a maximum for
    even k, a minimum for odd k), ascending; a +inf lower end closes them."""
    picked = [c for k, c in zip(range(-_CRIT_K, _CRIT_K + 1), table) if k % 2 == parity]
    return np.array([c.lo for c in picked] + [math.inf]), np.array([c.hi for c in picked])


# [sin, cos][even k, odd k] -> (lower ends, upper ends)
_CRIT_ARRAYS = tuple(tuple(_crit_arrays(table, parity) for parity in (0, 1)) for table in _CRIT)

# |argument| bound of the vectorised sin/cos lanes: their critical points
# then stay well inside the table
_SIN_COS_ARG = 150.0
# exp lanes above this run on the scalar path, which owns the overflow rules
_EXP_ARG = 709.0


# ---------------------------------------------------------------------------
# lanes of intervals
# ---------------------------------------------------------------------------


def _dn(x):
    return np.nextafter(x, -np.inf)


def _up(x):
    return np.nextafter(x, np.inf)


def _round_out(e, err):
    """Round the endpoints ``e`` = [-lo; hi] of every lane outward, in place,
    and flag in ``err`` the lanes whose rounded lo is -inf or hi is +inf.

    Rounding lo down is rounding -lo up, so the step moves every entry of
    ``e`` to the next double above it.  On the int64 view of a double that
    is +1 for a positive sign bit and -1 for a negative one, once
    ``e += 0.0`` has turned -0.0 into +0.0, whose next double up is the
    smallest subnormal.  For every finite double this gives the bits of
    ``np.nextafter(x, inf)``.  It takes sys.float_info.max to +inf, so a
    lane is flagged, before the step, where either row is at least that:
    exactly where ``np.nextafter`` would land on -inf (lo) or +inf (hi).
    An infinity does not step as ``np.nextafter`` steps it, but its lane is
    flagged already.  The flag ignores NaN, which arises only in lanes
    flagged already.
    """
    err |= np.fmax(e[0], e[1]) >= _MAX_0D
    e += _ZERO_0D
    bits = e.view(np.int64)
    step = bits >> _SIGN_SHIFT_0D
    step |= _ONE_0D
    bits += step
    return e


# the step's operands as 0-d arrays, which numpy takes up faster than Python
# scalars (about 1 us of the step's 4 at 8 lanes, numpy 2.4)
_MAX_0D = np.array(_MAX)
_ZERO_0D = np.array(0.0)
_SIGN_SHIFT_0D = np.array(63, np.int64)
_ONE_0D = np.array(1, np.int64)


def _map(fn, x):
    """``fn`` (a libm function from ``math``) on every element of ``x``."""
    return np.fromiter(map(fn, x.tolist()), np.float64, x.size)


def _zero_lanes(e):
    """Mask of the lanes of ``e`` = [-lo; hi] equal to [0, 0], or False if
    there are none."""
    zero = (e[0] == 0.0) & (e[1] == 0.0)
    return zero if np.count_nonzero(zero) else False


def _is_zero(iv):
    """The lanes of ``iv`` equal to [0, 0] (False if none); a plain bool for
    a single interval."""
    if isinstance(iv, IntervalArray):
        return iv.zero
    return iv.lo == 0.0 and iv.hi == 0.0


def _both_zero(zx, zy):
    zero = zx & zy
    return zero if zero is not False and np.count_nonzero(zero) else False


def _operand(x):
    if isinstance(x, (Interval, IntervalArray)):
        return x
    if isinstance(x, (int, float)):
        return Interval(x)
    return None


def _lanes_of(x, y):
    return x if isinstance(x, IntervalArray) else y


def _ends(x):
    """The [-lo; hi] endpoints of lanes, or of a single interval as a (2, 1)
    column that applies to every lane.  The column is built afresh: a cache
    keyed by value would take Interval(-0.0) for Interval(0.0)."""
    if isinstance(x, IntervalArray):
        return x.e
    return np.array(((-x.lo,), (x.hi,)))


def _lanes(e, err, zero=None):
    """Lanes with the endpoints ``e`` = [-lo; hi], as they are."""
    x = IntervalArray.__new__(IntervalArray)
    x.e = e
    x.err = err
    x.zero = _zero_lanes(e) if zero is None else zero
    return x


# [-lo; hi] of [0, 0]: lo = +0.0 is -lo = -0.0
_ZERO_ENDS = np.array(((-0.0,), (0.0,)))


def _hull(p, q):
    """[-lo; hi] of the hull of the four values in the rows of ``p`` and
    ``q`` (overwriting ``p``): hi is their maximum, and -lo the negated
    minimum, exactly."""
    e = np.maximum(p, q)
    np.minimum(p, q, out=p)
    np.maximum(e[0], e[1], out=e[1])
    np.minimum(p[0], p[1], out=e[0])
    np.negative(e[0], out=e[0])
    return e


def _add(x, y):
    """x + y lane by lane, as ``Interval.__add__(x, y)``."""
    zx, zy = _is_zero(x), _is_zero(y)
    if zy is True:
        return x
    if zx is True and zy is False:
        return y
    batch = _lanes_of(x, y)
    ex, ey = _ends(x), _ends(y)
    e = _round_out(ex + ey, batch.err)
    if (zx | zy) is not False:
        e = np.where(zy, ex, np.where(zx, ey, e))
    return _lanes(e, batch.err, _both_zero(zx, zy))


def _sub(x, y):
    """x - y lane by lane, as ``Interval.__sub__(x, y)``."""
    zx, zy = _is_zero(x), _is_zero(y)
    if zy is True:
        return x
    if zx is True and zy is False:
        return -y
    batch = _lanes_of(x, y)
    ex, ey = _ends(x), _ends(y)[::-1]  # the endpoints of -y
    e = _round_out(ex + ey, batch.err)
    if (zx | zy) is not False:
        e = np.where(zy, ex, np.where(zx, ey, e))
    return _lanes(e, batch.err, _both_zero(zx, zy))


def _mul(x, y):
    """x * y lane by lane for lanes ``x``, as ``Interval.__mul__``.  The
    product is symmetric bit for bit (the same four products; the outward
    step erases the sign of a zero), so ``y * x`` comes here too.

    With x = [a, b] and y = [c, d], the rows of ``x.e`` times those of
    ``y.e`` are ac and bd, and times those of [-d; c] they are ad and bc:
    negating a factor negates a product exactly."""
    zy = _is_zero(y)
    if zy is True:
        return ZERO
    ex = x.e
    if isinstance(y, IntervalArray) or y.lo != y.hi:
        ey = _ends(y)
        e = _hull(ex * ey, ex * -ey[::-1])
    elif y.lo > 0.0:  # a point factor: rounding is monotone, so a*c <= b*c
        e = ex * y.lo
    else:
        e = ex[::-1] * -y.lo
    _round_out(e, x.err)
    zero = x.zero | zy
    if zero is not False:
        np.copyto(e, _ZERO_ENDS, where=zero)
    return _lanes(e, x.err, zero)


def _div(x, y):
    """x / y lane by lane, as ``Interval.__truediv__(x, y)``; the four
    quotients come as in :func:`_mul`."""
    batch = _lanes_of(x, y)
    if isinstance(y, IntervalArray):
        batch.err |= (y.e[0] >= 0.0) & (y.e[1] >= 0.0)  # c <= 0 <= d
    elif y.lo <= 0.0 <= y.hi:
        raise DivisionByZeroInterval(f"denominator {y!r} contains 0")
    zx = _is_zero(x)
    if zx is True:
        return ZERO
    ex = _ends(x)
    if isinstance(y, IntervalArray) or y.lo != y.hi:
        ey = _ends(y)
        e = _hull(ex / ey, ex / -ey[::-1])
    elif y.lo > 0.0:  # a point divisor: rounding is monotone
        e = ex / y.lo
    else:
        e = ex[::-1] / -y.lo
    _round_out(e, batch.err)
    if zx is not False:
        np.copyto(e, _ZERO_ENDS, where=zx)
    return _lanes(e, batch.err, zx)


class IntervalArray:
    """Independent intervals ("lanes") with float64 array endpoints.

    Every operation gives, lane by lane, the bits :class:`Interval` gives,
    including its zero short-circuits and signed zeros.  Where
    :class:`Interval` would raise, the lane is flagged in ``err`` instead: a
    bool array shared by every array derived from one batch.  The endpoints
    of a flagged lane mean nothing.  An operand may be another array of the
    same batch, a single interval or a number, which then applies to every
    lane.  It is not an :class:`Interval`: it has only the lane-by-lane
    operations the integrands use, and none of the queries that would need
    one answer for all lanes (``mid``, ``hull`` and the like); ``==``
    raises :class:`TypeError`.

    The endpoints live in one (2, n) array ``e`` = [-lo; hi].  Both rows
    then round in the same direction, up, so every arithmetic operation
    rounds all its endpoints with one integer step (:func:`_round_out`).
    Negation is the reversed view ``e[::-1]``, and a difference is a sum
    with it.  Negating a double is exact, so each row holds the bits of the
    endpoint :class:`Interval` computes or of its negation (a lane with
    lo = +0.0 holds -0.0 in row 0).  ``lo`` is a fresh array, ``-e[0]``,
    and ``hi`` the view ``e[1]``.

    ``zero`` masks the lanes equal to [0, 0], or is False if there are none,
    which is what the zero short-circuits test.  It is worked out here
    unless the operation knows it: an outward-rounded endpoint pair is never
    [0, 0], so only the short-circuited lanes can be.
    """

    __slots__ = ("e", "err", "zero")
    __array_ufunc__ = None  # a numpy scalar operand defers to the methods below

    def __init__(self, lo, hi, err, zero=None):
        e = np.empty((2, lo.size))
        np.negative(lo, out=e[0])
        e[1] = hi
        self.e = e
        self.err = err
        self.zero = _zero_lanes(e) if zero is None else zero

    @property
    def lo(self):
        return -self.e[0]

    @property
    def hi(self):
        return self.e[1]

    @classmethod
    def batch(cls, lo, hi):
        """The point arrays [lo, lo] and [hi, hi] and the array [lo, hi],
        sharing one fresh flag mask."""
        err = np.zeros(lo.size, bool)
        return cls(lo, lo, err), cls(hi, hi, err), cls(lo, hi, err)

    def __add__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _add(self, other)

    def __radd__(self, other):
        # Interval + lanes adds in that order; a number + Interval adds the
        # number to the interval (Interval.__radd__)
        if isinstance(other, Interval):
            return _add(other, self)
        other = _operand(other)
        return NotImplemented if other is None else _add(self, other)

    def __sub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _sub(self, other)

    def __rsub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _sub(other, self)

    def __mul__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _div(self, other)

    def __rtruediv__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else _div(other, self)

    def __neg__(self):
        return _lanes(self.e[::-1], self.err, self.zero)

    def join(self, other):
        """The lanes of self, then those of other, on a fresh flag mask that
        starts as both of theirs."""
        return _lanes(np.concatenate((self.e, other.e), axis=1), np.concatenate((self.err, other.err)))

    def split(self, err):
        """The two halves of the lanes, each err.size long and both on the
        flag mask err, which takes in the flags of either half."""
        n = err.size
        err |= self.err[:n] | self.err[n:]
        return _lanes(self.e[:, :n], err), _lanes(self.e[:, n:], err)

    def __eq__(self, other):
        raise TypeError("IntervalArray.__eq__ needs one answer for all lanes; it is not supported")

    def is_zero(self):
        """True only if every lane is [0, 0]."""
        return self.zero is not False and bool(self.zero.all())

    def require(self, ok, error):
        self.err |= ~ok

    def _scalar_lanes(self, lo, hi, lanes, method):
        """(lo, hi) with the unflagged ``lanes`` recomputed by the single-
        interval ``method`` (exp, sin or cos); a lane where it raises (an
        exp overflow) is flagged."""
        own_lo, own_hi = self.lo, self.hi
        for i in np.flatnonzero(lanes & ~self.err).tolist():
            try:
                r = method(Interval(own_lo[i], own_hi[i]))
            except IntervalError:
                self.err[i] = True
            else:
                lo[i], hi[i] = r.lo, r.hi
        return IntervalArray(lo, hi, self.err)

    # -- elementary functions ----------------------------------------------

    def sqr(self):
        e = self.e
        sq = e * e  # [a^2; b^2]
        out = np.empty_like(sq)
        np.maximum(sq[0], sq[1], out=out[1])
        np.minimum(sq[0], sq[1], out=out[0])
        np.negative(out[0], out=out[0])
        _round_out(out, self.err)
        # a lane across zero has lo = +0.0: -lo = -0.0
        np.copyto(out[0], -0.0, where=(e[0] >= 0.0) & (e[1] >= 0.0))
        return _lanes(out, self.err, False)

    powi = Interval.powi

    def sqrt(self):
        lo, hi = self.lo, self.hi
        ok = lo > 0.0  # Interval.sqrt raises on the others
        self.require(ok, None)
        lo = _dn(_dn(np.sqrt(np.where(ok, lo, 1.0))))
        hi = _up(_up(np.sqrt(np.where(ok, hi, 1.0))))
        return IntervalArray(lo, hi, self.err)

    def exp(self):
        lo, hi = self.lo, self.hi
        slow = ~(hi <= _EXP_ARG)
        lo = _dn(_dn(_map(math.exp, np.where(slow, 0.0, lo))))
        lo = np.where(lo < 0.0, 0.0, lo)
        hi = _up(_up(_map(math.exp, np.where(slow, 0.0, hi))))
        return self._scalar_lanes(lo, hi, slow, Interval.exp)

    def log(self):
        lo, hi = self.lo, self.hi
        ok = lo > 0.0  # Interval.log raises on the others
        self.require(ok, None)
        lo = _dn(_dn(_map(math.log, np.where(ok, lo, 1.0))))
        hi = _up(_up(_map(math.log, np.where(ok, hi, 1.0))))
        return IntervalArray(lo, hi, self.err)

    def pow(self, p):
        return (_operand(p) * self.log()).exp()

    def sin(self):
        return _sin_cos_lanes(self, 0)

    def cos(self):
        return _sin_cos_lanes(self, 1)


def _sin_cos_lanes(X, which):
    """:func:`_sin_cos` on every lane; lanes with a large argument or width
    run through :func:`_sin_cos` itself."""
    a, b = X.lo, X.hi
    slow = ~((-_SIN_COS_ARG <= a) & (b <= _SIN_COS_ARG) & (b - a < TWO_PI.hi))
    a, b = np.where(slow, 0.0, a), np.where(slow, 0.0, b)
    f = math.sin if which == 0 else math.cos
    va, vb = _map(f, a), _map(f, b)
    lo = np.maximum(_dn(_dn(np.minimum(va, vb))), -1.0)
    hi = np.minimum(_up(_up(np.maximum(va, vb))), 1.0)
    # _sin_cos's k window holds every critical-point enclosure that meets
    # [a, b].  The enclosures of one parity are ordered, so one of them
    # meets [a, b] exactly if the first whose upper end reaches a has its
    # lower end at most b.
    (even_lo, even_hi), (odd_lo, odd_hi) = _CRIT_ARRAYS[which]
    hi = np.where(even_lo[np.searchsorted(even_hi, a)] <= b, 1.0, hi)
    lo = np.where(odd_lo[np.searchsorted(odd_hi, a)] <= b, -1.0, lo)
    if which == 0:
        clamp_lo = (a >= 0.0) & (b <= math.pi)
        clamp_hi = ~clamp_lo & (b <= 0.0) & (a >= -math.pi)
        hi = np.where(clamp_hi & (0.0 < hi), 0.0, hi)
    else:
        clamp_lo = (a >= -math.pi / 2) & (b <= math.pi / 2)
    lo = np.where(clamp_lo & (0.0 > lo), 0.0, lo)
    swap = lo > hi
    lo, hi = np.where(swap, hi, lo), np.where(swap, lo, hi)
    return X._scalar_lanes(lo, hi, slow, Interval.sin if which == 0 else Interval.cos)
