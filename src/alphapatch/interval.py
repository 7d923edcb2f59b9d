"""Outward-rounded interval arithmetic over double endpoints.

Every rigorous computation in this package bottoms out here.  Endpoints are
finite doubles; each primitive arithmetic operation rounds both endpoints one
representable number outward, which over-approximates the at-most-half-ulp
error of round-to-nearest.  Elementary functions go through libm and are
padded by two ulps per endpoint, which covers any libm with less than one ulp
of error (true of glibc/musl for the functions used here); monotone pieces
are evaluated at the endpoints and sin/cos account for interior extrema.

All values are immutable and the functions are pure, so everything in this
module is safe to share across threads and processes.
"""

from __future__ import annotations

import math
from enum import Enum

__all__ = [
    "Interval",
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


class IntervalError(ArithmeticError):
    """Base class for interval evaluation failures.

    These signal "this enclosure degenerated, subdivide or bail", and the
    adaptive drivers treat them exactly that way.
    """


class DivisionByZeroInterval(IntervalError):
    """Denominator interval contains zero."""


class DomainViolation(IntervalError):
    """Argument interval leaves the domain of the function (log/sqrt/pow of
    an interval touching zero, tan across a pole, ...)."""


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

    def contains(self, x):
        return self.lo <= x <= self.hi

    def is_subset(self, other):
        return other.lo <= self.lo and self.hi <= other.hi

    def straddles_zero(self):
        return self.lo <= 0.0 <= self.hi

    def is_zero(self):
        return self.lo == 0.0 and self.hi == 0.0

    def hull(self, other):
        return _mk(min(self.lo, other.lo), max(self.hi, other.hi))

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other):
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

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

    def __abs__(self):
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return _mk(-self.hi, -self.lo)
        return _mk(0.0, max(-self.lo, self.hi))

    def half(self):
        """x/2 without outward padding (halving a double is exact)."""
        return _mk(0.5 * self.lo, 0.5 * self.hi)

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

        Requires lo > 0: a base touching zero means an arc-chord enclosure
        degenerated and the caller has to subdivide instead.
        """
        if not isinstance(p, Interval):
            p = Interval(p)
        if self.lo <= 0.0:
            raise DomainViolation(f"pow of {self!r} touching <= 0")
        return (p * self.log()).exp()

    def sin(self):
        return _sin_cos(self, 0)

    def cos(self):
        return _sin_cos(self, 1)

    def tan(self):
        a, b = self.lo, self.hi
        if b - a >= math.pi:
            raise DomainViolation("tan over an interval wider than a branch")
        # poles at (2k+1) * pi/2; each pole lies strictly inside its
        # enclosure (PI.half() is exact, integer scaling pads outward), so
        # strict overlap tests are sound and an interval may end exactly on
        # an enclosure endpoint
        k_lo = math.floor(a / math.pi - 0.5) - 1
        k_hi = math.ceil(b / math.pi - 0.5) + 1
        half_pi = PI.half()
        for k in range(int(k_lo), int(k_hi) + 1):
            m = 2 * k + 1
            pole = half_pi if abs(m) == 1 else half_pi * abs(m)
            if m < 0:
                pole = -pole  # negation is exact, keeps the enclosure tight
            if pole.hi > a and pole.lo < b:
                raise DomainViolation(f"tan pole near {pole.mid()} inside {self!r}")
        return _mk(_pad2dn(math.tan(a)), _pad2up(math.tan(b)))


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
    for k in range(k_lo, k_hi + 1):
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
