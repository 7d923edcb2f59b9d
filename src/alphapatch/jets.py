"""Order-4 differentiation arithmetic over intervals.

A :class:`Jet4` carries an interval enclosure of a function value together
with enclosures of its derivatives of orders 1..4 with respect to the
integration variable.  Internally the five slots hold normalized Taylor
coefficients c_k = f^(k)/k!, which makes the composition rules (Cauchy
products, series division, the classic ODE recurrences for exp/log/sin/cos)
short and keeps every step inside interval arithmetic, so containment holds
at every order.

The only consumer of order four is the Gauss-Legendre remainder, hence the
fixed truncation.  Jets are immutable and thread-safe like intervals.
"""

from __future__ import annotations

from .interval import Interval, IntervalArray, ZERO, ONE

__all__ = ["Jet4"]

_FACT = (1.0, 1.0, 2.0, 6.0, 24.0)


def _as_interval(x):
    if isinstance(x, (Interval, IntervalArray)):
        return x
    return Interval(x)


class Jet4:
    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = tuple(coeffs)

    @classmethod
    def variable(cls, value):
        """Jet of the integration variable itself at ``value``."""
        return cls((_as_interval(value), ONE, ZERO, ZERO, ZERO))

    @classmethod
    def constant(cls, value):
        return cls((_as_interval(value), ZERO, ZERO, ZERO, ZERO))

    # -- derivative access ---------------------------------------------------

    def deriv(self, k):
        """Interval enclosure of the k-th derivative (k = 0..4)."""
        if k < 2 or self.c[k].is_zero():  # 0! = 1! = 1, and zero stays zero
            return self.c[k]
        return self.c[k] * _FACT[k]

    @property
    def d0(self):
        return self.c[0]

    def __repr__(self):
        return f"Jet4({self.c!r})"

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet4):
            a, b = self.c, other.c
            return Jet4((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4]))
        if isinstance(other, (Interval, IntervalArray, int, float)):
            a = self.c
            return Jet4((a[0] + other, a[1], a[2], a[3], a[4]))
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet4):
            a, b = self.c, other.c
            return Jet4((a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3], a[4] - b[4]))
        if isinstance(other, (Interval, IntervalArray, int, float)):
            a = self.c
            return Jet4((a[0] - other, a[1], a[2], a[3], a[4]))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        a = self.c
        return Jet4((-a[0], -a[1], -a[2], -a[3], -a[4]))

    def __mul__(self, other):
        if isinstance(other, Jet4):
            a, b = self.c, other.c
            return Jet4(
                (
                    a[0] * b[0],
                    a[0] * b[1] + a[1] * b[0],
                    a[0] * b[2] + a[1] * b[1] + a[2] * b[0],
                    a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0],
                    a[0] * b[4] + a[1] * b[3] + a[2] * b[2] + a[3] * b[1] + a[4] * b[0],
                )
            )
        if isinstance(other, (Interval, IntervalArray, int, float)):
            a = self.c
            return Jet4((a[0] * other, a[1] * other, a[2] * other, a[3] * other, a[4] * other))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet4):
            a, b = self.c, other.c
            b0 = b[0]
            q0 = a[0] / b0
            q1 = (a[1] - b[1] * q0) / b0
            q2 = (a[2] - b[1] * q1 - b[2] * q0) / b0
            q3 = (a[3] - b[1] * q2 - b[2] * q1 - b[3] * q0) / b0
            q4 = (a[4] - b[1] * q3 - b[2] * q2 - b[3] * q1 - b[4] * q0) / b0
            return Jet4((q0, q1, q2, q3, q4))
        if isinstance(other, (Interval, IntervalArray, int, float)):
            o = _as_interval(other)
            a = self.c
            return Jet4((a[0] / o, a[1] / o, a[2] / o, a[3] / o, a[4] / o))
        return NotImplemented

    def __rtruediv__(self, other):
        return Jet4.constant(other) / self

    def sqr(self):
        a = self.c
        return Jet4(
            (
                a[0].sqr(),
                2.0 * (a[0] * a[1]),
                2.0 * (a[0] * a[2]) + a[1].sqr(),
                2.0 * (a[0] * a[3] + a[1] * a[2]),
                2.0 * (a[0] * a[4] + a[1] * a[3]) + a[2].sqr(),
            )
        )

    def powi(self, n):
        if n == 0:
            return Jet4.constant(ONE)
        if n < 0:
            return Jet4.constant(ONE) / self.powi(-n)
        if n == 1:
            return self
        if n % 2 == 0:
            return self.powi(n // 2).sqr()
        return self * self.sqr().powi((n - 1) // 2)

    # -- elementary compositions ----------------------------------------------

    def exp(self):
        a = self.c
        e0 = a[0].exp()
        e1 = a[1] * e0
        e2 = (2.0 * (a[2] * e0) + a[1] * e1) / 2.0
        e3 = (3.0 * (a[3] * e0) + 2.0 * (a[2] * e1) + a[1] * e2) / 3.0
        e4 = (4.0 * (a[4] * e0) + 3.0 * (a[3] * e1) + 2.0 * (a[2] * e2) + a[1] * e3) / 4.0
        return Jet4((e0, e1, e2, e3, e4))

    def log(self):
        a = self.c
        a0 = a[0]
        l0 = a0.log()
        l1 = a[1] / a0
        l2 = (a[2] - (a[1] * l1) / 2.0) / a0
        l3 = (a[3] - (a[2] * l1 + 2.0 * (a[1] * l2)) / 3.0) / a0
        l4 = (a[4] - (a[3] * l1 + 2.0 * (a[2] * l2) + 3.0 * (a[1] * l3)) / 4.0) / a0
        return Jet4((l0, l1, l2, l3, l4))

    def sin_cos(self):
        """(sin of jet, cos of jet) in one joint recurrence."""
        a = self.c
        s0 = a[0].sin()
        c0 = a[0].cos()
        s1 = a[1] * c0
        c1 = -(a[1] * s0)
        s2 = (a[1] * c1 + 2.0 * (a[2] * c0)) / 2.0
        c2 = -(a[1] * s1 + 2.0 * (a[2] * s0)) / 2.0
        s3 = (a[1] * c2 + 2.0 * (a[2] * c1) + 3.0 * (a[3] * c0)) / 3.0
        c3 = -(a[1] * s2 + 2.0 * (a[2] * s1) + 3.0 * (a[3] * s0)) / 3.0
        s4 = (a[1] * c3 + 2.0 * (a[2] * c2) + 3.0 * (a[3] * c1) + 4.0 * (a[4] * c0)) / 4.0
        c4 = -(a[1] * s3 + 2.0 * (a[2] * s2) + 3.0 * (a[3] * s1) + 4.0 * (a[4] * s0)) / 4.0
        return Jet4((s0, s1, s2, s3, s4)), Jet4((c0, c1, c2, c3, c4))

    def sin(self):
        return self.sin_cos()[0]

    def cos(self):
        return self.sin_cos()[1]

    def sqrt(self):
        return self.pow(0.5)

    def pow(self, p):
        """x^p via exp(p log x); one code path for |.|^alpha-style exponents."""
        p = _as_interval(p)
        return (self.log() * p).exp()
