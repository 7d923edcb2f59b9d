"""Validated adaptive integration with a two-node Gauss-Legendre rule.

A single cell [a, b] is enclosed by

    (b-a)/2 * (f(m + h/sqrt(3)) + f(m - h/sqrt(3)))  +  (b-a)^5 f''''([a,b]) / 4320

with m the midpoint, h the half-length, and every quantity (including the
irrational node offsets) evaluated in interval arithmetic, so the enclosure
contains the true integral.  f''''([a,b]) comes from the order-4 jet of the
integrand over the whole cell.

The adaptive driver keeps an explicit worklist, splits a cell at its
midpoint while its enclosure is wider than both tolerances, and caps the
splitting depth; a cell at the depth cap is accepted as-is (the cap guards
against unbounded refinement under wide parameter intervals, it is not an
error).  If the jet evaluation of a cell fails with an interval-domain error
but a zeroth-order evaluation succeeds, the crude bound (b-a)*f([a,b]) is
used for that cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from .interval import Interval, IntervalError, SQRT3_THIRD, ZERO
from .jets import Jet4

__all__ = ["Tolerance", "QuadratureResult", "NonEvaluable", "gl2_enclosure", "adaptive_integrate"]


class NonEvaluable(RuntimeError):
    """The integrand failed on a cell that can no longer be split."""


@dataclass(frozen=True)
class Tolerance:
    abs_tol: float = 1e-6
    rel_tol: float = 1e-6
    max_depth: int = 13

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


@dataclass
class QuadratureResult:
    enclosure: Interval
    subinterval_count: int
    max_depth_hit: bool


def gl2_enclosure(f, a, b):
    """Two-node Gauss-Legendre enclosure of the integral of ``f`` on [a, b].

    ``f`` maps a :class:`Jet4` to a :class:`Jet4`; interval-domain errors
    propagate to the caller, which subdivides.
    """
    if not a < b:
        raise ValueError("need a < b")
    A = Interval(a)
    B = Interval(b)
    m = (A + B) * 0.5
    h = (B - A) * 0.5
    offset = h * SQRT3_THIRD
    n1 = f(Jet4.variable(m + offset)).d0
    n2 = f(Jet4.variable(m - offset)).d0
    body = h * (n1 + n2)
    d4 = f(Jet4.variable(Interval(a, b))).deriv(4)
    remainder = (B - A).powi(5) * d4 / 4320.0
    return body + remainder


def _order0_enclosure(f, a, b):
    # integrands are generic over Jet4 and Interval scalars; plain interval
    # evaluation survives some jet-level failures (abs across zero, ...)
    return (Interval(b) - Interval(a)) * f(Interval(a, b))


def adaptive_integrate(f, a, b, tol=Tolerance()):
    """Adaptive GL2 integration of ``f`` over [a, b] with guaranteed enclosure."""
    if not a < b:
        raise ValueError("need a < b")
    total = ZERO
    count = 0
    depth_hit = False
    stack = [(a, b, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        enc = None
        try:
            enc = gl2_enclosure(f, lo, hi)
        except IntervalError:
            try:
                enc = _order0_enclosure(f, lo, hi)
            except IntervalError:
                enc = None
        length = hi - lo
        at_cap = depth >= tol.max_depth
        mid = 0.5 * (lo + hi)
        splittable = lo < mid < hi
        if enc is not None and (
            enc.width() <= tol.abs_tol
            or enc.width() <= tol.rel_tol * length
            or at_cap
            or not splittable
        ):
            if enc.width() > tol.abs_tol and enc.width() > tol.rel_tol * length:
                depth_hit = True
            total = total + enc
            count += 1
            continue
        if at_cap or not splittable:
            raise NonEvaluable(f"integrand not evaluable on [{lo}, {hi}] at depth cap")
        stack.append((mid, hi, depth + 1))
        stack.append((lo, mid, depth + 1))
    return QuadratureResult(total, count, depth_hit)
