"""Validated adaptive integration with a two-node Gauss-Legendre rule.

A single cell [a, b] is enclosed by

    (b-a)/2 * (f(m + h/sqrt(3)) + f(m - h/sqrt(3)))  +  (b-a)^5 f''''([a,b]) / 4320

with m the midpoint, h the half-length, and every quantity (including the
irrational node offsets) evaluated in interval arithmetic, so the enclosure
contains the true integral.  The integrands are generic over
:class:`Interval` and :class:`Jet4`: the two nodes are evaluated on plain
intervals, which gives bit-for-bit the value slot of a jet evaluation at
about a tenth of the cost (``test_value_slot_matches_interval_evaluation``
checks this for every regime), and only f''''([a,b]) needs the order-4 jet
of the integrand over the whole cell.

The adaptive driver keeps an explicit worklist, splits a cell at its
midpoint while its enclosure is wider than both tolerances, and caps the
splitting depth; a cell at the depth cap is accepted as-is (the cap guards
against unbounded refinement under wide parameter intervals, it is not an
error).  If the jet evaluation of a cell fails with an interval-domain error
but a zeroth-order evaluation succeeds, the crude bound (b-a)*f([a,b]) is
used for that cell.

A splittable cell below the depth cap is split without evaluating its jet
when the node sum alone is wider than both tolerances and the crude bound is
absent or too wide as well.  Interval addition adds the widths of its
operands and rounds outward, so the GL2 enclosure (node sum plus remainder)
is at least as wide as the node sum: that cell could not have been accepted
whatever its remainder, and every accepted cell, enclosure and depth-cap
flag is the same as with the jet evaluated on every cell.
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
    # order-4 jet evaluations of the integrand, one per remainder term
    jet_evaluations: int = 0


def _node_sum(f, a, b):
    """h * (f(m + h/sqrt(3)) + f(m - h/sqrt(3))), the nodes on plain intervals."""
    A = Interval(a)
    B = Interval(b)
    m = (A + B) * 0.5
    h = (B - A) * 0.5
    offset = h * SQRT3_THIRD
    return h * (f(m + offset) + f(m - offset))


def _remainder(f, a, b):
    """(b-a)^5 f''''([a,b]) / 4320 from the order-4 jet over the cell."""
    d4 = f(Jet4.variable(Interval(a, b))).deriv(4)
    return (Interval(b) - Interval(a)).powi(5) * d4 / 4320.0


def gl2_enclosure(f, a, b):
    """Two-node Gauss-Legendre enclosure of the integral of ``f`` on [a, b].

    ``f`` must accept both an :class:`Interval` (the two nodes) and a
    :class:`Jet4` (the f'''' remainder over [a, b]); interval-domain errors
    propagate to the caller, which subdivides.
    """
    if not a < b:
        raise ValueError("need a < b")
    return _node_sum(f, a, b) + _remainder(f, a, b)


def _order0_enclosure(f, a, b):
    """The crude bound (b-a)*f([a,b]), or None where f fails on [a, b]."""
    try:
        return (Interval(b) - Interval(a)) * f(Interval(a, b))
    except IntervalError:
        return None


def adaptive_integrate(f, a, b, tol=Tolerance()):
    """Adaptive GL2 integration of ``f`` over [a, b] with guaranteed enclosure."""
    if not a < b:
        raise ValueError("need a < b")
    total = ZERO
    count = 0
    jets = 0
    depth_hit = False
    stack = [(a, b, 0)]
    while stack:
        lo, hi, depth = stack.pop()
        length = hi - lo
        mid = 0.5 * (lo + hi)
        final = depth >= tol.max_depth or not lo < mid < hi

        def too_wide(enc):
            return enc.width() > tol.abs_tol and enc.width() > tol.rel_tol * length

        enc = None
        try:
            body = _node_sum(f, lo, hi)
        except IntervalError:
            enc = _order0_enclosure(f, lo, hi)
        else:
            crude = None
            hopeless = not final and too_wide(body)
            if hopeless:
                # the GL2 enclosure is at least as wide as the node sum; only
                # the crude bound (used when the jet fails) could be accepted
                crude = _order0_enclosure(f, lo, hi)
                hopeless = crude is None or too_wide(crude)
            if not hopeless:
                jets += 1
                try:
                    enc = body + _remainder(f, lo, hi)
                except IntervalError:
                    enc = crude if crude is not None else _order0_enclosure(f, lo, hi)
        if enc is not None and (final or not too_wide(enc)):
            if too_wide(enc):
                depth_hit = True
            total = total + enc
            count += 1
            continue
        if final:
            raise NonEvaluable(f"integrand not evaluable on [{lo}, {hi}] at depth cap")
        stack.append((mid, hi, depth + 1))
        stack.append((lo, mid, depth + 1))
    return QuadratureResult(total, count, depth_hit, jets)
