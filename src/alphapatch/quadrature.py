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

The adaptive driver splits a cell at its midpoint while its enclosure is
wider than both tolerances, and caps the splitting depth; a cell at the
depth cap is accepted as-is (the cap guards against unbounded refinement,
it is not an error).  A cell's only enclosure is its GL2 sum, and interval
addition, which adds the widths of its operands and rounds outward, never
makes that narrower than the node sum.  A splittable cell whose node sum is
already too wide is therefore split without its jet, unless it is
*alpha-limited*: it lies below the root, and its node sum and its
sibling's add up to at least :data:`STALL` of their parent's node-sum
width.  Halving such a cell in y no longer narrows the node sums, because
their width comes from a parameter interval (an alpha band), not from the
cell's length.  Its jet is evaluated, and its GL2 sum is accepted once the
remainder is no wider than :data:`REMAINDER_SHARE` of the node-sum width;
otherwise it is split as before.  Past that point a split adds cells but
narrows the enclosure little: the node sums no longer shrink, and the
remainder is a small part of the sum.  QUADPACK's bisection routines stop
in the same way when subdividing no longer reduces the error estimate.
Point-parameter node sums are a few ulps wide, so they never meet this
rule.

The driver decides one depth level at a time and evaluates cells in
batches of at most :data:`WIDTH` lanes.  Each batch evaluates its node sums
(both nodes of every cell in one call on twice as many lanes) and then its
remainders, with one integrand call each; the cells that need a remainder
are chosen once every batch has its node sums, since a cell's sibling and
parent may lie in another batch.  The lanes are :class:`IntervalArray`s,
which are not :class:`Interval`s and have only the lane-by-lane
operations, so the integrand must be generic over those too (the regime
integrands are).  The flag mask is the only way a batch reports a failure: an array
operation flags a lane exactly where the one-cell :class:`Interval`
evaluation raises, and carries that evaluation's bits on every other lane.
A flagged lane, or every lane of a batch that raises, has no enclosure, so
each cell gets exactly the enclosure, or the lack of one, that the one-cell
evaluation gives.  A lane flagged where the one-cell evaluation succeeds
could only cost an enclosure, and with it a split or a
:class:`NonEvaluable`, never make one unsound.  The accepted enclosures
are summed from left to right, the order a depth-first walk accepts them
in, so the total is the same bit for bit as well.

A batch costs nearly as much for a few lanes as for a few hundred, so
batches are made few and full, with one lane budget, :data:`WIDTH`.  A
level of n > :data:`WIDTH` cells is cut into ceil(n / :data:`WIDTH`)
batches whose sizes differ by at most one, not into full batches and a
ragged tail.  A narrower level is evaluated in one batch with the levels
below it, as many whole levels as fit in :data:`WIDTH` lanes: the halves
of every non-final cell, their halves, and so on.  The walk then goes
through the group one level at a time, deciding from these stored results,
before the next group is evaluated.  After each level it
keeps of the level below the halves of the cells it split
(``np.repeat(split[~final], 2)``) and drops the rest, the descendants of
accepted cells; the cells dropped are counted as discarded.  A lane's
enclosure does not depend on the other lanes of its batch, so every
accept/split decision, enclosure and cell count is the same as when each
level is evaluated on its own.  What depends on reaching a cell waits
until the walk reaches it: :class:`NonEvaluable` is raised only for a
reached final cell, and jet evaluations, alpha-limited cells and the
depth-cap flag count only reached cells.  The walk carries each level's
parent node-sum widths; siblings sit next to each other in every level
below the root.

:func:`adaptive_integrate` takes several disjoint domains and walks them
together: a level is the cells of every domain, sorted by left end, so a
batch may hold cells of two domains and a level that would be small in each
fills fewer, larger batches.  Each domain's accepted cells are still summed
on their own from left to right, and the domain sums are added in the order
the domains are given, so the enclosure is bit for bit the sum of one walk
per domain, and the cells, jet evaluations, alpha-limited cells and
depth-cap flag are their totals.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .interval import Interval, IntervalArray, IntervalError, SQRT3_THIRD, ZERO
from .jets import Jet4

__all__ = ["Tolerance", "QuadratureResult", "NonEvaluable", "gl2_enclosure", "adaptive_integrate"]

# a cell is alpha-limited when its node sum is too wide and its node sum
# and its sibling's add up to at least this share of their parent's node-sum
# width: the width comes from a parameter interval, and halving the cell in
# y no longer narrows it
STALL = 0.5
# an alpha-limited cell's GL2 sum is accepted once the remainder is no wider
# than this share of its node-sum width
REMAINDER_SHARE = 1 / 64
# lanes of the widest batch: a narrower level fills it with the levels
# below it, and a wider level is cut into ceil(n / WIDTH) batches whose
# sizes differ by at most one.  A jet batch keeps a few hundred arrays of
# this length alive at once; the tracemalloc peak of one small-alpha jet
# batch is 0.42 MiB at 256 lanes, 0.82 MiB at 512 and 1.60 MiB at 1024.
WIDTH = 512


class NonEvaluable(RuntimeError):
    """The integrand failed on a cell that can no longer be split."""


@dataclass(frozen=True)
class Tolerance:
    abs_tol: float = 1e-6
    rel_tol: float = 1e-6
    max_depth: int = 13

    def __post_init__(self):
        # an infinite tolerance would accept every root cell, however wide
        for name in ("abs_tol", "rel_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} {value} must be positive and finite")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


@dataclass
class QuadratureResult:
    enclosure: Interval
    subinterval_count: int
    max_depth_hit: bool
    # order-4 jet evaluations of the integrand, one per remainder term
    jet_evaluations: int = 0
    # batches of lanes evaluated (every cell is evaluated in exactly one),
    # and cells evaluated ahead of the walk that it never reached
    batches: int = 0
    discarded_cells: int = 0
    # cells accepted by the alpha-limited stop, not by the tolerance or the cap
    alpha_limited_cells: int = 0


# The two kinds of cell evaluation.  A and B are the point intervals at the
# cell's ends and X the cell itself, either single intervals or lanes.


def _node_sum(f, A, B, X):
    """h * (f(m + h/sqrt(3)) + f(m - h/sqrt(3))), the nodes on plain intervals."""
    m = (A + B) * 0.5
    h = (B - A) * 0.5
    offset = h * SQRT3_THIRD
    right, left = m + offset, m - offset
    if not isinstance(X, IntervalArray):
        return h * (f(right) + f(left))
    # both nodes of n cells in one call on 2n lanes; a lane flagged at either
    # node flags its cell
    y = f(right.join(left))
    if not isinstance(y, IntervalArray):  # a constant integrand
        return h * (y + y)
    at_right, at_left = y.split(X.err)
    return h * (at_right + at_left)


def _remainder(f, A, B, X):
    """(b-a)^5 f''''([a,b]) / 4320 from the order-4 jet over the cell."""
    d4 = f(Jet4.variable(X)).deriv(4)
    return (B - A).powi(5) * d4 / 4320.0


def _cell(a, b):
    return Interval(a), Interval(b), Interval(a, b)


def gl2_enclosure(f, a, b):
    """Two-node Gauss-Legendre enclosure of the integral of ``f`` on [a, b].

    ``f`` must accept both an :class:`Interval` (the two nodes) and a
    :class:`Jet4` (the f'''' remainder over [a, b]); interval-domain errors
    propagate to the caller, which subdivides.
    """
    if not a < b:
        raise ValueError("need a < b")
    cell = _cell(a, b)
    return _node_sum(f, *cell) + _remainder(f, *cell)


def _evaluate(kind, f, lo, hi, where):
    """``kind`` on the cells [lo, hi] selected by ``where``, in one batch.

    Returns full-length arrays: the enclosures' lower and upper endpoints,
    and where an enclosure exists: on every selected cell the batch did not
    flag, and on none if it raises.
    """
    n = lo.size
    elo, ehi, ok = np.zeros(n), np.zeros(n), np.zeros(n, bool)
    sub = np.flatnonzero(where)
    if sub.size == 0:
        return elo, ehi, ok
    cells = IntervalArray.batch(lo[sub], hi[sub])
    err = cells[0].err
    try:
        r = kind(f, *cells)
        elo[sub], ehi[sub] = r.lo, r.hi
    except IntervalError:
        err[:] = True
    ok[sub] = ~err
    return elo, ehi, ok


def _final(lo, hi, depth, tol):
    """Which cells of the level at ``depth`` cannot be split."""
    mid = 0.5 * (lo + hi)
    return (depth >= tol.max_depth) | ~((lo < mid) & (mid < hi))


def _halves(lo, hi):
    """The halves of the cells [lo, hi], still in left-to-right order."""
    mid = 0.5 * (lo + hi)
    return np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()


def _evaluate_levels(f, lo, hi, depth, parent, tol):
    """Evaluate the level [lo, hi] at ``depth`` and as many whole levels
    below it as fit in :data:`WIDTH` lanes with it, each the halves of every
    non-final cell of the level above.  A level wider than :data:`WIDTH` is
    cut into as few near-equal batches as :data:`WIDTH` allows.  ``parent``
    holds the node-sum widths of the level's parent cells, or is None for
    the root cells.

    Every batch evaluates its node sums before any remainder: whether a
    cell is alpha-limited, and so needs its jet, depends on its sibling's
    and its parent's node sums, which another batch may hold.  Returns one
    record per level, ``(lo, hi, final, node-sum width, enclosure lo,
    enclosure hi, enclosure exists, too wide, jet evaluated, stop)``, and
    the number of batches; ``stop`` marks the alpha-limited cells whose
    remainder is narrow enough to accept their GL2 sum.
    """
    levels = [(lo, hi, _final(lo, hi, depth, tol))]
    lanes = lo.size
    while lanes < WIDTH:
        above_lo, above_hi, above_final = levels[-1]
        below_lo, below_hi = _halves(above_lo[~above_final], above_hi[~above_final])
        if not below_lo.size or lanes + below_lo.size > WIDTH:
            break
        levels.append((below_lo, below_hi, _final(below_lo, below_hi, depth + len(levels), tol)))
        lanes += below_lo.size
    lo, hi, final = (np.concatenate(a) for a in zip(*levels))
    count = -(-lanes // WIDTH)
    edges = [k * lanes // count for k in range(count + 1)]

    def batched(kind, where):
        parts = [_evaluate(kind, f, lo[s:e], hi[s:e], where[s:e]) for s, e in zip(edges, edges[1:])]
        return (np.concatenate(a) for a in zip(*parts))

    length = hi - lo

    def too_wide(w):
        return (w > tol.abs_tol) & (w > tol.rel_tol * length)

    blo, bhi, body = batched(_node_sum, np.ones(lanes, bool))
    width = np.where(body, bhi - blo, np.nan)  # nan stalls nothing
    cuts = np.cumsum([level[0].size for level in levels])[:-1]
    stalled = []
    for w, (_, _, level_final) in zip(np.split(width, cuts), levels):
        if parent is None:
            stalled.append(np.zeros(w.size, bool))
        else:
            # siblings sit next to each other in every level below the root
            stalled.append(np.repeat(w[0::2] + w[1::2], 2) >= STALL * parent)
        parent = np.repeat(w[~level_final], 2)
    limited = too_wide(width) & np.concatenate(stalled)
    want_jet = body & (final | ~too_wide(width) | limited)
    rlo, rhi, rem = batched(_remainder, want_jet)
    failed = ~rem  # the sum flags its overflowing lanes here too
    gl2 = IntervalArray(blo, bhi, failed) + IntervalArray(rlo, rhi, failed)
    stop = limited & ~failed & (rhi - rlo <= REMAINDER_SHARE * width)
    results = (lo, hi, final, width, gl2.lo, gl2.hi, ~failed, too_wide(gl2.hi - gl2.lo), want_jet, stop)
    return list(zip(*(np.split(a, cuts) for a in results))), count


def _sorted_domains(domains):
    """The (a, b) domains sorted by left end; ValueError if there are none,
    if one is empty or reversed, or if two overlap."""
    ordered = sorted(domains)
    if not ordered:
        raise ValueError("need at least one domain")
    for a, b in ordered:
        if not a < b:
            raise ValueError(f"need a < b, got domain ({a}, {b})")
    for (_, b), (a, _) in zip(ordered, ordered[1:]):
        if a < b:
            raise ValueError(f"domains overlap on [{a}, {b}]")
    return ordered


def adaptive_integrate(f, domains, tol=Tolerance()):
    """Adaptive GL2 integration of ``f`` over the disjoint ``domains``, a
    sequence of (a, b) pairs walked together, with guaranteed enclosure: the
    sum of the domains' enclosures in the order given."""
    domains = [(float(a), float(b)) for a, b in domains]
    ordered = _sorted_domains(domains)
    jets = batches = discarded = limited = 0
    depth_hit = False
    accepted = []  # per level: (cell lo, enclosure lo, enclosure hi) of its accepted cells
    lo, hi = np.array([a for a, _ in ordered]), np.array([b for _, b in ordered])
    parent = None  # the node-sum widths of the next level's parent cells
    depth = 0
    with np.errstate(all="ignore"):
        while lo.size:
            levels, n = _evaluate_levels(f, lo, hi, depth, parent, tol)
            batches += n
            reached = np.ones(lo.size, bool)
            for lo, hi, final, width, elo, ehi, have, wide, want_jet, stop in levels:
                discarded += lo.size - int(np.count_nonzero(reached))
                missing = reached & final & ~have
                if np.count_nonzero(missing):
                    i = int(np.argmax(missing))
                    raise NonEvaluable(f"integrand not evaluable on [{lo[i]}, {hi[i]}] at depth cap")
                accept = reached & have & (final | ~wide | stop)
                accepted.append((lo[accept], elo[accept], ehi[accept]))
                jets += int(np.count_nonzero(reached & want_jet))
                limited += int(np.count_nonzero(reached & stop))
                depth_hit = depth_hit or bool(np.count_nonzero(accept & wide & ~stop))
                split = reached & ~accept
                # the level below holds the halves of every non-final cell
                reached = np.repeat(split[~final], 2)
                depth += 1
            lo, hi = _halves(lo[split], hi[split])
            parent = np.repeat(width[split], 2)
    # each level's accepted cells run from left to right; merged by their
    # left ends, each domain's cells come in the order a depth-first walk
    # over that domain alone accepts them in
    sums = [ZERO] * len(ordered)
    k = 0
    for c_lo, e_lo, e_hi in heapq.merge(*(zip(*run) for run in accepted)):
        while c_lo >= ordered[k][1]:
            k += 1
        sums[k] = sums[k] + Interval(e_lo, e_hi)
    total = ZERO
    for a, b in domains:
        total = total + sums[ordered.index((a, b))]
    cells = sum(run[0].size for run in accepted)
    return QuadratureResult(total, cells, depth_hit, jets, batches, discarded, limited)
