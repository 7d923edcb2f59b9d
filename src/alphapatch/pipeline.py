"""Work-queue driver for the convexity sign certificates.

Each :class:`ParameterSet` is one unit of proof: an alpha interval, a phase
constant and quadrature tolerances.  Processing one set selects the
validation regime, certifies the zone-monotonicity facts the window bounds
rely on, integrates the regime's integrand over [-pi, pi] outside the fixed
singularity window [-1/128, 1/128] with validated quadrature, adds the window
residual, and turns the total enclosure into a verdict.

There are three regimes: the vortex point alpha = 0, small alpha in
(0, ALPHA_CR] and big alpha in [ALPHA_CR, 2).  :func:`run_queue` cuts the
initial sets at ``ALPHA_CR`` = 0.04 before any work, so every queued set
lies in one regime; a midpoint split keeps it there.  The parent owns the
one queue and processes it in waves: each wave maps :func:`process` over
the queued sets, and the halves of every indeterminate set wider than the
split threshold make up the next wave.
Every verdict lands in one of three region files, so the output tiles the
requested alpha range.  Verdicts depend only on their ParameterSet, so the
number of worker processes changes nothing but wall-clock time; the rows are
sorted deterministically.
"""

from __future__ import annotations

import csv
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .interval import Interval, SignOutcome, PI
from .curves import ZONE_LEFT, ZONE_RIGHT, Bump, lemma_poly
from .quadrature import QuadratureResult, Tolerance, adaptive_integrate
from .signcheck import DEFAULT_MIN_WIDTH, SignTask, validate_sign
from .integrands import (
    ALPHA_CR,
    WINDOW_HALF,
    IntegrandSpec,
    Regime,
    make_kt_integrand,
    singular_residual,
)

__all__ = [
    "ParameterSet",
    "RegionVerdict",
    "StraddlesBoundary",
    "ZoneFactsFailed",
    "regime_select",
    "process",
    "run_queue",
    "zone_fact_tasks",
    "write_region_files",
    "REGION_HEADER",
]

REGION_HEADER = ["C", "alpha_lo", "alpha_hi", "regime", "enc_lo", "enc_hi", "verdict"]

# alpha intervals still indeterminate are split until narrower than this
SPLIT_THRESHOLD = 5e-6


class StraddlesBoundary(ValueError):
    """Alpha interval crosses a regime boundary; the caller must split."""


class ZoneFactsFailed(RuntimeError):
    """A zone-monotonicity sign task failed; hull enclosures would be unsound."""


@dataclass(frozen=True)
class ParameterSet:
    alpha: Interval
    c_phase: Interval
    tol: Tolerance = Tolerance()

    @classmethod
    def for_phase(cls, alpha_lo, alpha_hi, c_phase, **kw):
        return cls(Interval(alpha_lo, alpha_hi), Interval.around(c_phase), **kw)


@dataclass
class RegionVerdict:
    ps: ParameterSet
    outcome: SignOutcome
    enclosure: Interval
    regime: Regime
    # the quadrature over both halves, with its work counters
    quadrature: QuadratureResult | None = None

    def row(self):
        return [
            _g17(self.ps.c_phase.mid()),
            _g17(self.ps.alpha.lo),
            _g17(self.ps.alpha.hi),
            self.regime.value,
            _g17(self.enclosure.lo),
            _g17(self.enclosure.hi),
            self.outcome.value,
        ]


def _g17(x):
    return format(x, ".17g")


def regime_select(alpha):
    """Map an alpha interval to its validation regime: vortex for [0, 0],
    small alpha inside (0, ALPHA_CR] and big alpha inside [ALPHA_CR, 2).

    Raises :class:`StraddlesBoundary` when the interval crosses 0 or the
    small/big split, or reaches 2.
    """
    if alpha.lo < 0.0 or alpha.hi >= 2.0:
        raise StraddlesBoundary(f"alpha {alpha!r} outside [0, 2)")
    if alpha.lo == 0.0 == alpha.hi:
        return Regime.VORTEX
    if alpha.lo > 0.0 and alpha.hi <= ALPHA_CR:
        return Regime.SMALL_ALPHA
    if alpha.lo >= ALPHA_CR:
        return Regime.BIG_ALPHA
    raise StraddlesBoundary(f"alpha {alpha!r} crosses a regime boundary")


# expected (left zone, right zone) sign of each d_k
_ZONE_FACT_SIGNS = {
    1: (SignOutcome.ALL_POSITIVE, SignOutcome.ALL_NEGATIVE),
    2: (SignOutcome.ALL_POSITIVE, SignOutcome.ALL_POSITIVE),
    3: (SignOutcome.ALL_POSITIVE, SignOutcome.ALL_NEGATIVE),
    4: (SignOutcome.ALL_POSITIVE, SignOutcome.ALL_POSITIVE),
    5: (SignOutcome.ALL_POSITIVE, SignOutcome.ALL_NEGATIVE),
    6: (SignOutcome.ALL_POSITIVE, SignOutcome.ALL_POSITIVE),
}


def zone_fact_tasks(min_width=DEFAULT_MIN_WIDTH):
    """The twelve named d_1..d_6 zone-sign tasks, ``d{k}:left``/``d{k}:right``."""
    tasks = []
    for k, (left_sign, right_sign) in _ZONE_FACT_SIGNS.items():
        f = lambda x, k=k: lemma_poly(f"d{k}", x)
        tasks.append((f"d{k}:left", SignTask(f, ZONE_LEFT, min_width, left_sign)))
        tasks.append((f"d{k}:right", SignTask(f, ZONE_RIGHT, min_width, right_sign)))
    return tasks


@functools.cache
def ensure_zone_facts():
    """Certify the d_1..d_6 zone signs that legitimize hull enclosures.

    The polynomials do not involve the phase constant, so one certification
    per process covers every ParameterSet.  Only a success is cached.
    """
    for name, task in zone_fact_tasks():
        res = validate_sign(task)
        if res.outcome != task.expected:
            raise ZoneFactsFailed(f"{name}: got {res.outcome}")


def _sliver_bound(f, lo, hi, width):
    """Enclosure of the integral over a sliver of at most one-ulp width."""
    return width * f(Interval(lo, hi)).hull(Interval(0.0))


def process(ps):
    """Certify the sign of the regime's integral for one ParameterSet."""
    regime = regime_select(ps.alpha)
    ensure_zone_facts()
    curve = Bump(ps.c_phase)
    spec = IntegrandSpec(regime, ps.alpha, curve)
    f = make_kt_integrand(spec)
    p = math.pi
    # both halves in one walk: their cells share each level's batches, and
    # each half is summed on its own from left to right before the two are
    # added, right half first, so the total is the sum of two separate walks
    # bit for bit
    quad = adaptive_integrate(f, [(WINDOW_HALF, p), (-p, -WINDOW_HALF)], ps.tol)
    total = quad.enclosure
    # the one-ulp slivers [math.pi, pi] and [-pi, -math.pi]: the integrand is
    # regular there (x - y is near 0), in every regime.  The paper's
    # counter-kernel for alpha near 2, sgn(y)/|2 tan(y/2)|^{alpha-1},
    # singular at y = pi, is not evaluated: its projection at x = pi is
    # exactly zero, which test_counterterms_project_to_zero checks against
    # the mpmath oracle
    sliver_width = Interval(0.0, PI.hi - p)
    total = total + _sliver_bound(f, p, PI.hi, sliver_width)
    total = total + _sliver_bound(f, -PI.hi, -p, sliver_width)
    total = total + singular_residual(spec)
    if total.lo > 0.0:
        outcome = SignOutcome.ALL_POSITIVE
    elif total.hi < 0.0:
        outcome = SignOutcome.ALL_NEGATIVE
    else:
        outcome = SignOutcome.INDETERMINATE
    return RegionVerdict(ps, outcome, total, regime, quad)


def _split_alpha(ps):
    cut = ps.alpha.mid()
    if not ps.alpha.lo < cut < ps.alpha.hi:
        return None
    return (
        replace(ps, alpha=Interval(ps.alpha.lo, cut)),
        replace(ps, alpha=Interval(cut, ps.alpha.hi)),
    )


def _regime_pieces(ps):
    """ps cut at ALPHA_CR if that lies strictly inside its alpha interval."""
    lo, hi = ps.alpha.lo, ps.alpha.hi
    if not lo < ALPHA_CR < hi:
        return [ps]
    return [replace(ps, alpha=Interval(lo, ALPHA_CR)), replace(ps, alpha=Interval(ALPHA_CR, hi))]


def run_queue(initial, split_threshold=SPLIT_THRESHOLD, workers=1):
    """Process ParameterSets until classified.

    The initial sets are first cut at ``ALPHA_CR``; a set that no regime
    covers then raises :class:`StraddlesBoundary` (a ``ValueError``) before
    any work.  The parent processes the queue in waves: one worker maps
    :func:`process` in this process, several map it over a pool of at most
    one process per set.  The halves of an indeterminate set wider than
    ``split_threshold`` join the next wave.
    Returns the verdict rows sorted by (phase, alpha.lo); they are the same
    for any number of workers, because verdicts depend only on their
    ParameterSet.
    """
    queue = [piece for ps in initial for piece in _regime_pieces(ps)]
    for ps in queue:
        regime_select(ps.alpha)  # no work starts on an uncovered alpha set
    rows = []
    while queue:
        n = min(workers, len(queue))
        if n <= 1:
            # process is looked up here, not bound at import, so a rebound
            # pipeline.process sees every set
            verdicts = list(map(process, queue))
        else:
            with ProcessPoolExecutor(n) as pool:
                verdicts = list(pool.map(process, queue))
        queue = []
        for v in verdicts:
            halves = None
            if v.outcome == SignOutcome.INDETERMINATE and v.ps.alpha.width() > split_threshold:
                halves = _split_alpha(v.ps)
            if halves is None:
                rows.append(v)
            else:
                queue.extend(halves)
    rows.sort(key=lambda v: (v.ps.c_phase.mid(), v.ps.alpha.lo, v.ps.alpha.hi))
    return rows


def write_region_files(rows, out_dir):
    """Write positive/negative/indeterminate CSVs; returns the three paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for outcome in SignOutcome:
        path = os.path.join(out_dir, f"{outcome.value}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REGION_HEADER)
            writer.writerows(v.row() for v in rows if v.outcome == outcome)
        paths[outcome] = path
    return paths
