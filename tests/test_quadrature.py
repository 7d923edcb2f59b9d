import hashlib
import math

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from mpmath import atan, mpf, pi

from alphapatch import quadrature
from alphapatch.interval import Interval, IntervalArray, DomainViolation, IntervalError, ZERO
from alphapatch.curves import Bump
from alphapatch.integrands import IntegrandSpec, Regime, make_kt_integrand
from alphapatch.jets import Jet4
from alphapatch.quadrature import (
    Tolerance,
    NonEvaluable,
    gl2_enclosure,
    adaptive_integrate,
)

from quad_cases import CASES


def test_gl2_exact_on_cubics():
    enc = gl2_enclosure(lambda x: x.powi(3), 0.0, 1.0)
    assert enc.lo <= 0.25 <= enc.hi
    assert enc.width() <= 1e-12


def test_gl2_quartic_remainder_formula():
    # nodes contribute 7/36, the remainder exactly 1/180; together 1/5
    enc = gl2_enclosure(lambda x: x.powi(4), 0.0, 1.0)
    assert enc.lo <= 0.2 <= enc.hi
    assert enc.width() <= 1e-12


def test_adaptive_sin_pi():
    res = adaptive_integrate(lambda x: x.sin(), [(0.0, math.pi)], Tolerance(1e-6, 1e-6, 13))
    assert res.enclosure.lo <= 2.0 <= res.enclosure.hi
    assert res.enclosure.width() <= 1e-5
    assert res.subinterval_count <= 64
    assert not res.max_depth_hit


def test_cubic_single_cell():
    res = adaptive_integrate(lambda x: x.powi(3), [(0.0, 1.0)], Tolerance(1e-6, 1e-6, 13))
    assert res.subinterval_count == 1
    assert res.enclosure.lo <= 0.25 <= res.enclosure.hi


def test_pathological_raises():
    def bad(jet):
        raise DomainViolation("always fails")

    with pytest.raises(NonEvaluable):
        adaptive_integrate(bad, [(0.0, 1.0)], Tolerance(1e-6, 1e-6, 3))


def test_fifty_closed_forms_smoke():
    tol = Tolerance(1e-6, 1e-6, 13)
    for name, fn, a, b, exact in CASES[::5]:
        res = adaptive_integrate(fn, [(a, b)], tol)
        assert mpf(res.enclosure.lo) <= exact <= mpf(res.enclosure.hi), name


def test_refinement_monotonicity():
    for fn, a, b in [
        (lambda x: x.sin(), 0.0, math.pi),
        (lambda x: x.exp(), 0.0, 1.0),
    ]:
        coarse = adaptive_integrate(fn, [(a, b)], Tolerance(1e-4, 1e-4, 13)).enclosure
        fine = adaptive_integrate(fn, [(a, b)], Tolerance(5e-5, 5e-5, 13)).enclosure
        slack = 4 * math.ulp(max(abs(coarse.lo), abs(coarse.hi)))
        assert fine.lo >= coarse.lo - slack
        assert fine.hi <= coarse.hi + slack


def test_depth_cap_accepts_wide_cells():
    # the remainder of sin(50x) keeps every cell of [0, 1] too wide down to
    # depth 5 while the node sums stay narrow; the depth cap must accept
    # rather than loop
    f = lambda x: (x * 50.0).sin()
    res = adaptive_integrate(f, [(0.0, 1.0)], Tolerance(1e-9, 1e-9, 5))
    assert res.max_depth_hit
    assert res.subinterval_count == 2**5
    assert res.alpha_limited_cells == 0
    assert res.enclosure.lo <= (1 - math.cos(50.0)) / 50.0 <= res.enclosure.hi


def test_alpha_limited_constant_band_stops_at_depth_one():
    """A parameter-interval constant never meets the tolerance, and halving
    its cells never narrows the node sums they add up to.  Both halves of
    [0, 1] are alpha-limited, and their remainder is zero, so they are
    accepted at depth 1 without reaching the cap."""
    wide = Interval(1.0, 1.1)

    def f(jet):
        return jet * 0.0 + wide

    res = _assert_same_as_reference(f, 0.0, 1.0, Tolerance(1e-9, 1e-9, 5))
    assert (res.subinterval_count, res.alpha_limited_cells, res.jet_evaluations) == (2, 2, 2)
    assert not res.max_depth_hit
    assert res.enclosure.lo <= 1.0 <= 1.1 <= res.enclosure.hi


def test_tiling_accounting():
    res = adaptive_integrate(lambda x: (x * 4.0).sin() + 2.0, [(0.0, 2.0)], Tolerance(1e-5, 1e-5, 13))
    assert res.subinterval_count <= 2**13
    exact = (1 - math.cos(8.0)) / 4.0 + 4.0
    assert res.enclosure.lo <= exact <= res.enclosure.hi


def _wide_cells_fail(x):
    """1/((x-1)^2 + 1) written so that its denominator's natural extension
    straddles 0 on wide cells: the jet over such a cell fails while its
    Gauss nodes and every narrow cell evaluate."""
    return 1.0 / (x * x - x * 2.0 + 2.0)


def _try(evaluation, *args):
    try:
        return evaluation(*args)
    except IntervalError:
        return None


def _reference_integrate(f, a, b, tol):
    """The adaptive loop, depth first on single intervals, with the full GL2
    enclosure, jet included, evaluated on every cell: (enclosure, cells,
    depth cap hit, jet evaluations, alpha-limited cells, levels).

    A cell below the root is alpha-limited when its node sum is too wide
    and its node sum and its sibling's add up to at least STALL of their
    parent's node-sum width; it is accepted once its remainder is no wider
    than REMAINDER_SHARE of its node-sum width.  The jet evaluations are
    those a walk that splits other hopeless cells without their jet makes:
    on every cell with a node sum, unless the cell is splittable, its node
    sum too wide and the cell not alpha-limited.  The levels are one more
    than the deepest cell visited."""

    def node_width(lo, hi):
        body = _try(quadrature._node_sum, f, *quadrature._cell(lo, hi))
        return math.nan if body is None else body.width()

    total, count, depth_hit, jets, limited, deepest = ZERO, 0, False, 0, 0, 0
    stack = [(a, b, 0, math.nan, math.nan)]  # cell, depth, parent's and pair's node-sum widths
    while stack:
        lo, hi, depth, parent, pair = stack.pop()
        deepest = max(deepest, depth)
        enc = _try(gl2_enclosure, f, lo, hi)
        mid = 0.5 * (lo + hi)
        final = depth >= tol.max_depth or not lo < mid < hi

        def too_wide(w):
            return w > tol.abs_tol and w > tol.rel_tol * (hi - lo)

        width = node_width(lo, hi)
        alpha_limited = too_wide(width) and pair >= quadrature.STALL * parent
        if not math.isnan(width) and (final or not too_wide(width) or alpha_limited):
            jets += 1
        remainder = _try(quadrature._remainder, f, *quadrature._cell(lo, hi))
        stop = alpha_limited and enc is not None and remainder.width() <= quadrature.REMAINDER_SHARE * width
        wide = enc is not None and too_wide(enc.width())
        if enc is not None and (final or not wide or stop):
            limited += stop
            depth_hit = depth_hit or (wide and not stop)
            total = total + enc
            count += 1
            continue
        if final:
            raise NonEvaluable(f"integrand not evaluable on [{lo}, {hi}] at depth cap")
        halves = node_width(lo, mid) + node_width(mid, hi)
        stack.append((mid, hi, depth + 1, width, halves))
        stack.append((lo, mid, depth + 1, width, halves))
    return total, count, depth_hit, jets, limited, deepest + 1


def _assert_same_as_reference(f, a, b, tol):
    """The walk gives the reference's enclosure bits, cells, jet
    evaluations, alpha-limited cells and depth-cap flag."""
    res = adaptive_integrate(f, [(a, b)], tol)
    enc, count, depth_hit, jets, limited, _ = _reference_integrate(f, a, b, tol)
    assert _hex(res.enclosure) == _hex(enc)
    assert res.subinterval_count == count
    assert res.max_depth_hit == depth_hit
    assert res.jet_evaluations == jets
    assert res.alpha_limited_cells == limited
    return res


def _hex(iv):
    return iv.lo.hex(), iv.hi.hex()


def _assert_walks_add_up(f, domains, tol):
    """One walk over ``domains`` equals the one-domain walks bit for bit:
    their enclosures added in the order given, and their cells, jet
    evaluations, alpha-limited cells and depth-cap flags in total."""
    res = adaptive_integrate(f, domains, tol)
    singles = [adaptive_integrate(f, [d], tol) for d in domains]
    total = ZERO
    for one in singles:
        total = total + one.enclosure
    assert _hex(res.enclosure) == _hex(total)
    assert res.subinterval_count == sum(one.subinterval_count for one in singles)
    assert res.jet_evaluations == sum(one.jet_evaluations for one in singles)
    assert res.alpha_limited_cells == sum(one.alpha_limited_cells for one in singles)
    assert res.max_depth_hit == any(one.max_depth_hit for one in singles)


def _domain_splits(a, b):
    """Disjoint pieces of [a, b], never in left-to-right order: two touching
    at an off-centre point, two with a gap between them, and three (whose
    sums do not associate, so their order matters)."""
    m, g = a + 0.375 * (b - a), a + 0.625 * (b - a)
    return [(m, b), (a, m)], [(g, b), (a, m)], [(g, b), (a, m), (m, g)]


def test_multi_domain_walk_adds_up_closed_forms():
    """Every closed form over pieces of its domain, walked together."""
    tol = Tolerance(1e-6, 1e-6, 13)
    for _, fn, a, b, _ in CASES:
        for domains in _domain_splits(a, b):
            _assert_walks_add_up(fn, domains, tol)


def _small_batches(monkeypatch, width):
    """Shrink the lane budget of a batch to ``width``, so that levels are
    cut at odd places."""
    monkeypatch.setattr(quadrature, "WIDTH", width)


def test_multi_domain_chunks_straddle_domains(monkeypatch):
    """Batches of three cells put cells of two domains into one batch on
    every level that holds cells of both."""
    _small_batches(monkeypatch, 3)
    for _, fn, a, b, _ in CASES[::3]:
        for domains in _domain_splits(a, b):
            _assert_walks_add_up(fn, domains, Tolerance(1e-6, 1e-6, 13))
    band = Interval(1.0, 1.001)
    _assert_walks_add_up(lambda x: (x * band).sin(), [(2.0, 4.0), (-1.0, 1.0)], Tolerance(1e-9, 1e-9, 6))


@pytest.mark.parametrize(
    "domains",
    [[], [(1.0, 0.0)], [(0.0, 1.0), (2.0, 2.0)], [(0.0, 1.0), (0.5, 2.0)], [(1.0, 3.0), (0.0, 2.0)], [(0.0, 1.0)] * 2],
)
def test_bad_domains_rejected(domains):
    with pytest.raises(ValueError):
        adaptive_integrate(lambda x: x, domains)


def test_pruning_matches_full_evaluation_closed_forms():
    """Splitting hopeless cells without their jet changes no enclosure bit,
    cell count or depth-cap flag."""
    for name, fn, a, b, _ in CASES:
        res = _assert_same_as_reference(fn, a, b, Tolerance(1e-6, 1e-6, 13))
        assert res.jet_evaluations >= res.subinterval_count, name
    res = _assert_same_as_reference(_wide_cells_fail, 0.0, 4.0, Tolerance(1e-3, 1e-3, 6))
    assert res.jet_evaluations >= res.subinterval_count


def test_pruning_matches_full_evaluation_alpha_limited():
    """An alpha band 1e-3 wide keeps every node sum too wide, and halving a
    cell leaves its halves' node sums about as wide as its own: every cell
    below the root is alpha-limited.  Far from the window a cell's remainder
    soon drops below 1/64 of its node sum and the cell is accepted before
    the depth cap; near the window the cells still reach it.  The counts
    are the depth-first reference's."""
    f, halves, tol = _alpha_band_halves()
    counts = []
    for a, b in halves:
        res = _assert_same_as_reference(f, a, b, tol)
        assert res.max_depth_hit
        counts.append((res.subinterval_count, res.alpha_limited_cells, res.jet_evaluations))
    assert counts == [(76, 44, 148), (75, 43, 146)]
    # both halves in one walk, as process() integrates them: every level
    # batches cells from both sides of the window
    _assert_walks_add_up(f, halves, tol)


def _remainder_limited():
    """sin(50x) at a tolerance its remainder meets at no depth up to 10 on
    cells of [0, 4]: every cell is split to the cap, and its node sums stay
    narrow, so none is alpha-limited."""
    return lambda x: (x * 50.0).sin(), Tolerance(1e-12, 1e-12, 10)


def test_level_wider_than_one_chunk():
    """A remainder-limited integrand keeps every cell too wide, so level 10
    holds 1024 cells, two full batches."""
    f, tol = _remainder_limited()
    res = _assert_same_as_reference(f, 0.0, 4.0, tol)
    assert res.subinterval_count == 2**10 > quadrature.WIDTH
    assert res.max_depth_hit and res.alpha_limited_cells == 0


def test_wide_levels_run_in_near_equal_batches(monkeypatch):
    """A level of n cells wider than WIDTH runs in ceil(n / WIDTH) batches
    whose sizes differ by at most one.  Five domains under a
    remainder-limited integrand keep every cell too wide, so level k holds
    5 * 2**k cells: levels 0-5 (315 cells) share one batch, level 6 (320)
    has its own since level 7 would not fit with it, and levels 7 and 8
    (640 and 1280 cells) run in 2 and 3 batches.  The enclosure is the
    references' sum bit for bit."""
    sizes = []
    evaluate = quadrature._evaluate

    def counting(kind, f, lo, *rest):
        if kind is quadrature._node_sum:
            sizes.append(lo.size)
        return evaluate(kind, f, lo, *rest)

    monkeypatch.setattr(quadrature, "_evaluate", counting)
    f, tol = _remainder_limited()
    tol = replace(tol, max_depth=8)
    domains = [(float(k), k + 0.75) for k in (3, -1, 1, 0, 2)]
    res = adaptive_integrate(f, domains, tol)
    assert sizes == [315, 320, 320, 320, 426, 427, 427]
    assert res.batches == len(sizes)
    total, cells, jets = ZERO, 0, 0
    for a, b in domains:
        enc, count, depth_hit, jet_count, _, _ = _reference_integrate(f, a, b, tol)
        total, cells, jets = total + enc, cells + count, jets + jet_count
        assert depth_hit
    assert _hex(res.enclosure) == _hex(total)
    # every cell visited has a narrow node sum, and so its jet evaluated
    assert (res.subinterval_count, res.jet_evaluations) == (cells, jets) == (5 * 2**8, 5 * (2**9 - 1))
    assert res.max_depth_hit


def test_chunk_boundaries_change_nothing(monkeypatch):
    """Batches of three cells split every level at odd places; every closed
    form still gets the single-cell enclosure, cell count and depth flag."""
    _small_batches(monkeypatch, 3)
    for name, fn, a, b, _ in CASES[::3]:
        _assert_same_as_reference(fn, a, b, Tolerance(1e-6, 1e-6, 13))


def test_chunk_mixing_failing_and_good_cells():
    """The jet fails on the wide cells of [0, 4] and succeeds on the narrow
    ones of the same batch."""
    res = _assert_same_as_reference(_wide_cells_fail, 0.0, 4.0, Tolerance(1e-7, 1e-7, 12))
    assert mpf(res.enclosure.lo) <= atan(3) + pi / 4 <= mpf(res.enclosure.hi)
    assert (res.subinterval_count, res.jet_evaluations) == (52, 103)


def _alpha_band_halves():
    """The big-alpha integrand on an alpha band 1e-3 wide, its y-halves and
    a depth cap that every cell of them reaches."""
    spec = IntegrandSpec.for_regime(Regime.BIG_ALPHA, Interval(1.0, 1.001), Bump(Interval.around(0.15)))
    halves = [(1.0 / 128.0, math.pi), (-math.pi, -1.0 / 128.0)]
    return make_kt_integrand(spec), halves, Tolerance(max_depth=7)


@pytest.mark.parametrize("width", [3, 7, 12, 256], ids=str)
def test_speculative_levels_change_nothing(monkeypatch, width):
    """Levels evaluated ahead of the walk, and wider levels cut into
    near-equal batches at odd places, give every closed form, the
    alpha-limited band and an integrand whose wide cells fail the
    reference's enclosure bits, cells, jet evaluations and depth-cap flag.
    While every cell splits, one root cell's levels of 1, 2 and 4 cells
    fill 3 and 7 lanes exactly, and 12 and 256 lanes stop short, at 7 and
    255."""
    _small_batches(monkeypatch, width)
    for name, fn, a, b, _ in CASES:
        _assert_same_as_reference(fn, a, b, Tolerance(1e-6, 1e-6, 13))
    f, halves, tol = _alpha_band_halves()
    for a, b in halves:
        _assert_same_as_reference(f, a, b, tol)
    _assert_same_as_reference(_wide_cells_fail, 0.0, 4.0, Tolerance(1e-7, 1e-7, 12))
    # the whole and its right half fail; a batch of more than three lanes
    # also holds halves of cells the walk accepts, which it discards
    res = _assert_same_as_reference(_wide_cells_fail, -0.7, 1.3, Tolerance(1e-4, 1e-4, 10))
    if width > 3:
        assert res.discarded_cells > 0


def test_unreached_cells_neither_raise_nor_count():
    """Cells at the depth cap below an accepted parent cannot be enclosed.
    The walk evaluates them ahead of time, yet raises nothing for them and
    counts neither their cells nor their jets.  The integrand is 0, and its
    jet evaluates only on the halves of [0, 1]: the whole fails and is
    split, the halves are accepted on their GL2 sum, and the quarters fail."""
    quarter_jets = []

    def f(x):
        if isinstance(x, Jet4):
            w = x.d0.hi - x.d0.lo
            quarter_jets.append(np.count_nonzero((0.2 < w) & (w < 0.3)))
            x.d0.require((0.4 < w) & (w < 0.75), lambda: DomainViolation("not a half"))
        return x * 0.0

    res = _assert_same_as_reference(f, 0.0, 1.0, Tolerance(1e-6, 1e-6, 2))
    assert sum(quarter_jets) == 4  # the quarters' jets were evaluated, in one batch
    assert res.subinterval_count == 2 and res.jet_evaluations == 3
    assert res.discarded_cells == 4
    assert (res.enclosure.lo, res.enclosure.hi) == (0.0, 0.0)
    assert not res.max_depth_hit


def test_point_alpha_walk_batches_fewer_than_levels(monkeypatch):
    """One point-alpha process() evaluates its node sums in fewer batched
    integrand calls than its walk has levels."""
    from alphapatch import pipeline

    make = pipeline.make_kt_integrand
    node_calls, plain = [], []

    def counting(spec):
        f = make(spec)
        plain.append(f)

        def g(y):
            # the Gauss nodes are a few ulps wide, the cells far wider
            if isinstance(y, IntervalArray) and np.all(y.hi - y.lo < 1e-9):
                node_calls.append(y.lo.size)
            return f(y)

        return g

    monkeypatch.setattr(pipeline, "make_kt_integrand", counting)
    ps = pipeline.ParameterSet.for_phase(0.0, 0.0, 0.15)
    v = pipeline.process(ps)
    (f,) = plain
    halves = [(pipeline.WINDOW_HALF, math.pi), (-math.pi, -pipeline.WINDOW_HALF)]
    levels = max(_reference_integrate(f, a, b, ps.tol)[-1] for a, b in halves)
    assert len(node_calls) == v.quadrature.batches < levels


def test_band_walk_calls_the_integrand_twice_per_batch(monkeypatch):
    """An alpha-limited band set makes at most two batched integrand calls
    per batch: its node sums, then the remainders of the cells that still
    need one."""
    from alphapatch import pipeline

    make = pipeline.make_kt_integrand
    calls = []

    def counting(spec):
        f = make(spec)

        def g(y):
            value = y.d0 if isinstance(y, Jet4) else y
            if isinstance(value, IntervalArray):
                calls.append(value.lo.size)
            return f(y)

        return g

    monkeypatch.setattr(pipeline, "make_kt_integrand", counting)
    v = pipeline.process(pipeline.ParameterSet.for_phase(1.0, 1.0001, 0.15))
    assert v.quadrature.batches < len(calls) <= 2 * v.quadrature.batches


def test_non_evaluable_names_the_depth_first_cell():
    """log(x - 0.3) fails on every cell reaching below 0.3; the batched
    driver raises for the same cell a depth-first walk stops at."""
    f = lambda x: (x - 0.3).log()
    tol = Tolerance(1e-6, 1e-6, 6)
    with pytest.raises(NonEvaluable) as batched:
        adaptive_integrate(f, [(0.0, 1.0)], tol)
    with pytest.raises(NonEvaluable) as depth_first:
        _reference_integrate(f, 0.0, 1.0, tol)
    assert str(batched.value) == str(depth_first.value)


def test_jet_batch_memory():
    """The widest batch of order-4 jets stays under 1 MiB of numpy and
    Python allocations for the vortex, the small- and the big-alpha
    integrand; a wider batch would raise a worker's peak RSS."""
    curve = Bump(Interval.around(0.15))
    edges = np.linspace(1.0 / 128.0, math.pi, quadrature.WIDTH + 1)
    regimes = [
        (Regime.VORTEX, Interval(0.0)),
        (Regime.SMALL_ALPHA, Interval(0.02, 0.0201)),
        (Regime.BIG_ALPHA, Interval(1.0, 1.0001)),
    ]
    for regime, alpha in regimes:
        f = make_kt_integrand(IntegrandSpec.for_regime(regime, alpha, curve))
        cells = IntervalArray.batch(edges[:-1], edges[1:])
        with np.errstate(all="ignore"):
            tracemalloc.start()
            try:
                quadrature._remainder(f, *cells)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert not cells[0].err.any(), regime
        assert peak < 2**20, regime


# sha256 (first 16 hex digits) of one batch's enclosure lower ends, upper
# ends and mask from _evaluate, per regime, lane count and kind, at C=0.15.
# The 176 cells are evenly spaced on [1/128, pi] and the 510 on
# [-pi, -1/128]: the smallest and the largest batch of the benchmark's sets,
# one on each side of the window
_BATCH_ALPHA = {
    Regime.VORTEX: Interval(0.0),
    Regime.SMALL_ALPHA: Interval(0.02, 0.0201),
    Regime.BIG_ALPHA: Interval(0.5, 0.51),
    Regime.VERY_BIG_ALPHA: Interval(1.96, 1.97),
}
_BATCH_BITS = {
    (Regime.VORTEX, 176, "_node_sum"): "1165e98bcffb72d9",
    (Regime.VORTEX, 176, "_remainder"): "47f45884dfdd7c35",
    (Regime.VORTEX, 510, "_node_sum"): "02377d53b0554596",
    (Regime.VORTEX, 510, "_remainder"): "b88b256bbc33c86c",
    (Regime.SMALL_ALPHA, 176, "_node_sum"): "d154a775ad10bcb2",
    (Regime.SMALL_ALPHA, 176, "_remainder"): "76389d1c6c16d11a",
    (Regime.SMALL_ALPHA, 510, "_node_sum"): "c5cc46fbbbad2937",
    (Regime.SMALL_ALPHA, 510, "_remainder"): "b5c8f94d926c40b4",
    (Regime.BIG_ALPHA, 176, "_node_sum"): "0653f9b0044ce3be",
    (Regime.BIG_ALPHA, 176, "_remainder"): "d3516d153360ab43",
    (Regime.BIG_ALPHA, 510, "_node_sum"): "89b0db7fd4999818",
    (Regime.BIG_ALPHA, 510, "_remainder"): "788a07552f53e6e9",
    (Regime.VERY_BIG_ALPHA, 176, "_node_sum"): "4d6a35d35889cf75",
    (Regime.VERY_BIG_ALPHA, 176, "_remainder"): "6ded2a0a2f5b1f5d",
    (Regime.VERY_BIG_ALPHA, 510, "_node_sum"): "3969849e75c269ca",
    (Regime.VERY_BIG_ALPHA, 510, "_remainder"): "8fb1e9936882530b",
}


@pytest.mark.parametrize("regime", list(_BATCH_ALPHA), ids=lambda r: r.value)
def test_batch_frozen_bits(regime):
    """One batch's node sums and remainders are bit for bit what they were
    with separate lo and hi arrays rounded by np.nextafter."""
    from alphapatch.pipeline import WINDOW_HALF

    f = make_kt_integrand(IntegrandSpec(regime, _BATCH_ALPHA[regime], Bump(Interval.around(0.15))))
    for lanes, (a, b) in ((176, (WINDOW_HALF, math.pi)), (510, (-math.pi, -WINDOW_HALF))):
        edges = np.linspace(a, b, lanes + 1)
        for kind in ("_node_sum", "_remainder"):
            evaluate = getattr(quadrature, kind)
            with np.errstate(all="ignore"):
                elo, ehi, ok = quadrature._evaluate(evaluate, f, edges[:-1], edges[1:], np.ones(lanes, bool))
            assert ok.all(), (lanes, kind)
            digest = hashlib.sha256(elo.tobytes() + ehi.tobytes() + ok.tobytes()).hexdigest()[:16]
            assert digest == _BATCH_BITS[regime, lanes, kind], (lanes, kind)
