import csv
import dataclasses
import pickle

import pytest

from alphapatch.interval import Interval, SignOutcome
from alphapatch.integrands import Regime
from alphapatch.quadrature import Tolerance
from alphapatch import pipeline
from alphapatch.pipeline import (
    ParameterSet,
    RegionVerdict,
    StraddlesBoundary,
    regime_select,
    process,
    run_queue,
    write_region_files,
    ensure_zone_facts,
    REGION_HEADER,
)


def test_regime_select():
    assert regime_select(Interval(0.0)) == Regime.VORTEX
    assert regime_select(Interval(0.01, 0.02)) == Regime.SMALL_ALPHA
    assert regime_select(Interval(0.05, 1.9)) == Regime.BIG_ALPHA
    # one regime from ALPHA_CR up to 2: no cut at 1.95
    assert regime_select(Interval(1.96, 1.99)) == Regime.BIG_ALPHA
    assert regime_select(Interval(1.9, 1.96)) == Regime.BIG_ALPHA
    with pytest.raises(StraddlesBoundary):
        regime_select(Interval(0.03, 0.05))
    with pytest.raises(StraddlesBoundary):
        regime_select(Interval(0.0, 0.01))
    with pytest.raises(StraddlesBoundary):
        regime_select(Interval(1.99, 2.0))


def test_zone_facts_certify():
    ensure_zone_facts()  # raises if any d_k zone sign fails


def test_parameterset_pickles():
    ps = ParameterSet.for_phase(0.5, 0.5001, 0.15)
    blob = pickle.loads(pickle.dumps(ps))
    assert blob.alpha == ps.alpha and blob.c_phase == ps.c_phase


def test_parameterset_defaults():
    ps = ParameterSet.for_phase(0.0, 0.0, 0.15)
    assert [f.name for f in dataclasses.fields(ps)] == ["alpha", "c_phase", "tol"]
    assert ps.tol == Tolerance()


def test_process_vortex_negative():
    v = process(ParameterSet.for_phase(0.0, 0.0, 0.15))
    assert v.outcome == SignOutcome.ALL_NEGATIVE
    assert v.regime == Regime.VORTEX
    # cross-check against the extended-precision oracle of the full integral
    assert v.enclosure.lo <= -0.04016313297 <= v.enclosure.hi


def test_process_vortex_c45_negative():
    v = process(ParameterSet.for_phase(0.0, 0.0, 0.45))
    assert v.outcome == SignOutcome.ALL_NEGATIVE
    assert v.enclosure.lo <= -0.1134537004 <= v.enclosure.hi


def test_run_queue_empty():
    rows = run_queue([])
    assert rows == []


def test_run_queue_splits_straddling_interval():
    # [0.03, 0.05] crosses the small/big boundary and must be cut there;
    # [1.94, 1.96] lies in the big regime and stays one set.  The threshold
    # is wider than every piece, so no piece is split further
    tol = Tolerance(1e-3, 1e-3, 11)
    rows = run_queue(
        [
            ParameterSet.for_phase(0.03, 0.05, 0.15, tol=tol),
            ParameterSet.for_phase(1.94, 1.96, 0.15, tol=tol),
        ],
        split_threshold=0.05,
    )
    assert [(v.ps.alpha.lo, v.ps.alpha.hi, v.regime) for v in rows] == [
        (0.03, 0.04, Regime.SMALL_ALPHA),
        (0.04, 0.05, Regime.BIG_ALPHA),
        (1.94, 1.96, Regime.BIG_ALPHA),
    ]
    assert rows[-1].outcome == SignOutcome.ALL_POSITIVE


def test_region_files_roundtrip(tmp_path):
    rows = run_queue([ParameterSet.for_phase(0.0, 0.0, 0.15)])
    write_region_files(rows, str(tmp_path))
    neg = tmp_path / "negative.csv"
    pos = tmp_path / "positive.csv"
    ind = tmp_path / "indeterminate.csv"
    assert neg.exists() and pos.exists() and ind.exists()
    with open(neg) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert header == REGION_HEADER
        data = list(reader)
    assert len(data) == 1
    row = data[0]
    assert float(row[1]) == 0.0 and float(row[2]) == 0.0
    assert row[3] == "vortex" and row[6] == "negative"
    # endpoints round-trip exactly through the 17-digit format
    assert float(row[4]) == rows[0].enclosure.lo
    with open(pos) as fh:
        assert len(fh.read().strip().splitlines()) == 1  # header only


def test_no_alpha_interval_in_both_files(tmp_path):
    rows = run_queue(
        [
            ParameterSet.for_phase(0.0, 0.0, 0.15),
            ParameterSet.for_phase(1.0, 1.0001, 0.15, tol=Tolerance(1e-4, 1e-4)),
        ],
    )
    write_region_files(rows, str(tmp_path))
    def spans(path):
        with open(path) as fh:
            reader = csv.reader(fh)
            next(reader)
            return {(r[1], r[2]) for r in reader}

    pos = spans(tmp_path / "positive.csv")
    neg = spans(tmp_path / "negative.csv")
    assert not (pos & neg)
    assert len(pos) == 1 and len(neg) == 1


def _row_bits(v):
    return (
        v.ps.c_phase.mid(),
        v.ps.alpha.lo,
        v.ps.alpha.hi,
        v.regime,
        v.outcome,
        v.enclosure.lo.hex(),
        v.enclosure.hi.hex(),
        v.quadrature,
    )


def test_worker_sharding_matches_sequential():
    # [0.03995, 0.04005] is cut at ALPHA_CR before any work; [0.02, 0.021] is
    # indeterminate at this tolerance, so its halves run in a second wave
    initial = [
        ParameterSet.for_phase(0.03995, 0.04005, 0.15, tol=Tolerance(1e-2, 1e-2)),
        ParameterSet.for_phase(0.02, 0.021, 0.15, tol=Tolerance(1e-3, 1e-3)),
    ]
    seq = run_queue(initial, split_threshold=1e-4, workers=1)
    par = run_queue(initial, split_threshold=1e-4, workers=2)
    assert [(v.ps.alpha.lo, v.ps.alpha.hi) for v in seq] == [
        (0.02, 0.0205),
        (0.0205, 0.021),
        (0.03995, 0.04),
        (0.04, 0.04005),
    ]
    assert [_row_bits(v) for v in seq] == [_row_bits(v) for v in par]


def test_run_queue_never_processes_a_straddling_set(monkeypatch):
    seen = []

    def stub(ps):
        seen.append(ps)
        regime = regime_select(ps.alpha)
        return RegionVerdict(ps, SignOutcome.INDETERMINATE, Interval(-1.0, 1.0), regime)

    monkeypatch.setattr(pipeline, "process", stub)
    spans = [(0.0, 0.0), (1e-9, 0.05), (0.05, 1.99)]
    initial = [ParameterSet.for_phase(lo, hi, 0.15) for lo, hi in spans]
    rows = run_queue(initial, split_threshold=0.05)
    assert len(seen) > len(rows) > len(spans)
    for ps in seen:
        regime_select(ps.alpha)  # raises on a set no regime covers
    # the rows still tile every initial interval
    for lo, hi in spans:
        inner = [v.ps.alpha for v in rows if lo <= v.ps.alpha.lo and v.ps.alpha.hi <= hi]
        assert inner[0].lo == lo and inner[-1].hi == hi
        assert all(a.hi == b.lo for a, b in zip(inner, inner[1:]))


@pytest.mark.parametrize("lo,hi", [(0.0, 0.01), (1.99, 2.0)])
def test_run_queue_rejects_uncovered_alpha_before_work(monkeypatch, lo, hi):
    monkeypatch.setattr(pipeline, "process", lambda ps: pytest.fail("work started"))
    initial = [ParameterSet.for_phase(1.0, 1.0, 0.15), ParameterSet.for_phase(lo, hi, 0.15)]
    with pytest.raises(ValueError):
        run_queue(initial, workers=2)


# process() per ParameterSet, as first certified with one quadrature walk per
# y-half: enclosure endpoints (float.hex), cells, jet evaluations and the
# depth-cap flag.  The six point sets of the prove-point benchmark and the
# two alpha bands of the prove-band benchmark; the bands' rows are those of
# the alpha-limited stop, which no point set meets
_PROCESS_BITS = {
    (0.15, 0.0, 0.0): ("-0x1.493bbf915a444p-5", "-0x1.48ccaa6f18cf0p-5", 311, 620, False),
    (0.15, 0.02, 0.02): ("-0x1.6b2d93549c584p-6", "-0x1.69f940cd12514p-6", 413, 824, False),
    (0.15, 1.0, 1.0): ("0x1.3316602a51034p+0", "0x1.331b699d7a814p+0", 483, 964, False),
    (0.15, 1.96, 1.96): ("0x1.ca4800c22a134p+3", "0x1.ca4939313e924p+3", 571, 1140, False),
    (0.45, 0.0, 0.0): ("-0x1.d0cfb79366fd4p-4", "-0x1.d099e2cf504c0p-4", 319, 636, False),
    (0.45, 1.0, 1.0): ("0x1.c895e567427e8p+1", "0x1.c8986326e158cp+1", 491, 980, False),
    (0.15, 1.0, 1.0001): ("0x1.31a0c7ae459d4p+0", "0x1.34a9dc43154c4p+0", 561, 1114, False),
    (0.15, 0.02, 0.0201): ("-0x1.8d054ac8c7144p-6", "-0x1.469bb7a05d614p-6", 522, 1036, False),
}


@pytest.mark.parametrize("key", list(_PROCESS_BITS), ids=lambda k: "C{}-{}:{}".format(*k))
def test_process_frozen_bits(key):
    """Enclosure, cells, jet evaluations and depth-cap flag are bit for bit
    what they were when each y-half had its own quadrature walk."""
    c, lo, hi = key
    v = process(ParameterSet.for_phase(lo, hi, c))
    q = v.quadrature
    got = (v.enclosure.lo.hex(), v.enclosure.hi.hex(), q.subinterval_count, q.jet_evaluations, q.max_depth_hit)
    assert got == _PROCESS_BITS[key]
    assert (q.alpha_limited_cells > 0) == (lo < hi)


def test_alpha_slice_stops_refining_y():
    """A 0.01-wide alpha slice, the --full-sweep default: the alpha-limited
    stop accepts its cells long before the depth cap (16,056 cells at the
    cap without it)."""
    v = process(ParameterSet.for_phase(1.0, 1.01, 0.15))
    assert v.outcome == SignOutcome.ALL_POSITIVE
    assert v.quadrature.subinterval_count <= 1000
    assert v.quadrature.alpha_limited_cells > 0
