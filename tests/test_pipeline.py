import csv
import dataclasses
import pickle

import pytest

from alphapatch.interval import Interval, SignOutcome
from alphapatch.integrands import Regime
from alphapatch.quadrature import Tolerance
from alphapatch.pipeline import (
    ParameterSet,
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
    assert regime_select(Interval(1.96, 1.99)) == Regime.VERY_BIG_ALPHA
    with pytest.raises(StraddlesBoundary):
        regime_select(Interval(0.03, 0.05))
    with pytest.raises(StraddlesBoundary):
        regime_select(Interval(1.9, 1.96))
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
    # [1.94, 1.96] crosses the big/very-big boundary and must be split
    rows = run_queue(
        [ParameterSet.for_phase(1.94, 1.96, 0.15, tol=Tolerance(1e-3, 1e-3, 11))],
        split_threshold=5e-6,
    )
    assert len(rows) == 2  # split exactly at the regime boundary
    assert all(v.outcome == SignOutcome.ALL_POSITIVE for v in rows)
    assert {v.regime for v in rows} == {Regime.BIG_ALPHA, Regime.VERY_BIG_ALPHA}
    lo = min(v.ps.alpha.lo for v in rows)
    hi = max(v.ps.alpha.hi for v in rows)
    assert lo == 1.94 and hi == 1.96
    # rows tile the initial interval without gaps
    spans = sorted((v.ps.alpha.lo, v.ps.alpha.hi) for v in rows)
    for (alo, ahi), (blo, bhi) in zip(spans, spans[1:]):
        assert ahi == blo


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


def test_worker_sharding_matches_sequential(tmp_path):
    initial = [
        ParameterSet.for_phase(0.0, 0.0, 0.15),
        ParameterSet.for_phase(0.02, 0.02005, 0.15, tol=Tolerance(1e-4, 1e-4)),
    ]
    seq = run_queue(initial, workers=1)
    par = run_queue(initial, workers=2)
    assert [(v.ps.alpha.lo, v.outcome) for v in seq] == [
        (v.ps.alpha.lo, v.outcome) for v in par
    ]
    for a, b in zip(seq, par):
        assert a.enclosure.lo == b.enclosure.lo
        assert a.enclosure.hi == b.enclosure.hi
