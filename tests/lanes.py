"""Helpers for checking IntervalArray lanes against single intervals."""

import numpy as np

from alphapatch.interval import IntervalArray, IntervalError


def lanes(intervals):
    """One fresh batch holding ``intervals`` as its lanes."""
    lo = np.array([x.lo for x in intervals])
    hi = np.array([x.hi for x in intervals])
    return IntervalArray(lo, hi, np.zeros(lo.size, bool))


def bits(x, i=None):
    """Endpoints (of lane ``i``) as hex strings, which tell -0.0 from 0.0."""
    if i is None:
        return float(x.lo).hex(), float(x.hi).hex()
    return float(x.lo[i]).hex(), float(x.hi[i]).hex()


def single(fn, *args):
    """``fn(*args)``, or None where it raises an IntervalError."""
    try:
        return fn(*args)
    except IntervalError:
        return None


def assert_lanes_match(result, singles, what, batch):
    """``singles`` holds each lane's single-interval result, or None where
    it raised.  A single-interval ``result`` (a product with the single
    ZERO, say) stands for every lane of ``batch``."""
    if not isinstance(result, IntervalArray):
        n = batch.err.size
        result = IntervalArray(np.full(n, result.lo), np.full(n, result.hi), batch.err)
    for i, one in enumerate(singles):
        if one is None:
            assert result.err[i], (what, i)
        else:
            assert not result.err[i], (what, i, one)
            assert bits(result, i) == bits(one), (what, i, one, bits(result, i))
