"""Recursive-bisection sign certification for one-variable interval functions.

A task halves its domain until every piece has a sign-definite enclosure or
some piece gets narrower than ``min_width`` without one.  The certificate
lists every accepted subinterval with its enclosure, so a verdict can be
re-checked by re-evaluating the function row by row; subintervals share
endpoints exactly (midpoint splits), so the union telescopes back to the
domain.

The recursion is driven by an explicit stack, processed left-to-right, which
makes certificates deterministic and depth-independent of the interpreter's
recursion limit.  Evaluation failures from interval arithmetic (domain
violations, division by an interval containing zero) count as "no sign yet"
and force a split, matching how the adaptive integrator treats them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable, Optional

from .interval import Interval, IntervalError, SignOutcome

__all__ = ["SignTask", "SignResult", "CertRow", "validate_sign", "write_certificate_csv"]

DEFAULT_MIN_WIDTH = 2e-10


@dataclass(frozen=True)
class SignTask:
    f: Callable[[Interval], Interval]
    domain: Interval
    min_width: float = DEFAULT_MIN_WIDTH
    expected: SignOutcome = SignOutcome.ALL_POSITIVE

    def __post_init__(self):
        if not self.min_width > 0:
            raise ValueError("min_width must be positive")
        if not self.domain.lo < self.domain.hi:
            raise ValueError("domain must have positive width")


@dataclass(frozen=True)
class CertRow:
    sub: Interval
    enclosure: Optional[Interval]


@dataclass
class SignResult:
    outcome: SignOutcome
    certificate: list = field(default_factory=list)
    witness: Optional[CertRow] = None
    evaluations: int = 0


def validate_sign(task):
    """Certify the sign of ``task.f`` on ``task.domain``.

    Returns a :class:`SignResult`.  ALL_POSITIVE / ALL_NEGATIVE verdicts come
    with a covering certificate; INDETERMINATE returns immediately with the
    first too-narrow (or opposite-signed) witness subinterval.
    """
    rows = []
    evaluations = 0
    signs_seen = set()
    stack = [task.domain]
    while stack:
        sub = stack.pop()
        try:
            enc = task.f(sub)
            evaluations += 1
        except IntervalError:
            enc = None
            evaluations += 1
        if enc is not None and enc.lo > 0.0:
            rows.append(CertRow(sub, enc))
            signs_seen.add(1)
        elif enc is not None and enc.hi < 0.0:
            rows.append(CertRow(sub, enc))
            signs_seen.add(-1)
        elif sub.width() < task.min_width:
            witness = CertRow(sub, enc)
            return SignResult(SignOutcome.INDETERMINATE, rows, witness, evaluations)
        else:
            mid = sub.mid()
            if not (sub.lo < mid < sub.hi):
                # no representable interior point left to split at
                witness = CertRow(sub, enc)
                return SignResult(SignOutcome.INDETERMINATE, rows, witness, evaluations)
            # push right first so the left half is processed next (DFS in
            # ascending order -> deterministic certificates)
            stack.append(Interval(mid, sub.hi))
            stack.append(Interval(sub.lo, mid))
        if len(signs_seen) == 2:
            # a genuine sign change: neither verdict can hold
            witness = rows[-1]
            return SignResult(SignOutcome.INDETERMINATE, rows, witness, evaluations)
    outcome = SignOutcome.ALL_POSITIVE if signs_seen == {1} else SignOutcome.ALL_NEGATIVE
    return SignResult(outcome, rows, None, evaluations)


def write_certificate_csv(path, results):
    """Serialize certificates as rows: name, sub_lo, sub_hi, enc_lo, enc_hi."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "sub_lo", "sub_hi", "enc_lo", "enc_hi"])
        for name, result in results:
            for row in result.certificate:
                enc_lo = "" if row.enclosure is None else repr(row.enclosure.lo)
                enc_hi = "" if row.enclosure is None else repr(row.enclosure.hi)
                writer.writerow([name, repr(row.sub.lo), repr(row.sub.hi), enc_lo, enc_hi])
