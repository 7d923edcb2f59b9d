import math
import random

from mpmath import mp, mpf

from alphapatch.interval import Interval, SignOutcome, PI
from alphapatch.curves import ZONE_LEFT, ZONE_RIGHT, lemma_poly, Bump
from alphapatch.signcheck import SignTask, validate_sign, write_certificate_csv

mp.dps = 30

C15 = Bump(Interval.around(0.15))


def test_positive_parabola():
    task = SignTask(lambda x: x.sqr() + 1.0, Interval(-1, 1), 1e-6)
    res = validate_sign(task)
    assert res.outcome == SignOutcome.ALL_POSITIVE
    assert res.witness is None
    # certificate tiles the domain
    subs = sorted(res.certificate, key=lambda r: r.sub.lo)
    assert subs[0].sub.lo == -1.0 and subs[-1].sub.hi == 1.0
    for a, b in zip(subs, subs[1:]):
        assert a.sub.hi == b.sub.lo
    for row in subs:
        assert row.enclosure.lo > 0


def test_identity_indeterminate_at_zero():
    task = SignTask(lambda x: x, Interval(-1, 1), 1e-6)
    res = validate_sign(task)
    assert res.outcome == SignOutcome.INDETERMINATE
    assert res.witness is not None
    assert res.witness.sub.lo <= 0.0 <= res.witness.sub.hi or abs(res.witness.sub.mid()) < 1e-5


def test_kc_positive_min_width_paper():
    domain = Interval(-PI.hi, PI.hi)
    task = SignTask(
        lambda x: lemma_poly("kc", x, C15.c_phase), domain, 2e-10, SignOutcome.ALL_POSITIVE
    )
    res = validate_sign(task)
    assert res.outcome == SignOutcome.ALL_POSITIVE
    assert len(res.certificate) >= 4


def test_negative_function():
    task = SignTask(lambda x: -(x.sqr()) - 0.5, Interval(0, 2), 1e-6)
    res = validate_sign(task)
    assert res.outcome == SignOutcome.ALL_NEGATIVE


def test_evaluation_error_forces_split():
    # log(x) on a domain crossing zero can never certify; errors are treated
    # as sign-indefinite rather than crashing the task
    task = SignTask(lambda x: x.log(), Interval(-0.5, 2.0), 1e-4)
    res = validate_sign(task)
    assert res.outcome == SignOutcome.INDETERMINATE


def test_determinism():
    task = SignTask(
        lambda x: (x * 3.0).sin() + 1.05, Interval(-2.0, 2.0), 1e-5
    )
    r1 = validate_sign(task)
    r2 = validate_sign(task)

    def key(rows):
        return [(r.sub.lo, r.sub.hi, r.enclosure.lo, r.enclosure.hi) for r in rows]

    assert key(r1.certificate) == key(r2.certificate)


def test_certificate_soundness_resampling():
    rnd = random.Random(11)
    f = lambda x: lemma_poly("d2", x)
    task = SignTask(f, ZONE_RIGHT, 2e-10)
    res = validate_sign(task)
    assert res.outcome == SignOutcome.ALL_POSITIVE
    for row in res.certificate:
        again = f(row.sub)
        assert again.lo > 0
        x0 = rnd.uniform(row.sub.lo, row.sub.hi)
        assert row.enclosure.lo <= float(_d2_exact(x0)) <= row.enclosure.hi


def _d2_exact(x):
    return -4 * mp.pi**2 * (mp.pi**4 - 3 * mpf(x) ** 4)


def test_zone_sign_tasks_all_fourteen_shapes():
    # d1..d6 alternate sign demands per zone
    expectations = {
        1: (SignOutcome.ALL_POSITIVE, SignOutcome.ALL_NEGATIVE),
        2: (SignOutcome.ALL_POSITIVE, SignOutcome.ALL_POSITIVE),
        3: (SignOutcome.ALL_POSITIVE, SignOutcome.ALL_NEGATIVE),
        4: (SignOutcome.ALL_POSITIVE, SignOutcome.ALL_POSITIVE),
        5: (SignOutcome.ALL_POSITIVE, SignOutcome.ALL_NEGATIVE),
        6: (SignOutcome.ALL_POSITIVE, SignOutcome.ALL_POSITIVE),
    }
    for k, (left_expect, right_expect) in expectations.items():
        f = lambda x, k=k: lemma_poly(f"d{k}", x)
        left = validate_sign(SignTask(f, ZONE_LEFT, 2e-10))
        right = validate_sign(SignTask(f, ZONE_RIGHT, 2e-10))
        assert left.outcome == left_expect, k
        assert right.outcome == right_expect, k


def test_dense_sampling_agrees_with_verdict():
    """10^4 extended-precision point samples back an AllPositive verdict."""
    rnd = random.Random(17)
    f = lambda x: lemma_poly("kc", x, C15.c_phase)
    res = validate_sign(SignTask(f, Interval(-PI.hi, PI.hi), 2e-10))
    assert res.outcome == SignOutcome.ALL_POSITIVE
    for _ in range(10**4):
        x = mpf(rnd.uniform(-math.pi, math.pi))
        v = 4 * mp.pi**2 * (
            (mp.pi**4 - 3 * x**4) * mp.cos(mpf("0.15") - x)
            - x * (mp.pi**2 - x**2) ** 2 * mp.sin(mpf("0.15") - x)
        )
        assert v > 0


def test_csv_roundtrip(tmp_path):
    task = SignTask(lambda x: x.sqr() + 1.0, Interval(-1, 1), 1e-3)
    res = validate_sign(task)
    path = tmp_path / "cert.csv"
    write_certificate_csv(path, [("sq", res)])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "name,sub_lo,sub_hi,enc_lo,enc_hi"
    assert len(lines) == 1 + len(res.certificate)
    first = lines[1].split(",")
    assert float(first[1]) == -1.0
