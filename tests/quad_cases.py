"""Fifty jet-evaluable integrands with closed-form integrals.

Shared between the quadrature unit tests and the acceptance suite.  Exact
values are evaluated in mpmath from the closed-form antiderivatives, never
from the enclosure path under test.
"""

from mpmath import mp, mpf, sin, cos, exp, log, atan, sqrt, e

mp.dps = 40


def _monomial(k):
    return (
        f"x^{k} on [0,1]",
        lambda x, k=k: x.powi(k),
        0.0,
        1.0,
        mpf(1) / (k + 1),
    )


def _sin_case(k):
    return (
        f"sin({k}x) on [0,1]",
        lambda x, k=k: (x * float(k)).sin(),
        0.0,
        1.0,
        (1 - cos(mpf(k))) / k,
    )


def _cos_case(k):
    return (
        f"cos({k}x) on [0,1]",
        lambda x, k=k: (x * float(k)).cos(),
        0.0,
        1.0,
        sin(mpf(k)) / k,
    )


def _exp_case(k):
    return (
        f"exp({k}x/4) on [0,1]",
        lambda x, k=k: (x * (k / 4.0)).exp(),
        0.0,
        1.0,
        (exp(mpf(k) / 4) - 1) * 4 / k,
    )


def _xklogx(k):
    # antiderivative x^{k+1} (log x / (k+1) - 1/(k+1)^2)
    def exact(t):
        t = mpf(t)
        return t ** (k + 1) * (log(t) / (k + 1) - mpf(1) / (k + 1) ** 2)

    return (
        f"x^{k} log x on [1,2]",
        lambda x, k=k: x.powi(k) * x.log(),
        1.0,
        2.0,
        exact(2) - exact(1),
    )


def _inv_quad(c):
    return (
        f"1/({c}+x^2) on [0,1]",
        lambda x, c=c: 1.0 / (x.sqr() + float(c)),
        0.0,
        1.0,
        atan(1 / sqrt(mpf(c))) / sqrt(mpf(c)),
    )


def _power(p):
    return (
        f"x^{p} on [1,4]",
        lambda x, p=p: x.pow(p),
        1.0,
        4.0,
        (mpf(4) ** (p + 1) - 1) / (p + 1),
    )


CASES = (
    [_monomial(k) for k in range(10)]
    + [_sin_case(k) for k in range(1, 9)]
    + [_cos_case(k) for k in range(1, 9)]
    + [_exp_case(k) for k in range(1, 7)]
    + [_xklogx(k) for k in range(5)]
    + [_inv_quad(c) for c in range(1, 6)]
    + [_power(p) for p in (0.5, 1.5, 2.5, -0.5)]
    + [
        (
            "exp(x) sin(x) on [0,2]",
            lambda x: x.exp() * x.sin(),
            0.0,
            2.0,
            exp(mpf(2)) * (sin(mpf(2)) - cos(mpf(2))) / 2 - (0 - 1) / mpf(2),
        ),
        (
            "tan(x) on [0,1]",
            lambda x: x.sin() / x.cos(),
            0.0,
            1.0,
            -log(cos(mpf(1))),
        ),
        (
            "x/(1+x^2) on [0,3]",
            lambda x: x / (x.sqr() + 1.0),
            0.0,
            3.0,
            log(mpf(10)) / 2,
        ),
        (
            "1/x on [1,5]",
            lambda x: 1.0 / x,
            1.0,
            5.0,
            log(mpf(5)),
        ),
    ]
)

assert len(CASES) == 50
