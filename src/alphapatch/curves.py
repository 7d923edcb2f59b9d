"""The proof curve and its validated derivative evaluation.

The bump-sine curve  z(x) = (2 e^{1 - 1/(1-(x/pi)^2)} - 1, sin(x - C))  is
defined on [-pi, pi] and extended 2pi-periodically (the first component is
even, approaches -1 at +-pi, and all its derivatives vanish there).

The k-th derivative of the bump component factors as

    d_k(x) * e^{1 - 1/(1-(x/pi)^2)} / (x^2 - pi^2)^{2k}

where d_k is a polynomial with integer coefficients in x and pi.  The tables
below hold d_1..d_6 expanded into monomials ``coef * pi^p * x^q``.  They
satisfy the recurrence

    d_{k+1} = d_k' (x^2-pi^2)^2 - 2 pi^2 x d_k - 4 k x (x^2-pi^2) d_k,

which the test suite cross-checks against extended-precision numerical
differentiation of the closed form.  Note the x^10 monomial of d_6: the
recurrence forces coefficient +14880 pi^8 (inner factor -930), and only with
that sign is d_6 positive near +-pi; the sign tasks would fail otherwise.

Evaluation is generic over :class:`Interval` and :class:`Jet4` scalars, so
the same code path serves plain enclosures and differentiation arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .interval import Interval, DomainViolation, PI, ZERO
from .jets import Jet4

__all__ = [
    "Bump",
    "ZoneViolation",
    "EPS_ZONE",
    "ZONE_LEFT",
    "ZONE_RIGHT",
    "lemma_poly",
    "hull_enclosure",
    "bump_envelope",
    "z1_derivs",
    "z2_derivs",
]


class ZoneViolation(DomainViolation):
    """Argument not inside one of the +-pi endpoint zones."""


EPS_ZONE = 1.0 / 128.0  # representable exactly

_PI2 = PI.sqr()

# zone enclosures, widened one ulp outward so they cover the true zones
ZONE_LEFT = Interval(-PI.hi, math.nextafter(-PI.lo + EPS_ZONE, math.inf))
ZONE_RIGHT = Interval(math.nextafter(PI.lo - EPS_ZONE, -math.inf), PI.hi)


@dataclass(frozen=True)
class Bump:
    """Bump-sine proof curve; ``c_phase`` encloses the phase constant C."""

    c_phase: Interval


# --------------------------------------------------------------------------
# d_k monomial tables: (integer coefficient, power of pi, power of x)
# --------------------------------------------------------------------------

_D_MONOMIALS = {
    1: [(-4, 2, 1)],
    2: [(-4, 6, 0), (12, 2, 4)],
    3: [(-24, 8, 1), (80, 6, 3), (-24, 4, 5), (-48, 2, 7)],
    4: [(-24, 12, 0), (48, 10, 2), (464, 8, 4), (-1056, 6, 6), (360, 4, 8), (240, 2, 10)],
    5: [
        (-240, 14, 1),
        (2720, 12, 3),
        (-4224, 10, 5),
        (-4800, 8, 7),
        (12240, 6, 9),
        (-4320, 4, 11),
        (-1440, 2, 13),
    ],
    6: [
        (-240, 18, 0),
        (4320, 16, 2),
        (16080, 14, 4),
        (-113632, 12, 6),
        (154320, 10, 8),
        (14880, 8, 10),
        (-136080, 6, 12),
        (50400, 4, 14),
        (10080, 2, 16),
    ],
}


def _horner_coeffs(monomials):
    """Interval coefficients of the polynomial in u^2, descending, plus a
    flag for an overall factor u (the d_k are purely even or purely odd)."""
    odd = monomials[0][2] % 2
    assert all(q % 2 == odd for _, _, q in monomials)
    deg = max((q - odd) // 2 for _, _, q in monomials)
    coeffs = [ZERO] * (deg + 1)
    for coef, p, q in monomials:
        coeffs[(q - odd) // 2] = PI.powi(p) * coef
    coeffs.reverse()
    return tuple(coeffs), bool(odd)


_D_HORNER = {k: _horner_coeffs(m) for k, m in _D_MONOMIALS.items()}


def _eval_poly_u2(coeffs_desc, u, u2, odd):
    acc = coeffs_desc[0]
    for c in coeffs_desc[1:]:
        acc = acc * u2 + c
    if odd:
        acc = acc * u
    return acc


def d_poly(k, u, u2=None):
    """d_k evaluated at u (Interval or Jet4)."""
    coeffs, odd = _D_HORNER[k]
    if u2 is None:
        u2 = u.sqr()
    return _eval_poly_u2(coeffs, u, u2, odd)


# --------------------------------------------------------------------------
# generic bump evaluation
# --------------------------------------------------------------------------


def _check_inside(u):
    """Bump closed form needs the value enclosure strictly inside (-pi, pi)
    (on a batch: the lanes outside are flagged)."""
    d0 = u.d0 if isinstance(u, Jet4) else u
    d0.require(
        (-math.pi < d0.lo) & (d0.hi < math.pi),
        lambda: DomainViolation(
            f"bump closed form evaluated at {d0!r} touching +-pi; use hull_enclosure"
        ),
    )


def bump_envelope(u):
    """E(u) = exp(1 - 1/(1 - (u/pi)^2)), the smooth bump factor."""
    _check_inside(u)
    t2 = (u / PI).sqr()
    return (1.0 - 1.0 / (1.0 - t2)).exp()


def z1_derivs(u, kmax):
    """[z1(u), z1'(u), ..., z1^(kmax)(u)] sharing subexpressions.

    Works for Interval and Jet4 arguments alike; the argument must be
    strictly inside (-pi, pi).
    """
    _check_inside(u)
    u2 = u.sqr()
    e = bump_envelope(u)
    out = [2.0 * e - 1.0]
    if kmax == 0:
        return out
    den = u2 - _PI2  # negative inside the domain
    powers = {1: den.sqr()}
    if kmax >= 2:
        powers[2] = powers[1].sqr()
    if kmax >= 3:
        powers[3] = powers[2] * powers[1]
    if kmax >= 4:
        powers[4] = powers[2].sqr()
    if kmax >= 5:
        powers[5] = powers[4] * powers[1]
    if kmax >= 6:
        powers[6] = powers[3].sqr()
    for k in range(1, kmax + 1):
        out.append(d_poly(k, u, u2) * e / powers[k])
    return out


def z2_derivs(u, kmax, c_phase):
    """[z2(u), ..., z2^(kmax)(u)] for z2 = sin(. - C); cycles sin/cos."""
    w = u - c_phase
    if isinstance(w, Jet4):
        s, c = w.sin_cos()
    else:
        s, c = w.sin(), w.cos()
    cycle = (s, c, -s, -c)
    return [cycle[k % 4] for k in range(kmax + 1)]


def lemma_poly(name, x, c_phase=None):
    """Interval evaluation of k_C or one of d_1..d_6.

    ``name`` is "kc" (requires ``c_phase``) or "d1".."d6".
    """
    if name == "kc":
        if c_phase is None:
            raise ValueError("kc requires the phase constant")
        x2 = x.sqr()
        w = c_phase - x
        term1 = (PI.powi(4) - 3.0 * x2.sqr()) * w.cos()
        term2 = x * (_PI2 - x2).sqr() * w.sin()
        return 4.0 * _PI2 * (term1 - term2)
    if name.startswith("d") and name[1:].isdigit():
        k = int(name[1:])
        if 1 <= k <= 6:
            return d_poly(k, x)
    raise ValueError(f"unknown lemma polynomial {name!r}")


def _limit_value(k):
    """z1^(k) at exactly +-pi (the smooth periodic extension's limit)."""
    return Interval(-1.0) if k == 0 else ZERO


def hull_enclosure(k, x):
    """Enclosure of the bump component's z1^(k) over an interval inside an
    endpoint zone (z1 does not involve the phase constant).

    Valid once the matching d_{k+1} sign fact holds on the zone: then
    z1^(k) is monotone there and its range is the hull of the endpoint
    values.  Endpoints within one ulp of +-pi take the limit values (-1 for
    k = 0, else 0); the interval is read as representing its intersection
    with [-pi, pi].
    """
    if not 0 <= k <= 5:
        raise ZoneViolation("hull enclosures cover orders 0..5")
    if x.is_subset(ZONE_LEFT):
        side = -1
    elif x.is_subset(ZONE_RIGHT):
        side = 1
    else:
        raise ZoneViolation(f"{x!r} not inside an endpoint zone")
    vals = []
    for endpoint in (x.lo, x.hi):
        if (side < 0 and endpoint <= -math.pi) or (side > 0 and endpoint >= math.pi):
            vals.append(_limit_value(k))
        else:
            vals.append(z1_derivs(Interval(endpoint), k)[k])
    return vals[0].hull(vals[1])
