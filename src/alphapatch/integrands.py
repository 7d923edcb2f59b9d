"""Integrand families for the convexity and non-rotation certificates.

Everything here is built at the evaluation point x = pi, the unique zero of
the proof curve's curvature.  The time derivative of the curvature numerator
is  -<z_xt, z_xx^perp(pi)> + <z_xxt, z_x^perp(pi)>  (the |z_x|^3 scaling is
kept multiplied through, never divided out).  At x = pi the first bump
component has vanishing derivatives, so z_x^perp(pi) and z_xx^perp(pi) have
exactly zero second components and the projection extracts the first
components of the displayed integrand vectors; the second components still
enter through |z(x)-z(x-y)|^2 and the inner products.

Each validation regime has one integrand:

* vortex (alpha = 0): the log-free, integrated-by-parts kernel,
* small alpha (0 < alpha <= 0.04): the alpha-derivative of the scaled
  integrand (DI),
* big alpha (0.04 <= alpha < 2): the scaled integrand itself.

The paper's integrand for alpha near 2 adds tangent-kernel counter-terms
sgn(y) |2 tan(y/2)|^{1-alpha} times coefficient vectors built from the
z-derivatives at x = pi.  Those vectors have exactly zero first components,
so the projection sends every counter-term to zero and that integrand
equals the scaled one; the big-alpha regime therefore runs up to alpha = 2.
``test_counterterms_project_to_zero`` checks the identity against the
term-by-term mpmath oracle.

The singularity window [-1/128, 1/128] is never evaluated pointwise: its
contribution is bounded through mean-value substitutions
|d^k z(a) - d^k z(b)| <= |a-b| |d^{k+1} z([a,b])| (second-order Taylor with
the vanishing limit derivatives in the big-alpha regime), with the
bump-side derivative enclosures coming from the monotone hulls, and the
resulting |y|-power and log-weighted integrals evaluated in closed form per
regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .interval import Interval, IntervalArray, DomainViolation, SignOutcome, PI, TWO_PI, ZERO
from .jets import Jet4
from .curves import (
    EPS_ZONE,
    ZONE_LEFT,
    ZONE_RIGHT,
    Bump,
    ZoneViolation,
    hull_enclosure,
    z2_derivs,
    z1_derivs,
)
from .signcheck import DEFAULT_MIN_WIDTH, SignTask, SignResult, validate_sign

__all__ = [
    "ALPHA_CR",
    "WINDOW_HALF",
    "Regime",
    "IntegrandSpec",
    "make_kt_integrand",
    "singular_residual",
    "ellipse_rotation_integrand",
    "ellipse_rotation_check",
    "RotationCertificate",
]

ALPHA_CR = 0.04
# the quadrature leaves out [-WINDOW_HALF, WINDOW_HALF]; singular_residual
# bounds it through the hulls over the endpoint zones, so it is one zone wide
WINDOW_HALF = EPS_ZONE


class Regime(Enum):
    VORTEX = "vortex"
    SMALL_ALPHA = "small_alpha"
    BIG_ALPHA = "big_alpha"
    VERY_BIG_ALPHA = "very_big_alpha"  # never selected; perfbench times it as a regime


@dataclass(frozen=True)
class IntegrandSpec:
    regime: Regime
    alpha: Interval
    curve: Bump

    def __post_init__(self):
        if self.regime == Regime.VORTEX:
            if not (self.alpha.lo == 0.0 == self.alpha.hi):
                raise ValueError("vortex regime needs alpha = [0, 0]")
        elif self.alpha.lo <= 0.0 or self.alpha.hi >= 2.0:
            raise ValueError("alpha must stay inside (0, 2)")

    @classmethod
    def for_regime(cls, regime, alpha, curve):
        return cls(regime, alpha, curve)


class _PointData:
    """Constants of the evaluation point x = pi for one phase interval."""

    def __init__(self, c_phase):
        w = PI - c_phase
        self.s = w.sin()  # z2_x-perp weight; equals sin(C) > 0
        self.c = w.cos()  # equals -cos(C) < 0


def _shift(value):
    """The period shift that brings pi - y back into [-pi, pi]: TWO_PI where
    y lies left of the window and ZERO where it lies right of it, lane by
    lane on a batch.  Lanes on neither side are flagged (a single interval
    raises)."""
    left = value.hi < 0.0
    value.require(
        left | (value.lo > 0.0),
        lambda: DomainViolation(
            f"integrand evaluated across the singularity window: y = {value!r}"
        ),
    )
    if isinstance(value, IntervalArray):
        # subtracting a [0, 0] lane leaves that lane's bits as they are
        return IntervalArray(np.where(left, TWO_PI.lo, 0.0), np.where(left, TWO_PI.hi, 0.0), value.err)
    return TWO_PI if left else ZERO


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _pieces(spec, pt, y, order):
    """Shared differences at offset y (jet or interval): z1 up to ``order``,
    z2 up to order 2, dz, dzx, dzxx and q = |dz|^2.

    Only what some regime reads is built: the vortex integrand reads z1 up
    to order 2, and no regime reads the second component of dzxxx.
    """
    d0 = y.d0 if isinstance(y, Jet4) else y
    u = PI - y - _shift(d0)
    z1 = z1_derivs(u, order)
    z2 = z2_derivs(u, 2, spec.curve.c_phase)
    dz = (-1.0 - z1[0], pt.s - z2[0])
    dzx = (-z1[1], pt.c - z2[1])
    dzxx = (-z1[2], -pt.s - z2[2])
    q = dz[0].sqr() + dz[1].sqr()
    return z1, z2, dz, dzx, dzxx, q


def _alpha_pieces(spec, pt, y):
    """dz, dzx, dzxx, dzxxx_1 and q for the alpha integrands.

    They do not use z1 and z2, so a batch of jets frees those lanes here,
    before the kernel's temporaries pile up.
    """
    z1, _, dz, dzx, dzxx, q = _pieces(spec, pt, y, 3)
    return dz, dzx, dzxx, -z1[3], q


def _project(pt, zxt1, zxxt1):
    # <V, z_xx^perp(pi)> = V1 * s ;  <V, z_x^perp(pi)> = V1 * (-c)
    return -(pt.s * zxt1) - pt.c * zxxt1


def _vortex(spec, pt, y):
    z1, z2, dz, dzx, dzxx, q = _pieces(spec, pt, y, 2)
    zxu = (z1[1], z2[1])
    dz_zxu = _dot(dz, zxu)
    dz_dzx = _dot(dz, dzx)
    dz_dzxx = _dot(dz, dzxx)
    dzx_sq = dzx[0].sqr() + dzx[1].sqr()
    inv_q = 1.0 / q
    zxt1 = -dz_zxu * inv_q * dzx[0] + dz_dzx * inv_q * z1[1]
    zxxt1 = (
        -dz_zxu * inv_q * dzxx[0]
        + 2.0 * (dz_dzx * inv_q) * z1[2]
        + dzx_sq * inv_q * z1[1]
        + dz_dzxx * inv_q * z1[1]
        - 2.0 * (dz_dzx.sqr() * inv_q * inv_q) * z1[1]
    )
    return _project(pt, zxt1, zxxt1)


def _alpha_kernels(spec, q):
    a = spec.alpha
    p_a = (q.log() * (a * -0.5)).exp()  # |dz|^{-alpha}
    p_2a = p_a / q  # |dz|^{-(2+alpha)}
    p_4a = p_2a / q  # |dz|^{-(4+alpha)}
    return p_a, p_2a, p_4a


def _big_alpha(spec, pt, y):
    dz, dzx, dzxx, dzxxx1, q = _alpha_pieces(spec, pt, y)
    a = spec.alpha
    p_a, p_2a, p_4a = _alpha_kernels(spec, q)
    dz_dzx = _dot(dz, dzx)
    dz_dzxx = _dot(dz, dzxx)
    dzx_sq = dzx[0].sqr() + dzx[1].sqr()
    zxt1 = dzxx[0] * p_a - dzx[0] * dz_dzx * p_2a * a
    zxxt1 = (
        dzxxx1 * p_a
        - dzxx[0] * dz_dzx * p_2a * (a * 2.0)
        - dzx[0] * dzx_sq * p_2a * a
        + dzx[0] * dz_dzx.sqr() * p_4a * (a * (a + 2.0))
        - dzx[0] * dz_dzxx * p_2a * a
    )
    return _project(pt, zxt1, zxxt1)


def _small_alpha(spec, pt, y):
    dz, dzx, dzxx, dzxxx1, q = _alpha_pieces(spec, pt, y)
    a = spec.alpha
    p_a, p_2a, p_4a = _alpha_kernels(spec, q)
    ld = q.log() * 0.5  # log |dz|
    dz_dzx = _dot(dz, dzx)
    dz_dzxx = _dot(dz, dzxx)
    dzx_sq = dzx[0].sqr() + dzx[1].sqr()
    zxt1 = (
        -(dzx[0] * dz_dzx * p_2a)
        - dzxx[0] * ld * p_a
        + dzx[0] * dz_dzx * ld * p_2a * a
    )
    zxxt1 = (
        -(dzxx[0] * dz_dzx * p_2a) * 2.0
        - dzx[0] * dzx_sq * p_2a
        + dzx[0] * dz_dzx.sqr() * p_4a * (a * 2.0 + 2.0)
        - dzx[0] * dz_dzxx * p_2a
        - dzxxx1 * ld * p_a
        + dzxx[0] * dz_dzx * ld * p_2a * (a * 2.0)
        + dzx[0] * dzx_sq * ld * p_2a * a
        - dzx[0] * dz_dzx.sqr() * ld * p_4a * (a * (a + 2.0))
        + dzx[0] * dz_dzxx * ld * p_2a * a
    )
    return _project(pt, zxt1, zxxt1)


_INTEGRANDS = {
    Regime.VORTEX: _vortex,
    Regime.SMALL_ALPHA: _small_alpha,
    Regime.BIG_ALPHA: _big_alpha,
    Regime.VERY_BIG_ALPHA: _big_alpha,  # the big-alpha integrand, for perfbench
}


def make_kt_integrand(spec):
    """Closure evaluating the regime's integrand; generic over Jet4/Interval."""
    pt = _PointData(spec.curve.c_phase)
    fn = _INTEGRANDS[spec.regime]

    def integrand(y):
        return fn(spec, pt, y)

    return integrand


# ---------------------------------------------------------------------------
# singularity-window residual
# ---------------------------------------------------------------------------


def _mag(iv):
    return Interval(iv.mag())


@dataclass
class _ZoneBounds:
    """Hull-based magnitude bounds over one endpoint zone."""

    b: dict  # order 1..5 -> magnitude bound of the bump component (Interval)
    s: dict  # order 1..3 -> magnitude bound of the sine component
    den: Interval  # lower-bound interval for |dz|^2 / y^2

    @classmethod
    def build(cls, curve, zone):
        b = {k: _mag(hull_enclosure(k, zone)) for k in range(1, 6)}
        z2 = z2_derivs(zone, 3, curve.c_phase)
        s = {k: _mag(z2[k]) for k in range(1, 4)}
        mig = z2[1].mig()
        if mig <= 0.0:
            raise ZoneViolation("sine-component speed not sign-definite on the zone")
        den = Interval(Interval(mig).sqr().lo)  # sound lower bound for |dz|^2/y^2
        return cls(b, s, den)

    def pa(self):
        return self.b[1].sqr() + self.s[1].sqr()

    def pb(self):
        return self.b[2] * self.b[1] + self.s[2] * self.s[1]

    def pc(self):
        return self.b[2].sqr() + self.s[2].sqr()

    def pd(self):
        return self.b[3] * self.b[1] + self.s[3] * self.s[1]


def _symmetric(hi):
    hi = abs(hi)
    return Interval(-hi, hi)


def _alpha_coeff(z, a, s_w, c_w, h2, h3, h4):
    """s_w |z_xt| + c_w |z_xxt| of the scaled integrand on the window.

    h2, h3 and h4 bound |dzx_1|, |dzxx_1| and |dzxxx_1| per power of y.
    Also returns the kernel bounds g_2a and g_4a for the small-alpha plain
    terms.
    """
    g_a = z.den.pow(a * -0.5)
    g_2a = g_a / z.den
    g_4a = g_2a / z.den
    pb, pc, pd = z.pb(), z.pc(), z.pd()
    zxt = h3 * g_a + h2 * pb * g_2a * a
    zxxt = (
        h4 * g_a
        + h3 * pb * g_2a * (a * 2.0)
        + h2 * pc * g_2a * a
        + h2 * pb.sqr() * g_4a * (a * (a + 2.0))
        + h2 * pd * g_2a * a
    )
    return s_w * zxt + c_w * zxxt, g_2a, g_4a


def _residual_half(spec, pt, zone):
    """Bound for the window half 0 < |y| <= WINDOW_HALF on which pi - y
    sweeps ``zone``: curves.ZONE_RIGHT for y > 0, ZONE_LEFT for y < 0.

    The big-alpha bound holds for every alpha in [ALPHA_CR, 2).  Every
    derivative of the bump component vanishes at pi, so second-order Taylor
    around pi gives |dzx_1| = |z1'(pi - y)| <= y^2/2 sup|z1'''| over the
    zone, and |dzxx_1| and |dzxxx_1| likewise with z1'''' and z1^(5).  That
    rests on the curve, not on alpha.  With |dz| >= sqrt(den) y, and the
    inner products of dz, dzx and dzxx at most y^2 times their zone bounds,
    every term of the scaled integrand is at most a constant times
    y^{2-alpha}, and int_0^WINDOW_HALF y^{2-alpha} dy =
    WINDOW_HALF^{3-alpha} / (3-alpha) is finite for every alpha < 3.
    """
    a = spec.alpha
    s_w = _mag(pt.s)
    c_w = _mag(pt.c)
    z = _ZoneBounds.build(spec.curve, zone)
    if spec.regime == Regime.VORTEX:
        pa, pb, pc, pd = z.pa(), z.pb(), z.pc(), z.pd()
        den = z.den
        zxt = pa * z.b[2] / den + pb * z.b[1] / den
        zxxt = (
            pa * z.b[3] / den
            + 2.0 * (pb * z.b[2]) / den
            + pc * z.b[1] / den
            + pd * z.b[1] / den
            + 2.0 * (pb.sqr() * z.b[1]) / den.sqr()
        )
        bound = (s_w * zxt + c_w * zxxt) * WINDOW_HALF
        return _symmetric(bound.hi)
    if spec.regime == Regime.SMALL_ALPHA:
        if (z.pa().sqrt() * WINDOW_HALF).hi >= 1.0:
            raise ZoneViolation("log bound needs |dz| < 1 on the window")
        # log-weighted terms: |log |dz|| <= -log(mroot * y) on the window
        c2, g_2a, g_4a = _alpha_coeff(z, a, s_w, c_w, z.b[2], z.b[3], z.b[4])
        # plain terms
        pb, pc, pd = z.pb(), z.pc(), z.pd()
        c1 = s_w * (z.b[2] * pb * g_2a) + c_w * (
            2.0 * (z.b[3] * pb) * g_2a
            + z.b[2] * pc * g_2a
            + z.b[2] * pb.sqr() * g_4a * (a * 2.0 + 2.0)
            + z.b[2] * pd * g_2a
        )
        two_m_a = 2.0 - a
        rp = Interval(WINDOW_HALF).pow(two_m_a)
        plain_int = rp / two_m_a
        mroot = z.den.sqrt()
        log_at_edge = -((mroot * WINDOW_HALF).log())  # positive
        log_int = rp * (log_at_edge / two_m_a + 1.0 / two_m_a.sqr())
        return _symmetric((c1 * plain_int + c2 * log_int).hi)
    # big alpha: |dzx_1|, |dzxx_1| and |dzxxx_1| per power y^2
    coeff, _, _ = _alpha_coeff(z, a, s_w, c_w, z.b[3] * 0.5, z.b[4] * 0.5, z.b[5] * 0.5)
    three_m_a = 3.0 - a
    power_int = Interval(WINDOW_HALF).pow(three_m_a) / three_m_a  # int_0^WINDOW_HALF y^{2-alpha}
    return _symmetric((coeff * power_int).hi)


def singular_residual(spec):
    """Enclosure of the integral over [-WINDOW_HALF, WINDOW_HALF], the window
    that the quadrature leaves out."""
    pt = _PointData(spec.curve.c_phase)
    return _residual_half(spec, pt, ZONE_RIGHT) + _residual_half(spec, pt, ZONE_LEFT)


# ---------------------------------------------------------------------------
# ellipse non-rotation
# ---------------------------------------------------------------------------


def ellipse_rotation_integrand(alpha, r, y):
    """Final positivity display of the non-rotation argument (generic).

    ``alpha`` is an Interval and the axis ratio ``r`` a float in (0, 1).
    """
    half = y.half()
    s, c = half.sin(), half.cos()
    cy = y.cos()
    two_m_a = 2.0 - alpha
    p = alpha * 0.5 + 1.0
    d_minus = (1.0 - cy * r).pow(-p)
    d_plus = (1.0 + cy * r).pow(-p)
    return s.pow(two_m_a) * c.pow(two_m_a) * (c.pow(alpha) - s.pow(alpha)) * (d_minus - d_plus)


@dataclass
class RotationCertificate:
    alpha: Interval
    axis_ratio: float
    outcome: SignOutcome
    interior: Optional[SignResult]
    lower_zone_ok: bool
    upper_zone_ok: bool


def _pow_hi(base_hi, alpha):
    """Upper bound of t^alpha over t in [0, base_hi] (monotone in t >= 0)."""
    if base_hi <= 0.0:
        return ZERO
    return Interval(Interval(base_hi).pow(alpha).hi)


def _lower_zone_nonneg(alpha, r, delta):
    """g >= 0 on [0, delta]: every factor is nonnegative there.

    Uses only interval evaluations plus the monotonicity of t -> t^p on
    t >= 0 (the sine factor's power is bounded through its endpoint).
    """
    zone = Interval(0.0, delta)
    half = zone.half()
    s = half.sin()
    c = half.cos()
    if s.lo < 0.0 or c.lo <= 0.0:
        return False
    # c^alpha - s^alpha >= (min c)^alpha - (max s)^alpha > 0
    c_min_pow = Interval(c.lo).pow(alpha)
    s_max_pow = _pow_hi(s.hi, alpha)
    if not (c_min_pow - s_max_pow).lo > 0.0:
        return False
    cy = zone.cos()
    if cy.lo <= 0.0:
        return False
    p = alpha * 0.5 + 1.0
    d_minus = (1.0 - cy * r).pow(-p)
    d_plus = (1.0 + cy * r).pow(-p)
    return (d_minus - d_plus).lo > 0.0


def _upper_zone_nonneg(alpha, r, delta):
    """g >= 0 on [pi/2 - delta, pi/2].

    On this zone y/2 lies in [0, pi/4] and y in [0, pi/2], so
    cos(y/2) >= sin(y/2) >= 0 and cos(y) >= 0 as exact range facts (this is
    the inspection the original positivity argument closes with); together
    with monotonicity of t -> t^p they make every factor nonnegative.  The
    numeric part checks the zone really sits inside [0, pi/2].
    """
    lo = math.pi / 2 - delta
    return 0.0 < lo and lo < math.pi / 2 and delta > 0.0


def ellipse_rotation_check(alpha, axis_ratio, delta=WINDOW_HALF, min_width=DEFAULT_MIN_WIDTH):
    """Certify positivity of the rotation-difference integral.

    The integrand is certified strictly positive on [delta, pi/2 - delta]
    by bisection and nonnegative on the two end zones factor by factor,
    which makes the integral over [0, pi/2] strictly positive.
    """
    if not isinstance(alpha, Interval):
        alpha = Interval(alpha)
    r = float(axis_ratio)
    if not 0.0 < r < 1.0:
        raise ValueError("axis ratio must lie in (0, 1)")
    q = math.pi / 2
    interior_domain = Interval(delta, q - delta)
    task = SignTask(
        lambda y: ellipse_rotation_integrand(alpha, r, y),
        interior_domain,
        min_width,
        SignOutcome.ALL_POSITIVE,
    )
    interior = validate_sign(task)
    lower_ok = _lower_zone_nonneg(alpha, r, delta)
    upper_ok = _upper_zone_nonneg(alpha, r, delta)
    if interior.outcome == SignOutcome.ALL_POSITIVE and lower_ok and upper_ok:
        outcome = SignOutcome.ALL_POSITIVE
    else:
        outcome = SignOutcome.INDETERMINATE
    return RotationCertificate(alpha, r, outcome, interior, lower_ok, upper_ok)
