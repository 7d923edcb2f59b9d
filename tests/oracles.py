"""Extended-precision floating-point oracles.

Everything here evaluates the underlying mathematics directly in mpmath,
independently of the package's interval/jet code paths: derivatives come
from mpmath's numerical differentiation of the closed forms, integrals from
tanh-sinh quadrature.  Tests freeze values produced by these functions and
assert containment in the rigorous enclosures.
"""

from mpmath import mp, mpf, sin, cos, exp, log, tan, sign, pi, quad, diff, factorial

mp.dps = 30

WINDOW = mpf(1) / 128


def z1(u):
    t = u / pi
    return 2 * exp(1 - 1 / (1 - t * t)) - 1


def z1_deriv(u, k):
    if k == 0:
        return z1(u)
    return diff(z1, u, k)


def z1_deriv_closed(u, k):
    """z1^(k)(u) for |u| < pi and k <= 3, in closed form.

    z1 = 2 e^g - 1 with g(u) = 1 - (pi/2) (1/(pi - u) + 1/(pi + u)), so
    g^(j) = -(pi/2) j! (1/(pi - u)^(j+1) + (-1)^j / (pi + u)^(j+1)), and the
    derivatives of e^g follow by the chain rule.  Near +-pi the derivatives
    are far below 1 (about 1e-83 to 1e-74 at 1/128 from pi), where
    ``z1_deriv``'s finite differences of 2 e^g - 1 lose them under the -1
    unless mp.dps is about 100.
    """
    a, b = pi - u, pi + u
    g = [1 - (pi / 2) * (1 / a + 1 / b)]
    g += [-(pi / 2) * factorial(j) * (1 / a ** (j + 1) + (-1) ** j / b ** (j + 1)) for j in (1, 2, 3)]
    e = 2 * exp(g[0])
    return (
        e - 1,
        e * g[1],
        e * (g[2] + g[1] ** 2),
        e * (g[3] + 3 * g[1] * g[2] + g[1] ** 3),
    )[k]


def reduce_angle(u):
    while u > pi:
        u -= 2 * pi
    while u < -pi:
        u += 2 * pi
    return u


def make_curve(c_phase, bump_deriv=z1_deriv):
    """Return zk(u, k) -> (component1, component2) of the k-th derivative;
    ``bump_deriv(u, k)`` gives the first component inside (-pi, pi)."""

    def zk(u, k):
        u = reduce_angle(u)
        if abs(u) < pi:
            c1 = bump_deriv(u, k)
        else:
            c1 = mpf(-1) if k == 0 else mpf(0)
        s, c = sin(u - c_phase), cos(u - c_phase)
        c2 = (s, c, -s, -c)[k % 4]
        return (c1, c2)

    return zk


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _pieces(zk, y):
    x = pi
    u = x - y
    dz = tuple(zk(x, 0)[i] - zk(u, 0)[i] for i in (0, 1))
    dzx = tuple(zk(x, 1)[i] - zk(u, 1)[i] for i in (0, 1))
    dzxx = tuple(zk(x, 2)[i] - zk(u, 2)[i] for i in (0, 1))
    dzxxx = tuple(zk(x, 3)[i] - zk(u, 3)[i] for i in (0, 1))
    zu1 = zk(u, 1)
    zu2 = zk(u, 2)
    q = _dot(dz, dz)
    return dz, dzx, dzxx, dzxxx, zu1, zu2, q


def _project(zk, zxt, zxxt):
    x = pi
    zxp = zk(x, 1)
    zxxp = zk(x, 2)
    perp_xx = (-zxxp[1], zxxp[0])
    perp_x = (-zxp[1], zxp[0])
    return -_dot(zxt, perp_xx) + _dot(zxxt, perp_x)


def integrand_vortex(zk, y):
    """Pointwise integrand of the curvature-derivative target at alpha = 0."""
    dz, dzx, dzxx, dzxxx, zu1, zu2, q = _pieces(zk, y)
    zxt = tuple(
        -_dot(dz, zu1) / q * dzx[i] + _dot(dz, dzx) / q * zu1[i] for i in (0, 1)
    )
    zxxt = tuple(
        -_dot(dz, zu1) / q * dzxx[i]
        + 2 * _dot(dz, dzx) / q * zu2[i]
        + _dot(dzx, dzx) / q * zu1[i]
        + _dot(dz, dzxx) / q * zu1[i]
        - 2 * _dot(dz, dzx) ** 2 / q**2 * zu1[i]
        for i in (0, 1)
    )
    return _project(zk, zxt, zxxt)


def integrand_alpha(zk, y, a):
    """Pointwise integrand of the scaled target for 0 < alpha < 2."""
    dz, dzx, dzxx, dzxxx, zu1, zu2, q = _pieces(zk, y)
    qa = q ** (-a / 2)
    q2a = q ** (-(2 + a) / 2)
    q4a = q ** (-(4 + a) / 2)
    zxt = tuple(dzxx[i] * qa - a * dzx[i] * _dot(dzx, dz) * q2a for i in (0, 1))
    zxxt = tuple(
        dzxxx[i] * qa
        - 2 * a * dzxx[i] * _dot(dzx, dz) * q2a
        - a * dzx[i] * _dot(dzx, dzx) * q2a
        + a * (a + 2) * dzx[i] * _dot(dzx, dz) ** 2 * q4a
        - a * dzx[i] * _dot(dzxx, dz) * q2a
        for i in (0, 1)
    )
    return _project(zk, zxt, zxxt)


def integrand_dalpha(zk, y, a):
    """Pointwise integrand of the scaled alpha-derivative target."""
    dz, dzx, dzxx, dzxxx, zu1, zu2, q = _pieces(zk, y)
    qa = q ** (-a / 2)
    q2a = q ** (-(2 + a) / 2)
    q4a = q ** (-(4 + a) / 2)
    ld = log(q) / 2
    zxt = tuple(
        -dzx[i] * _dot(dzx, dz) * q2a
        - dzxx[i] * ld * qa
        + a * dzx[i] * _dot(dzx, dz) * ld * q2a
        for i in (0, 1)
    )
    zxxt = tuple(
        -2 * dzxx[i] * _dot(dzx, dz) * q2a
        - dzx[i] * _dot(dzx, dzx) * q2a
        + (2 * a + 2) * dzx[i] * _dot(dzx, dz) ** 2 * q4a
        - dzx[i] * _dot(dzxx, dz) * q2a
        - dzxxx[i] * ld * qa
        + 2 * a * dzxx[i] * _dot(dzx, dz) * ld * q2a
        + a * dzx[i] * _dot(dzx, dzx) * ld * q2a
        - a * (a + 2) * dzx[i] * _dot(dzx, dz) ** 2 * ld * q4a
        + a * dzx[i] * _dot(dzxx, dz) * ld * q2a
        for i in (0, 1)
    )
    return _project(zk, zxt, zxxt)


def integrand_tilde_full(zk, y, a):
    """Tilde integrand assembled term by term (for the consistency tests)."""
    dz, dzx, dzxx, dzxxx, zu1, zu2, q = _pieces(zk, y)
    x = pi
    qa = q ** (-a / 2)
    q2a = q ** (-(2 + a) / 2)
    q4a = q ** (-(4 + a) / 2)
    s_ct = sign(y) / abs(2 * tan(y / 2)) ** (a - 1)
    zxp = zk(x, 1)
    zxxp = zk(x, 2)
    zxxxp = zk(x, 3)
    zxxxxp = zk(x, 4)
    nq = _dot(zxp, zxp)
    na = nq ** (-a / 2)
    n2a = nq ** (-(2 + a) / 2)
    n4a = nq ** (-(4 + a) / 2)
    zxt = tuple(
        dzxx[i] * qa
        - zxxxp[i] * na * s_ct
        - a * dzx[i] * _dot(dzx, dz) * q2a
        + a * zxxp[i] * n2a * _dot(zxxp, zxp) * s_ct
        for i in (0, 1)
    )
    zxxt = tuple(
        dzxxx[i] * qa
        - zxxxxp[i] * na * s_ct
        - 2 * a * dzxx[i] * _dot(dzx, dz) * q2a
        + 2 * a * zxxxp[i] * n2a * _dot(zxxp, zxp) * s_ct
        - a * dzx[i] * _dot(dzx, dzx) * q2a
        + a * zxxp[i] * n2a * _dot(zxxp, zxxp) * s_ct
        + a * (a + 2) * dzx[i] * _dot(dzx, dz) ** 2 * q4a
        - a * (a + 2) * zxxp[i] * n4a * _dot(zxxp, zxp) ** 2 * s_ct
        - a * dzx[i] * _dot(dzxx, dz) * q2a
        + a * zxxp[i] * n2a * _dot(zxxxp, zxp) * s_ct
        for i in (0, 1)
    )
    return _project(zk, zxt, zxxt)


def full_period_integral(c_phase, a, target="auto", tol=None):
    """Oracle value of the full-period scaled integral.

    target: "vortex", "alpha", "dalpha", "tilde" or "auto" (vortex when
    a == 0, else alpha).
    """
    zk = make_curve(c_phase)
    if target == "auto":
        target = "vortex" if a == 0 else "alpha"
    fn = {
        "vortex": lambda y: integrand_vortex(zk, y),
        "alpha": lambda y: integrand_alpha(zk, y, a),
        "dalpha": lambda y: integrand_dalpha(zk, y, a),
        "tilde": lambda y: integrand_tilde_full(zk, y, a),
    }[target]
    return quad(fn, [-pi, -WINDOW, 0, WINDOW, pi])


def ellipse_rotation_display(y, a, r):
    """Final positivity display of the non-rotation proof."""
    s = sin(y / 2)
    c = cos(y / 2)
    return (
        s ** (2 - a)
        * c ** (2 - a)
        * (c**a - s**a)
        * (1 / (1 - r * cos(y)) ** (a / 2 + 1) - 1 / (1 + r * cos(y)) ** (a / 2 + 1))
    )
