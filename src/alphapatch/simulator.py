"""Floating-point contour dynamics for patch boundaries.

The boundary is a closed curve sampled at N uniform parameter values.
Spatial derivatives are spectral (FFT multiplication by (ik)^order with an
optional exponential filter), the boundary integral is a trapezoidal sum
over the periodic grid with the singular self-term omitted (its symmetric
limit vanishes for alpha < 2), and time stepping is an embedded
Runge-Kutta-Fehlberg 4(5) pair with the usual step-size controller.

A tangential velocity component is added so that d|z_x|/dt is spatially
constant: with normal speed U and tangent angle theta, V solves
V_x = U theta_x - mean(U theta_x), which keeps an initially uniform
parametrization uniform (the patch shape only depends on the normal part).

The O(N^2) pair work (the kernel sum and the arc-chord minimum) runs ROWS
rows at a time and, where it can, only on the columns from the rows' first
on: the upper triangle of the pair matrix, which is symmetric bit for bit.
The arc-chord minimum always takes the triangle.  Up to N = 1024 the kernel
sum does too: it keeps the tiles right of each block's diagonal tile (the
N^2 / 4 entries it keeps at most at once, capped by KEPT_MAX at 2 MiB), and
every later block fills the rest of its rows from their transposes, so each
row is reduced whole, as soon as it is filled.  Larger grids evaluate the
kernel on whole rows, so the pair work there needs only two (ROWS, N)
blocks.  Every call at one N takes one allocation of the same size: the two
blocks and, up to N = 1024, room for the kept tiles (1 MiB in all at
N = 512, 3 MiB at N = 1024, 2 MiB at N = 2048); no (N, N) array is made.
All derivatives a velocity call needs come from one rfft and one batched
irfft with cached multipliers.  Up to N = 512 the results are bit-identical
to full-matrix evaluation with one transform pair per derivative; for larger
N, OpenBLAS may round a (ROWS, N) @ (N, 2) block product apart from the full
product by a few 1e-15 of its largest entry.

Runs are single-threaded and deterministic; independent runs can go in
parallel freely.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimConfig",
    "SimState",
    "ArcChordCollapse",
    "StepSizeUnderflow",
    "velocity",
    "evolve",
    "diagnostics",
    "Diagnostics",
    "circle_state",
    "ellipse_state",
    "bump_state",
    "alpha_patch_constant",
]

TWO_PI = 2.0 * math.pi
# the step controller halts with StepSizeUnderflow below this step
MIN_STEP = 1e-12
# noise-floor Fourier filter (Krasny-style): modes whose relative amplitude
# stays below this are zeroed after each accepted step, which keeps the
# grid-scale instability of the singular kernel from feeding on roundoff
NOISE_FLOOR = 1e-13
# machine-epsilon exponential filter exp(-strength (k / (N/2))^order) on
# every derivative, as (strength, order): damps the Nyquist mode to ~2e-16
# while leaving resolved modes essentially untouched
FILTER = (36.0, 36)
# rows per block of the O(N^2) pair work; 64 beats 32 and 128 at N = 512,
# and at 128 the kernel sum's buffers and kept tiles would take 1.5 MiB
ROWS = 64
# most kernel entries the kernel sum keeps for later rows, 2 MiB: the N^2 / 4
# of the upper triangle up to N = 1024; past it they would grow with N^2, so
# larger grids take whole rows in a 2 ROWS N workspace
KEPT_MAX = 1 << 18
# largest grid size N; ellipse_state's 64 N-point grid then takes 32 MiB
MAX_N = 65536


class ArcChordCollapse(RuntimeError):
    def __init__(self, time, ratio):
        super().__init__(f"arc-chord ratio collapsed to {ratio:.3e} at t = {time:.6f}")
        self.time = time
        self.ratio = ratio


class StepSizeUnderflow(RuntimeError):
    def __init__(self, time, step):
        super().__init__(f"step size underflow ({step:.3e}) at t = {time:.6f}")
        self.time = time
        self.step = step


@dataclass(frozen=True)
class SimConfig:
    alpha: float
    jump: float = -TWO_PI  # theta_2 - theta_1; negative jump gives c_alpha > 0
    rk_abs_tol: float = 1e-8
    rk_rel_tol: float = 1e-8
    t_final: float = 10.0
    snapshot_interval: float = 1.0
    arc_chord_factor: float = 1e-3

    def __post_init__(self):
        if not 0.0 <= self.alpha < 2.0:
            raise ValueError("alpha must lie in [0, 2)")
        if not math.isfinite(self.jump):
            raise ValueError(f"jump {self.jump} must be finite")
        if not (self.rk_abs_tol > 0 and self.rk_rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if not (0 < self.t_final < math.inf and self.snapshot_interval > 0):
            raise ValueError("t_final must be finite and positive, and snapshot_interval positive")
        if not (0.0 < self.arc_chord_factor < 1.0):
            raise ValueError("arc_chord_factor must lie in (0, 1)")


@dataclass
class SimState:
    points: np.ndarray  # (N, 2)
    time: float = 0.0

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must have shape (N, 2)")
        _require_grid_size(self.points.shape[0])

    @property
    def n(self):
        return self.points.shape[0]

    def copy(self):
        return SimState(self.points.copy(), self.time)


def _require_grid_size(n):
    """Reject a grid size N before any array of that size is built."""
    if not (64 <= n <= MAX_N and n & (n - 1) == 0):
        raise ValueError(f"N {n} must be a power of two in [64, {MAX_N}]")


def alpha_patch_constant(alpha, jump):
    """Leading constant of the contour equation.

    For alpha = 0 the vortex-patch equation uses jump / (2 pi); otherwise
    -jump * Gamma(alpha/2) / (pi^2 2^(2-alpha) Gamma((2-alpha)/2)).
    """
    if alpha == 0.0:
        return jump / TWO_PI
    return -jump * math.gamma(alpha / 2.0) / (
        math.pi**2 * 2.0 ** (2.0 - alpha) * math.gamma((2.0 - alpha) / 2.0)
    )


@functools.lru_cache(maxsize=8)
def _multipliers(n, orders, filter_spec):
    """Spectral multipliers (ik)^order, one row per order; read-only.

    Odd orders zero the Nyquist mode, which has no well-defined odd
    derivative.  filter_spec is None or (strength, order) of the exponential
    filter exp(-strength (k / (n/2))^order).
    """
    k = np.arange(n // 2 + 1, dtype=float)
    mults = np.empty((len(orders), k.size), dtype=complex)
    for row, order in enumerate(orders):
        mult = (1j * k) ** order
        if order % 2 == 1:
            mult[-1] = 0.0
        if filter_spec is not None:
            strength, filter_order = filter_spec
            mult = mult * np.exp(-strength * (k / (n / 2.0)) ** filter_order)
        mults[row] = mult
    mults.flags.writeable = False
    return mults


def _derivatives(values, orders, filter_spec):
    """Derivatives of every order in orders from one rfft and one batched
    irfft: shape (len(orders),) + values.shape."""
    n = values.shape[0]
    if n & (n - 1):
        raise ValueError("grid size must be a power of two")
    mults = _multipliers(n, orders, filter_spec)
    spec = np.fft.rfft(values, axis=0)
    spec = spec * mults.reshape(mults.shape + (1,) * (values.ndim - 1))
    return np.fft.irfft(spec, n=n, axis=1)


def _pair_blocks(z, work, upper=True):
    """|z_i - z_j|^2 for ROWS rows i at a time, with no (N, N) array: the
    columns j from the block's first row on if upper, else all N.

    work is a flat buffer of at least 2 h N entries, h = min(ROWS, N).
    Yields (rows, dist2, diag): the slice of i, a C-contiguous view of
    work[:h N] with one row per i that the next block overwrites, and a
    view of its i = j entries, which are set to 1.  work[h N : 2 h N] is
    free again once a block is yielded.  Each entry has the bits of the
    full-matrix computation, and since x_i - x_j = -(x_j - x_i) exactly,
    the entries upper leaves out are those of earlier blocks, transposed,
    bit for bit.
    """
    n = z.shape[0]
    x, y = z[:, 0].copy(), z[:, 1].copy()
    height = min(ROWS, n)
    for start in range(0, n, height):
        rows = slice(start, min(start + height, n))
        first = start if upper else 0
        size = (rows.stop - start) * (n - first)
        dist2 = work[:size].reshape(-1, n - first)
        diff = work[height * n : height * n + size].reshape(dist2.shape)
        # x_i - x_j as a column copy, then a subtraction along contiguous
        # rows: numpy runs a subtraction from a broadcast column about 1.4x
        # slower, and any of these on a view with gaps between its rows
        # about 3x slower
        np.copyto(dist2, x[rows, None])
        dist2 -= x[first:]
        dist2 *= dist2
        np.copyto(diff, y[rows, None])
        diff -= y[first:]
        diff *= diff
        dist2 += diff
        # entry (r, start - first + r) of a C-contiguous block
        diag = work[start - first : size : n - first + 1]
        diag[...] = 1.0
        yield rows, dist2, diag


def _workspace(n):
    """(work, tiles): one buffer for every pair call at grid size N.

    work starts with _pair_blocks' 2 h N entries, h = min(ROWS, N).  If the
    kernel sum's kept tiles, at most N^2 / 4 entries, fit in KEPT_MAX,
    tiles views the rest as a (half, blocks - half) grid of (h, h) tiles;
    otherwise there is no rest and tiles is None.  Both pair calls take the
    same size, so once freed it stays on glibc's heap (its mmap threshold
    rises to the freed size) and the next call reuses it instead of
    faulting in fresh pages; separate buffers of a few hundred KiB each
    were returned to the system and faulted in on every call.
    """
    height = min(ROWS, n)
    blocks = -(-n // height)
    half = (blocks + 1) // 2
    kept = half * (blocks - half) * height * height
    if kept > KEPT_MAX:
        return np.empty(2 * height * n), None
    work = np.empty(2 * height * n + kept)
    return work, work[2 * height * n :].reshape(half, blocks - half, height, height)


@functools.lru_cache(maxsize=8)
def _even_defect(n, beta):
    """W(beta) - h * grid sum of |2 sin(y/2)|^beta (singular node excluded).

    W(beta) = 2 pi Gamma(1+beta) / Gamma(1+beta/2)^2 is the exact period
    integral.  The difference is exactly the trapezoidal defect of the
    |y|^beta part of a kernel, so subtracting (local coefficient) * defect
    per node compensates that singular order completely.  Odd orders need no
    compensation: both their integrals and their symmetric grid sums vanish.
    """
    h = TWO_PI / n
    w = TWO_PI * math.gamma(1.0 + beta) / math.gamma(1.0 + beta / 2.0) ** 2
    k = np.arange(1, n)
    s = float(np.sum((2.0 * np.sin(k * h / 2.0)) ** beta))
    return w - h * s


@functools.lru_cache(maxsize=4)
def _log_defect(n):
    """0 - h * sum of log(2 sin(y/2)) over the grid (= -h log N exactly)."""
    h = TWO_PI / n
    k = np.arange(1, n)
    return -h * float(np.sum(np.log(2.0 * np.sin(k * h / 2.0))))


_ZETA3 = 1.2020569031595943  # zeta(3); zeta'(-2) = -zeta(3)/(4 pi^2)


def _tile_slot(b, c, half):
    """Slot of the tile that block b keeps for block c > b, in a
    (half, blocks - half) grid.

    The tile lives from block b to block c.  One with b < half <= c takes
    slot (b, c - half).  While block k < half is made, the rows past k are
    free, so one with c < half takes (c, b); from block k = half on, the
    columns up to k - half are free, so one with b >= half takes
    (c - half, b - half).
    """
    if b < half <= c:
        return b, c - half
    if c < half:
        return c, b
    return c - half, b - half


def _whole_rows(kern, rows, work, tiles):
    """The full (rows, N) kernel rows of an upper block kern.

    Copies kern into the right of a row buffer in work's second half, fills
    the columns before rows.start from the transposes of the tiles earlier
    blocks kept, and keeps kern's own tiles right of its diagonal tile.
    """
    half, later, height = tiles.shape[:3]
    start = rows.start
    n, k = start + kern.shape[1], start // height
    row = work[height * n : (height + len(kern)) * n].reshape(-1, n)
    row[:, start:] = kern
    for b in range(k):
        tile = tiles[_tile_slot(b, k, half)]
        row[:, b * height : (b + 1) * height] = tile[:, : len(row)].T
    for c in range(k + 1, half + later):
        cols = kern[:, (c - k) * height : (c - k + 1) * height]
        tiles[_tile_slot(k, c, half)][: len(row), : cols.shape[1]] = cols
    return row


def _kernel_sum(z, zx, alpha):
    """The O(N^2) trapezoidal sum over j != i of the boundary integral.

    For alpha = 0 it is sum_j log|z_i - z_j| z_x(j); otherwise
    sum_j K_ij (z_x(i) - z_x(j)) with K_ij = |z_i - z_j|^{-alpha}.  While
    the kept tiles fit in KEPT_MAX (N <= 1024), the kernel is evaluated on
    each block's columns j >= its first row only and _whole_rows rebuilds
    the full rows; larger grids evaluate it on whole rows.  Either way every
    row is reduced whole, as soon as it is filled, with the full-matrix bits.
    """
    work, tiles = _workspace(z.shape[0])
    out = np.empty_like(zx)
    for rows, kern, diag in _pair_blocks(z, work, tiles is not None):
        if alpha == 0.0:
            np.log(kern, out=kern)
            kern *= 0.5
        else:
            np.power(kern, -alpha / 2.0, out=kern)
        diag[...] = 0.0
        if tiles is not None:
            kern = _whole_rows(kern, rows, work, tiles)
        if alpha == 0.0:
            out[rows] = kern @ zx
        else:
            # sum_j K_ij (z_x(i) - z_x(j)) = (sum_j K_ij) z_x(i) - sum_j K_ij z_x(j):
            # a row sum and a matrix product, with no (N, N, 2) difference array
            out[rows] = kern.sum(1)[:, None] * zx[rows] - kern @ zx
    return out


def velocity(state, cfg):
    """Velocity field on the grid: boundary integral plus tangential term.

    The trapezoidal sum omits the singular node; the leading local defects
    of the remaining singular powers are compensated through closed-form
    period integrals (see _even_defect), which restores better-than-h^3
    convergence without touching the O(N^2) kernel sum.
    """
    z = state.points
    n = state.n
    h = TWO_PI / n
    orders = (1, 2, 3) if cfg.alpha == 0.0 else (1, 2, 3, 4, 5)
    derivs = _derivatives(z, orders, FILTER)
    zx, zxx, zxxx = derivs[:3]
    const = alpha_patch_constant(cfg.alpha, cfg.jump)
    speed2_arr = np.einsum("ik,ik->i", zx, zx)
    if cfg.alpha == 0.0:
        # vortex patch: log-kernel acting on z_x(x-y).  The constant local
        # term log|2 sin(y/2)| z_x(x) has integral zero but grid sum
        # h log N; the next per-mode defect is zeta'(-2) m^2 h^3, which
        # turns into a z_xxx correction
        raw = const * h * _kernel_sum(z, zx, 0.0)
        raw = raw + const * _log_defect(n) * zx
        zeta_p2 = -_ZETA3 / (4.0 * math.pi**2)
        raw = raw + const * zeta_p2 * h**3 * zxxx
    else:
        raw = -const * h * _kernel_sum(z, zx, cfg.alpha)
        # local expansion (z_x(x)-z_x(x-y))/|z(x)-z(x-y)|^alpha =
        # sgn(y)|y|^{1-alpha} (G0 + G1 y + G2 y^2 + G3 y^3 + ...); odd
        # singular orders self-cancel on the symmetric grid, the even ones
        # (G1, G3) are compensated through closed-form period integrals
        zxxxx, zxxxxx = derivs[3:]
        a0 = speed2_arr
        u1 = np.einsum("ik,ik->i", zx, zxx) / a0
        u2 = (
            0.25 * np.einsum("ik,ik->i", zxx, zxx)
            + np.einsum("ik,ik->i", zx, zxxx) / 3.0
        ) / a0
        u3 = (
            np.einsum("ik,ik->i", zxx, zxxx) / 6.0
            + np.einsum("ik,ik->i", zx, zxxxx) / 12.0
        ) / a0
        p = -cfg.alpha / 2.0
        c1 = p * -u1
        c2 = p * u2 + 0.5 * p * (p - 1.0) * u1**2
        c3 = (
            -p * u3
            - p * (p - 1.0) * u1 * u2
            - p * (p - 1.0) * (p - 2.0) / 6.0 * u1**3
        )
        amp = a0 ** (p)  # |z_x|^{-alpha}
        g1 = (-0.5 * zxxx + c1[:, None] * zxx) * amp[:, None]
        g3 = (
            -zxxxxx / 24.0
            + c1[:, None] * zxxxx / 6.0
            - 0.5 * c2[:, None] * zxxx
            + c3[:, None] * zxx
        ) * amp[:, None]
        # using |2 sin(y/2)|^{2-alpha} instead of |y|^{2-alpha} shifts the
        # fourth-order coefficient by (2-alpha)/24 * G1
        g3 = g3 + (2.0 - cfg.alpha) / 24.0 * g1
        raw = raw - const * _even_defect(n, 2.0 - cfg.alpha) * g1
        raw = raw - const * _even_defect(n, 4.0 - cfg.alpha) * g3
    # replace the tangential part: V_x = U theta_x - mean(U theta_x), with
    # theta_x from the cross product (no angle unwrapping needed)
    speed2 = speed2_arr
    speed = np.sqrt(speed2)
    tangent = zx / speed[:, None]
    normal = np.stack([-tangent[:, 1], tangent[:, 0]], axis=1)
    u_n = np.einsum("ik,ik->i", raw, normal)
    theta_x = (zx[:, 0] * zxx[:, 1] - zx[:, 1] * zxx[:, 0]) / speed2
    source = u_n * theta_x
    source = source - source.mean()
    v_t = _periodic_antiderivative(source)
    return u_n[:, None] * normal + v_t[:, None] * tangent


def _noise_floor_filter(points):
    """Zero Fourier modes below NOISE_FLOOR times the dominant amplitude."""
    spec = np.fft.rfft(points, axis=0)
    mag = np.abs(spec)
    cutoff = NOISE_FLOOR * mag.max()
    spec[mag < cutoff] = 0.0
    return np.fft.irfft(spec, n=points.shape[0], axis=0)


def _periodic_antiderivative(values):
    """Mean-zero antiderivative of a mean-zero periodic function."""
    n = values.shape[0]
    spec = np.fft.rfft(values)
    k = np.arange(spec.shape[0], dtype=float)
    k[0] = 1.0
    out = spec / (1j * k)
    out[0] = 0.0
    out[-1] = 0.0  # the Nyquist mode: N is a power of two
    return np.fft.irfft(out, n=n)


@functools.lru_cache(maxsize=4)
def _chord_matrix(n):
    """|2 sin((x_i - x_j)/2)| on the grid, 1 on the diagonal; read-only.

    The matrix depends on |i - j| only, so it is an (N, N) view of 2N - 1
    values: row i is the window of N values that starts N - 1 - i values in.
    """
    lag = np.abs(np.arange(1 - n, n)) * (TWO_PI / n)
    chord = 2.0 * np.abs(np.sin(lag / 2.0))
    chord[n - 1] = 1.0
    return np.lib.stride_tricks.sliding_window_view(chord, n)[::-1]


def arc_chord_min(state):
    """min over i != j of |z_i - z_j| / |2 sin((x_i - x_j)/2)|.

    Both factors are symmetric bit for bit, so the minimum over the upper
    triangle is the minimum over all pairs, and it keeps a NaN of either
    triangle.
    """
    chord = _chord_matrix(state.n)
    best = np.inf
    for rows, ratio, diag in _pair_blocks(state.points, _workspace(state.n)[0]):
        np.sqrt(ratio, out=ratio)
        ratio /= chord[rows, rows.start :]
        diag[...] = np.inf
        best = np.minimum(best, ratio.min())  # keeps a NaN, as one full min would
    return float(best)


@dataclass
class Diagnostics:
    time: float
    min_curvature: float
    area: float
    arc_chord_min: float
    speed_variation: float


def diagnostics(state, arc_chord=None):
    """Curvature minimum, enclosed area, arc-chord minimum, speed variation.

    arc_chord is the state's arc_chord_min, if the caller has it already.
    """
    z = state.points
    zx, zxx = _derivatives(z, (1, 2), None)
    speed2 = np.einsum("ik,ik->i", zx, zx)
    kappa = (-zxx[:, 0] * zx[:, 1] + zxx[:, 1] * zx[:, 0]) / speed2**1.5
    h = TWO_PI / z.shape[0]
    area = 0.5 * h * float(np.sum(z[:, 0] * zx[:, 1] - z[:, 1] * zx[:, 0]))
    speed = np.sqrt(speed2)
    variation = float((speed.max() - speed.min()) / speed.mean())
    return Diagnostics(
        time=state.time,
        min_curvature=float(kappa.min()),
        area=abs(area),
        arc_chord_min=arc_chord_min(state) if arc_chord is None else arc_chord,
        speed_variation=variation,
    )


# Runge-Kutta-Fehlberg 4(5) tableau; the nodes c are left out, because the
# velocity does not depend on t
_RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)


def _rkf45_step(z, dt, rhs):
    ks = []
    for stage in range(6):
        acc = z
        if stage:
            acc = z + dt * sum(a * k for a, k in zip(_RKF_A[stage], ks))
        ks.append(rhs(acc))
    # stages of weight exactly 0 add nothing
    z4 = z + dt * sum(b * k for b, k in zip(_RKF_B4, ks) if b)
    z5 = z + dt * sum(b * k for b, k in zip(_RKF_B5, ks) if b)
    return z4, z5


def evolve(state, cfg, on_snapshot=None):
    """Advance to cfg.t_final, returning snapshots every snapshot_interval.

    The 4th-order solution is propagated; the 4/5 difference drives the
    step controller.  Halts with :class:`ArcChordCollapse` when the
    arc-chord ratio drops below arc_chord_factor times its initial value,
    or :class:`StepSizeUnderflow` when the controller stalls.  Every
    snapshot, the last one at t_final included, is also passed to
    ``on_snapshot(snapshot, ratio)`` with its arc-chord minimum when it is
    taken, so a caller keeps those taken before a halt.
    """
    state = state.copy()
    state.points = _noise_floor_filter(state.points)
    ratio = arc_chord_min(state)
    threshold = cfg.arc_chord_factor * ratio
    snapshots = []

    def emit(snap, ratio):
        snapshots.append(snap)
        if on_snapshot is not None:
            on_snapshot(snap, ratio)

    emit(state.copy(), ratio)

    def rhs(points):
        return velocity(SimState(points), cfg)

    next_snap = cfg.snapshot_interval
    dt = min(0.1, cfg.snapshot_interval, cfg.t_final)
    t = state.time
    z = state.points
    while t < cfg.t_final - 1e-14:
        dt = min(dt, cfg.t_final - t, next_snap - t if next_snap > t else dt)
        z4, z5 = _rkf45_step(z, dt, rhs)
        scale = cfg.rk_abs_tol + cfg.rk_rel_tol * np.abs(z4)
        err = float(np.max(np.abs(z5 - z4) / scale))
        if err <= 1.0:
            t += dt
            z = _noise_floor_filter(z4)
            ratio = arc_chord_min(SimState(z, t))
            if ratio < threshold:
                raise ArcChordCollapse(t, ratio)
            if next_snap - 1e-12 <= t:
                emit(SimState(z.copy(), t), ratio)
                next_snap += cfg.snapshot_interval
        factor = 0.9 * (1.0 / max(err, 1e-12)) ** 0.2
        dt *= min(5.0, max(0.2, factor))
        if dt < MIN_STEP:
            raise StepSizeUnderflow(t, dt)
    if snapshots[-1].time < t - 1e-12:
        emit(SimState(z.copy(), t), ratio)
    return snapshots


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------


def _require_radius(name, value):
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} {value} must be a finite value > 0")


def circle_state(radius, n):
    _require_radius("radius", radius)
    return ellipse_state(radius, radius, n)


def ellipse_state(r1, r2, n):
    """Ellipse (r1 cos, r2 sin), resampled to uniform arclength.

    Uniform arclength keeps |z_x| spatially constant, which the tangential
    term then maintains for all time.
    """
    _require_radius("r1", r1)
    _require_radius("r2", r2)
    _require_grid_size(n)
    if r1 == r2:
        grid = np.arange(n) * (TWO_PI / n)
        pts = np.stack([r1 * np.cos(grid), r2 * np.sin(grid)], axis=1)
        return SimState(pts)
    # radii near the double range overflow the arclength; the points are
    # checked below, so numpy need not warn on the way
    with np.errstate(over="ignore", invalid="ignore"):
        m = 64 * n
        phi = np.arange(m + 1) * (TWO_PI / m)
        sp = np.sqrt((r1 * np.sin(phi)) ** 2 + (r2 * np.cos(phi)) ** 2)
        s = np.concatenate([[0.0], np.cumsum((sp[1:] + sp[:-1]) * 0.5 * (TWO_PI / m))])
        total = s[-1]
        targets = np.arange(n) * (total / n)
        phi_t = np.interp(targets, s, phi)
        # one Newton step against the exact speed polishes the interpolation
        sp_t = np.sqrt((r1 * np.sin(phi_t)) ** 2 + (r2 * np.cos(phi_t)) ** 2)
        s_t = np.interp(phi_t, phi, s)
        phi_t = phi_t - (s_t - targets) / sp_t
        pts = np.stack([r1 * np.cos(phi_t), r2 * np.sin(phi_t)], axis=1)
    if not np.isfinite(pts).all():
        raise ValueError(f"ellipse r1={r1}, r2={r2} has an arclength that overflows")
    return SimState(pts)


def bump_state(c_phase, n):
    """The proof curve sampled on the uniform parameter grid."""
    if not math.isfinite(c_phase):
        raise ValueError(f"c_phase {c_phase} must be finite")
    _require_grid_size(n)
    grid = np.arange(n) * (TWO_PI / n) - math.pi
    with np.errstate(divide="ignore", over="ignore"):
        t2 = (grid / math.pi) ** 2
        expo = np.where(t2 < 1.0, 1.0 - 1.0 / np.maximum(1e-300, 1.0 - t2), -np.inf)
    z1 = 2.0 * np.exp(expo) - 1.0
    z2 = np.sin(grid - c_phase)
    return SimState(np.stack([z1, z2], axis=1))
