import math

import numpy as np
import pytest

from alphapatch import simulator
from alphapatch.simulator import (
    SimConfig,
    SimState,
    ArcChordCollapse,
    StepSizeUnderflow,
    spectral_derivative,
    velocity,
    evolve,
    diagnostics,
    circle_state,
    ellipse_state,
    bump_state,
    alpha_patch_constant,
    arc_chord_min,
)

GRID = np.arange(512) * (2 * math.pi / 512)


def _normal_component(state, cfg):
    v = velocity(state, cfg)
    zx = spectral_derivative(state.points, 1)
    speed = np.sqrt((zx**2).sum(1))
    normal = np.stack([-zx[:, 1], zx[:, 0]], 1) / speed[:, None]
    return (v * normal).sum(1)


def test_spectral_derivative_sin():
    vals = np.sin(GRID)
    d = spectral_derivative(vals, 1)
    assert np.abs(d - np.cos(GRID)).max() < 1e-12


def test_spectral_derivative_constant():
    vals = np.full(512, 2.5)
    for order in (1, 2, 3):
        assert np.abs(spectral_derivative(vals, order)).max() == 0.0


def test_spectral_derivative_filtered_single_mode():
    vals = np.sin(GRID)
    d = spectral_derivative(vals, 1, filtered=True, filter_strength=10.0, filter_order=8)
    factor = math.exp(-10.0 * (1.0 / 256.0) ** 8)
    assert np.abs(d - factor * np.cos(GRID)).max() < 1e-12


def test_alpha_patch_constant_values():
    assert alpha_patch_constant(0.0, -2 * math.pi) == -1.0
    # alpha = 1: -jump Gamma(1/2) / (pi^2 * 2 * Gamma(1/2)) = -jump / (2 pi^2)
    assert abs(alpha_patch_constant(1.0, -2 * math.pi) - 1 / math.pi) < 1e-15


def test_circle_steady_all_alphas():
    for alpha in (0.0, 0.5, 1.0, 1.5):
        st = circle_state(1.0, 512)
        vn = _normal_component(st, SimConfig(alpha=alpha))
        assert np.abs(vn).max() <= 1e-8, alpha


def test_velocity_determinism():
    st = ellipse_state(1.0, 3.0, 256)
    cfg = SimConfig(alpha=1.0)
    v1 = velocity(st, cfg)
    v2 = velocity(SimState(st.points.copy()), cfg)
    assert np.array_equal(v1, v2)


def test_ellipse_not_rigid_rotation():
    """Least-squares fit of a rigid rotation leaves a residual far above the
    circle's; quantifies the non-rotation statement numerically."""

    def rotation_residual(state, cfg):
        v = velocity(state, cfg)
        z = state.points
        # rigid rotation field: Omega * (-z2, z1)
        rot = np.stack([-z[:, 1], z[:, 0]], 1)
        zx = spectral_derivative(z, 1)
        speed = np.sqrt((zx**2).sum(1))
        normal = np.stack([-zx[:, 1], zx[:, 0]], 1) / speed[:, None]
        vn = (v * normal).sum(1)
        rn = (rot * normal).sum(1)
        omega = float(np.dot(vn, rn) / np.dot(rn, rn))
        return np.abs(vn - omega * rn).max()

    cfg = SimConfig(alpha=1.0)
    res_ellipse = rotation_residual(ellipse_state(1.0, 3.0, 512), cfg)
    res_circle = rotation_residual(circle_state(1.0, 512), cfg)
    assert res_ellipse > 10 * max(res_circle, 1e-12)
    assert res_ellipse > 1e-3


def test_ellipse_state_diagnostics():
    st = ellipse_state(1.0, 3.0, 512)
    d = diagnostics(st)
    assert abs(d.area - 3 * math.pi) < 1e-8
    assert d.speed_variation <= 1e-5
    assert abs(d.min_curvature - 1.0 / 9.0) < 1e-6


def test_circle_diagnostics():
    d = diagnostics(circle_state(1.0, 512))
    assert abs(d.min_curvature - 1.0) < 1e-10
    assert abs(d.area - math.pi) < 1e-12
    assert d.speed_variation <= 1e-10
    assert abs(d.arc_chord_min - 1.0) < 1e-12


def test_bump_state_curvature():
    st = bump_state(0.15, 512)
    z = st.points
    zx = spectral_derivative(z, 1)
    zxx = spectral_derivative(z, 2)
    speed2 = (zx**2).sum(1)
    kappa = (-zxx[:, 0] * zx[:, 1] + zxx[:, 1] * zx[:, 0]) / speed2**1.5
    assert kappa.min() >= -1e-3
    # the minimum sits near x = pi, i.e. grid index 0 (grid starts at -pi)
    idx = int(np.argmin(kappa))
    assert min(idx, 512 - idx) <= 8


def test_evolve_circle_short():
    st = circle_state(1.0, 512)
    snaps = evolve(st, SimConfig(alpha=1.0, t_final=0.25, snapshot_interval=0.25))
    assert len(snaps) >= 2
    radii = np.sqrt((snaps[-1].points**2).sum(1))
    assert np.abs(radii - 1.0).max() <= 1e-7


def test_evolve_snapshot_times():
    st = ellipse_state(1.0, 2.0, 128)
    snaps = evolve(st, SimConfig(alpha=0.5, t_final=0.3, snapshot_interval=0.1))
    times = [s.time for s in snaps]
    assert times[0] == 0.0
    assert abs(times[-1] - 0.3) < 1e-9
    assert len(times) == 4


def test_arc_chord_collapse_halts():
    st = ellipse_state(1.0, 3.0, 128)
    cfg = SimConfig(alpha=1.0, t_final=5.0, arc_chord_factor=0.999)
    with pytest.raises(ArcChordCollapse) as err:
        evolve(st, cfg)
    assert err.value.time > 0


def test_step_size_underflow(monkeypatch):
    monkeypatch.setattr(simulator, "MIN_STEP", 1.0)
    st = ellipse_state(1.0, 3.0, 128)
    cfg = SimConfig(alpha=1.0, t_final=1.0)
    with pytest.raises(StepSizeUnderflow):
        evolve(st, cfg)


def test_spectral_convergence_doubling():
    """Doubling N from 256 to 512 changes the t = 1 ellipse curve by
    <= 1e-6 in max norm (the arclength resamplings nest, so every other
    N = 512 node matches an N = 256 node)."""
    cfg = SimConfig(alpha=1.0, t_final=1.0, snapshot_interval=1.0)
    fine = evolve(ellipse_state(1.0, 3.0, 512), cfg)[-1].points
    coarse = evolve(ellipse_state(1.0, 3.0, 256), cfg)[-1].points
    diff = float(np.abs(coarse - fine[::2]).max())
    assert diff <= 1e-6, diff


def test_reversibility_short():
    st = ellipse_state(1.0, 3.0, 256)
    fwd = evolve(st, SimConfig(alpha=1.0, t_final=0.5, snapshot_interval=0.5))
    back_state = SimState(fwd[-1].points.copy(), 0.0)
    back = evolve(back_state, SimConfig(alpha=1.0, jump=2 * math.pi, t_final=0.5, snapshot_interval=0.5))
    assert np.abs(back[-1].points - st.points).max() <= 1e-5


def _reference_kernel_sum(z, zx, alpha):
    """The O(N^2) kernel sum through (N, N, 2) pairwise differences."""
    diff = z[:, None, :] - z[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    np.fill_diagonal(dist2, 1.0)
    if alpha == 0.0:
        logd = 0.5 * np.log(dist2)
        np.fill_diagonal(logd, 0.0)
        return np.einsum("ij,jk->ik", logd, zx)
    kern = dist2 ** (-alpha / 2.0)
    np.fill_diagonal(kern, 0.0)
    dzx = zx[:, None, :] - zx[None, :, :]
    return np.einsum("ij,ijk->ik", kern, dzx)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5])
def test_velocity_matches_pairwise_reference(alpha, monkeypatch):
    cfg = SimConfig(alpha=alpha)
    for state in (ellipse_state(1.0, 3.0, 256), bump_state(0.15, 256)):
        got = velocity(state, cfg)
        with monkeypatch.context() as m:
            m.setattr(simulator, "_kernel_sum", _reference_kernel_sum)
            want = velocity(state, cfg)
        scale = float(np.abs(want).max())
        assert float(np.abs(got - want).max()) <= 1e-12 * scale


def test_arc_chord_min_bitwise_and_cached_chords():
    for state in (ellipse_state(1.0, 3.0, 128), bump_state(0.45, 256)):
        z, n = state.points, state.n
        diff = z[:, None, :] - z[None, :, :]
        d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        np.fill_diagonal(d, 1.0)
        i = np.arange(n)
        chord = 2.0 * np.abs(np.sin(np.abs(i[:, None] - i[None, :]) * (2 * math.pi / n) / 2.0))
        np.fill_diagonal(chord, 1.0)
        ratio = d / chord
        np.fill_diagonal(ratio, np.inf)
        assert arc_chord_min(state) == float(ratio.min())
        cached = simulator._chord_matrix(n)
        assert cached is simulator._chord_matrix(n)
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 1] = 0.0
