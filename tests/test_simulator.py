import hashlib
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from alphapatch import simulator
from alphapatch.simulator import (
    SimConfig,
    SimState,
    ArcChordCollapse,
    StepSizeUnderflow,
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
    zx = simulator._derivatives(state.points, (1,), None)[0]
    speed = np.sqrt((zx**2).sum(1))
    normal = np.stack([-zx[:, 1], zx[:, 0]], 1) / speed[:, None]
    return (v * normal).sum(1)


def test_spectral_derivative_sin():
    vals = np.sin(GRID)
    d = simulator._derivatives(vals, (1,), None)[0]
    assert np.abs(d - np.cos(GRID)).max() < 1e-12


def test_spectral_derivative_constant():
    vals = np.full(512, 2.5)
    for order in (1, 2, 3):
        assert np.abs(simulator._derivatives(vals, (order,), None)[0]).max() == 0.0


def test_spectral_derivative_filtered_single_mode():
    vals = np.sin(GRID)
    d = simulator._derivatives(vals, (1,), (10.0, 8))[0]
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
        zx = simulator._derivatives(z, (1,), None)[0]
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


@pytest.mark.parametrize("r1, r2", [(1e308, 3.0), (1.0, 1e308)])
def test_ellipse_state_rejects_overflowing_arclength(r1, r2):
    """Radii whose arclength overflows raise a ValueError naming them, and
    numpy warns about nothing on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"r1={r1}, r2={r2}")):
            ellipse_state(r1, r2, 64)


def test_circle_diagnostics():
    d = diagnostics(circle_state(1.0, 512))
    assert abs(d.min_curvature - 1.0) < 1e-10
    assert abs(d.area - math.pi) < 1e-12
    assert d.speed_variation <= 1e-10
    assert abs(d.arc_chord_min - 1.0) < 1e-12


def test_bump_state_curvature():
    st = bump_state(0.15, 512)
    z = st.points
    zx = simulator._derivatives(z, (1,), None)[0]
    zxx = simulator._derivatives(z, (2,), None)[0]
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


def test_every_snapshot_reaches_the_callback():
    """t_final is not a multiple of snapshot_interval, so the last snapshot
    is taken after the loop; the callback still sees it, with its arc-chord
    minimum and the run's one RunStats."""
    seen, ratios, stats = [], [], []

    def record(snap, ratio, run_stats):
        seen.append(snap)
        ratios.append(ratio)
        stats.append(run_stats)

    snaps = evolve(circle_state(1.0, 64), SimConfig(alpha=1.0, t_final=0.25, snapshot_interval=0.1), record)
    times = [s.time for s in seen]
    assert times == [s.time for s in snaps]
    assert ratios == [arc_chord_min(s) for s in snaps]
    assert all(s is stats[0] for s in stats) and stats[0].steps_accepted >= 3
    assert np.allclose(times, [0.0, 0.1, 0.2, 0.25], rtol=0.0, atol=1e-12)


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
    """Within 1e-12 of the (N, N, 2) reference.  Up to N = 512 the row blocks
    give the full-matrix bits; at N = 1024 OpenBLAS rounds a (ROWS, N) @ (N, 2)
    block product apart from the full product by about 2.5e-15 of its largest
    entry."""
    cfg = SimConfig(alpha=alpha)
    for n in (256, 1024):
        for state in (ellipse_state(1.0, 3.0, n), bump_state(0.15, n)):
            got = velocity(state, cfg)
            with monkeypatch.context() as m:
                m.setattr(simulator, "_kernel_sum", _reference_kernel_sum)
                want = velocity(state, cfg)
            scale = float(np.abs(want).max())
            assert float(np.abs(got - want).max()) <= 1e-12 * scale


@pytest.mark.parametrize("n", [64, 256])
def test_row_block_edges_invisible(n, monkeypatch):
    """Blocks of 4 rows, of 24 (N = 64 ends in a ragged block of 16) and one
    block of all N rows give the default blocks' bits."""
    states = (ellipse_state(1.0, 3.0, n), bump_state(0.15, n))
    zxs = [simulator._derivatives(s.points, (1,), None)[0] for s in states]

    def results():
        out = []
        for state, zx in zip(states, zxs):
            out.append(arc_chord_min(state))
            out += [simulator._kernel_sum(state.points, zx, a).tobytes() for a in (0.0, 1.0, 1.96)]
        return out

    want = results()
    for rows in (4, 24, n):
        monkeypatch.setattr(simulator, "ROWS", rows)
        assert results() == want, rows


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("rows", [4, 24, 64])
def test_pair_blocks_cover_each_pair_once(n, rows, monkeypatch):
    """The blocks hold |z_i - z_j|^2 for the columns j from their first row
    on, once each, with the bits of the full (N, N) array and 1 on the
    diagonal; 24 rows end in a ragged block at both N."""
    monkeypatch.setattr(simulator, "ROWS", rows)
    z = bump_state(0.15, n).points
    dx = z[:, None, 0] - z[None, :, 0]
    dy = z[:, None, 1] - z[None, :, 1]
    full = dx * dx + dy * dy
    np.fill_diagonal(full, 1.0)
    starts, entries = [], 0
    for block_rows, dist2, diag in simulator._pair_blocks(z, simulator._workspace(n)[0]):
        starts.append(block_rows.start)
        entries += dist2.size
        assert dist2.tobytes() == full[block_rows, block_rows.start :].tobytes()
        assert diag.size == block_rows.stop - block_rows.start
    assert starts == list(range(0, n, rows))
    assert entries == sum(min(rows, n - start) * (n - start) for start in starts)


def test_kept_tiles_never_share_a_slot():
    """Block k reads the tiles (b, k) and then keeps (k, c) for c > k; no
    two tiles alive at once share a slot of the (half, blocks - half) grid."""
    for blocks in range(1, 40):
        half = (blocks + 1) // 2
        held = {}
        for k in range(blocks):
            for b in range(k):
                del held[b, k]
            for c in range(k + 1, blocks):
                slot = simulator._tile_slot(k, c, half)
                assert 0 <= slot[0] < half and 0 <= slot[1] < blocks - half
                assert slot not in held.values(), (blocks, k, c)
                held[k, c] = slot
        assert not held


@pytest.mark.parametrize("call", ["velocity", "arc_chord_min"])
def test_pair_work_memory(call):
    """After one warm-up call, velocity and arc_chord_min at N = 512 allocate
    under 1.5 MiB at their peak: no (N, N) temporary (2 MiB) is made."""
    state = ellipse_state(1.0, 3.0, 512)
    args = (state, SimConfig(alpha=1.0)) if call == "velocity" else (state,)
    fn = getattr(simulator, call)
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20



@pytest.mark.parametrize("call", ["velocity", "arc_chord_min"])
@pytest.mark.parametrize("n, mib", [(1024, 3.5), (4096, 5.0)])
def test_pair_work_memory_on_both_sides_of_kept_max(call, n, mib):
    """At N = 1024 the kept tiles (2 MiB, KEPT_MAX) and the two (ROWS, N)
    blocks (1 MiB) fit under 3.5 MiB; at N = 4096 whole rows take only the
    blocks (4 MiB), where the tiles would add 32 MiB."""
    state = ellipse_state(1.0, 3.0, n)
    args = (state, SimConfig(alpha=1.0)) if call == "velocity" else (state,)
    fn = getattr(simulator, call)
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mib * 2**20


@pytest.mark.parametrize("n", [256, 1024, 2048])
def test_kernel_sum_upper_triangle_and_whole_rows_agree(n, monkeypatch):
    """The kernel sum takes the upper triangle up to N = 1024 and whole rows
    above, and the two give the same bits at every size."""
    assert (simulator._workspace(n)[1] is None) == (n > 1024)
    state = bump_state(0.15, n)
    zx = simulator._derivatives(state.points, (1,), None)[0]

    def results():
        return [simulator._kernel_sum(state.points, zx, a).tobytes() for a in (0.0, 1.0, 1.96)]

    monkeypatch.setattr(simulator, "KEPT_MAX", 0)
    assert simulator._workspace(n)[1] is None
    whole = results()
    monkeypatch.setattr(simulator, "KEPT_MAX", n * n)
    assert simulator._workspace(n)[1] is not None
    assert results() == whole


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


# sha256 of velocity(...).tobytes() and float.hex of arc_chord_min for the
# proof curve and the benchmark ellipse, as first computed on full (N, N)
# pair arrays with one FFT pair per derivative
_VELOCITY_BITS = {
    ("ellipse", 64, 0.0): "e5ecb34e5669d0e9d545c3d1892243339aec352aa530250b255c2249201b69e5",
    ("ellipse", 64, 0.02): "9b025b140149076a113967a9e26d08c9ede120a9d25f8b2f8a4b5447eabb8e0a",
    ("ellipse", 64, 1.0): "eda1ae31743378a4d5d2cfef0f5c88b54314bf81ee96e4df1dcd9b846c25a0d8",
    ("ellipse", 64, 1.96): "12fe1bb764b49b459c5950b9783f61ca45a0dafa9c1b05770c06a3426d316e22",
    ("ellipse", 512, 0.0): "6c88f2cc59c40d556be653888316ecbd99d0f3e5dff6b0c754d1ce84c0a0c4de",
    ("ellipse", 512, 0.02): "40977f041527ab82955ae4d2dfe586d91583d8feeb675d43c2c302206b16ad58",
    ("ellipse", 512, 1.0): "709ee1da100f608573bc671367ab6a741e80cebb9cacd6138e7534fd6cebdbfb",
    ("ellipse", 512, 1.96): "dd2da85294dafd7b46d8abada2ae50ee9b8c3195e073836de27cc95b9ebbc969",
    ("bump", 64, 0.0): "e3014e99d21bc57f3908025837981b470cf41d6588442fb620d051bea2ca81d2",
    ("bump", 64, 0.02): "4ce696f4b506c3460e1e43bd284632a6fdab5d4542f927220553f687d93e4297",
    ("bump", 64, 1.0): "4c932c07773077d644ec1a84709b2f4c6840dc639fde56c29c4c2177b5e8878b",
    ("bump", 64, 1.96): "2c0135385f0d86c326d6d145d2f57610c4ad88f5ed0eb9839f807937c5bc2a2b",
    ("bump", 512, 0.0): "4cf22073cfd8fc1b885245d5825b17ac1a5eafd5a27053610ac3517ff24c4a8e",
    ("bump", 512, 0.02): "1034a41b680836873d8652ce6228b460d7d64931594f41e16c402f74c5175418",
    ("bump", 512, 1.0): "d92473e7a911b791e2b03cccc7385ffc969fc20590dde5e47c2618338fab5789",
    ("bump", 512, 1.96): "032467e39a8d72de2423258c79dca6b7db022ee1db3645525f340eb2a991c8de",
}
_ARC_CHORD_BITS = {
    ("ellipse", 64): "0x1.0000000000000p+0",
    ("ellipse", 512): "0x1.0000000000000p+0",
    ("bump", 64): "0x1.3080752e521c9p-1",
    ("bump", 512): "0x1.30274085d508cp-1",
}
# evolve(ellipse_state(1, 3, 128), alpha=1, t_final=0.1, snapshots every 0.05)
# on the RKF45 reference path
_EVOLVE_BITS = [
    ("0x0.0p+0", "8664cfcfae5b6a6caae96d1c1c85540951a2abec6636008787b9aa9e73999329"),
    ("0x1.999999999999ap-5", "cbb65d16fb9d0ec8d10c646eaf942519796ce101a96477aa873c3c155446afc0"),
    ("0x1.999999999999ap-4", "bc5a30a0de36b62b8a5975915a95378a8e1d3b6555e2f14a809bdcc34259f17d"),
]
# the same run on the default exponential path, as first computed with
# _full_matrix_kernel_sum
_ETD_EVOLVE_BITS = [
    ("0x0.0p+0", "8664cfcfae5b6a6caae96d1c1c85540951a2abec6636008787b9aa9e73999329"),
    ("0x1.999999999999ap-5", "89ee354a2521bc847f1ecfa7eee6b0397f4992ca09dc841a2de69c190f309128"),
    ("0x1.999999999999ap-4", "a551781f690e5c3c46626508eecfe6c9468237607a292aec2dfd0ece8f35d075"),
]


def _sha(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


def _full_matrix_kernel_sum(z, zx, alpha):
    """_kernel_sum's arithmetic on one full (N, N) kernel array."""
    dx = z[:, None, 0] - z[None, :, 0]
    dy = z[:, None, 1] - z[None, :, 1]
    dist2 = dx * dx + dy * dy
    np.fill_diagonal(dist2, 1.0)
    if alpha == 0.0:
        kern = 0.5 * np.log(dist2)
        np.fill_diagonal(kern, 0.0)
        return kern @ zx
    kern = np.power(dist2, -alpha / 2.0)
    np.fill_diagonal(kern, 0.0)
    return kern.sum(1)[:, None] * zx - kern @ zx


def _frozen_evolve():
    snaps = evolve(ellipse_state(1.0, 3.0, 128), SimConfig(alpha=1.0, t_final=0.1, snapshot_interval=0.05))
    return [(s.time.hex(), _sha(s.points)) for s in snaps]


def test_simulator_frozen_bits(monkeypatch):
    """velocity, arc_chord_min and a short evolve on the RKF45 reference
    path give the bits of the full-matrix kernel."""
    for (shape, n), want in _ARC_CHORD_BITS.items():
        state = ellipse_state(1.0, 3.0, n) if shape == "ellipse" else bump_state(0.15, n)
        assert arc_chord_min(state).hex() == want, (shape, n)
        for alpha in (0.0, 0.02, 1.0, 1.96):
            got = _sha(velocity(state, SimConfig(alpha=alpha)))
            assert got == _VELOCITY_BITS[shape, n, alpha], (shape, n, alpha)
    monkeypatch.setattr(simulator, "_step", simulator._rkf45_step)
    assert _frozen_evolve() == _EVOLVE_BITS


@pytest.mark.parametrize("kernel", ["blocks", "full_matrix"])
def test_exponential_evolve_frozen_bits(kernel, monkeypatch):
    """The default path gives the same bits on the row blocks and on one
    full (N, N) kernel array, the symbol included."""
    if kernel == "full_matrix":
        monkeypatch.setattr(simulator, "_kernel_sum", _full_matrix_kernel_sum)
    simulator._normal_symbol.cache_clear()
    try:
        assert _frozen_evolve() == _ETD_EVOLVE_BITS
    finally:
        simulator._normal_symbol.cache_clear()


# diagnostics() fields (min_curvature, area, arc_chord_min, speed_variation)
# as float.hex, per initial state at N = 128
_DIAGNOSTICS_BITS = {
    "ellipse": ("0x1.c71d853e4ac2cp-4", "0x1.2d97c7f336f64p+3", "0x1.0000000000000p+0", "0x1.0621a6c399c87p-13"),
    "bump": ("-0x1.34f09b1ef4074p-11", "0x1.862f033137d4ep+1", "0x1.3034b2c215532p-1", "0x1.00d0315253e31p+0"),
    "circle": ("0x1.fffffffffefffp-1", "0x1.921fb54442d18p+1", "0x1.fffffffffffd0p-1", "0x1.1f00000000000p-45"),
}


def test_diagnostics_frozen_bits():
    """diagnostics() gives the bits of one spectral transform per derivative."""
    states = {
        "ellipse": ellipse_state(1.0, 3.0, 128),
        "bump": bump_state(0.15, 128),
        "circle": circle_state(1.0, 128),
    }
    for name, state in states.items():
        d = diagnostics(state)
        got = (d.min_curvature.hex(), d.area.hex(), d.arc_chord_min.hex(), d.speed_variation.hex())
        assert got == _DIAGNOSTICS_BITS[name], name


# ---------------------------------------------------------------------------
# the exponential stepper
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha, response", [(0.5, 304.0), (1.0, 666.0), (1.5, 1990.0)])
def test_normal_symbol_matches_measured_response(alpha, response):
    """At N = 512, k = 200 the symbol reads -i times the normal response to
    a cos(kx) normal perturbation of the circle, measured by finite
    differences through velocity: 304, 666 and 1,990, within 1 %."""
    symbol = simulator._normal_symbol(512, alpha, -2 * math.pi)
    assert abs(symbol[200].imag + response) <= 0.01 * response
    assert abs(symbol[200].real) <= 1e-6 * response
    assert not symbol.flags.writeable


def test_exponential_round_trip():
    """exp(hA) and then exp(-hA) give w back to 1e-14 relative, on the
    benchmark ellipse with |h Omega| up to 17."""
    z = ellipse_state(1.0, 3.0, 512).points
    normal, omega = simulator._frame(z, SimConfig(alpha=1.0))
    lin = 0.05 * np.append(omega, 0.0)
    assert 15.0 < np.abs(lin).max() < 20.0
    w = np.random.default_rng(7).standard_normal(z.shape)
    there = simulator._linear_sum(normal, [(np.exp(lin), w)])
    back = simulator._linear_sum(normal, [(np.exp(-lin), there)])
    assert np.abs(back - w).max() <= 1e-14 * np.abs(w).max()


def _phi_closed(z, k):
    """phi_k(z) = (e^z - sum_{j<k} z^j/j!) / z^k in mpmath at 60 digits."""
    import mpmath

    with mpmath.workdps(60):
        z = mpmath.mpc(z)
        head = sum(z**j / mpmath.factorial(j) for j in range(k))
        return complex((mpmath.exp(z) - head) / z**k)


def test_phis_at_imaginary_arguments():
    """phi_1..3 at imaginary z agree with their closed forms to 1e-15
    relative, on both sides of the switch at |z| = 1, and with five terms
    of their Taylor series at |z| <= 1e-3; phi_k(0) = 1/k! exactly."""
    ys = np.array([1e-3, 0.3, 0.999, 1.0, 1.001, 2.5, 40.0, 2000.0])
    zs = 1j * np.concatenate([ys, -ys])
    got = simulator._phis(zs)
    for i, z in enumerate(zs):
        for k in range(3):
            want = _phi_closed(z, k + 1)
            assert abs(got[k, i] - want) <= 1e-15 * abs(want), (z, k)
    small = 1j * np.array([0.0, 1e-12, -1e-8, 1e-5, -1e-3])
    got = simulator._phis(small)
    for k in range(3):
        taylor = sum(small**j / math.factorial(j + k + 1) for j in range(5))
        assert np.abs(got[k] - taylor).max() <= 1e-16
        assert got[k, 0] == 1.0 / math.factorial(k + 1)


def _final_points(state, cfg, monkeypatch, stepper):
    monkeypatch.setattr(simulator, "_step", stepper)
    return evolve(state, cfg)[-1].points


@pytest.mark.parametrize(
    "shape, n, alpha, t_final, bound",
    [
        # the benchmark run: measured 1.4e-7
        ("ellipse", 512, 1.0, 1.0, 1e-6),
        # measured 1.3e-7, 9.7e-8, 1.3e-7, 1.2e-7 and 5.7e-7
        ("ellipse", 128, 0.0, 0.3, 3e-7),
        ("ellipse", 128, 0.02, 0.3, 2e-7),
        ("ellipse", 128, 0.5, 0.3, 3e-7),
        ("ellipse", 256, 1.5, 0.3, 3e-7),
        ("bump", 128, 1.0, 0.3, 1.2e-6),
    ],
)
def test_exponential_path_matches_rkf45_reference(shape, n, alpha, t_final, bound, monkeypatch):
    """At t_final the default path lies within bound of RKF45 at tolerance
    1e-12."""
    state = ellipse_state(1.0, 3.0, n) if shape == "ellipse" else bump_state(0.15, n)
    cfg = SimConfig(alpha=alpha, t_final=t_final, snapshot_interval=t_final)
    tight = SimConfig(
        alpha=alpha, t_final=t_final, snapshot_interval=t_final, rk_abs_tol=1e-12, rk_rel_tol=1e-12
    )
    got = _final_points(state, cfg, monkeypatch, simulator._etdrk4_step)
    want = _final_points(state, tight, monkeypatch, simulator._rkf45_step)
    assert float(np.abs(got - want).max()) <= bound


def test_run_stats_count_every_velocity_call(monkeypatch):
    """Six velocity calls per attempted step, plus the symbol's two when
    the run takes it; dt_min and dt_max span the accepted steps."""
    calls = []

    def counted(state, cfg):
        calls.append(state.n)
        return simulator._velocity(state.points, cfg)

    monkeypatch.setattr(simulator, "velocity", counted)
    simulator._normal_symbol.cache_clear()
    cfg = SimConfig(alpha=1.0, t_final=0.2, snapshot_interval=0.1)
    for symbol_calls in (2, 0):
        calls.clear()
        seen = []
        evolve(ellipse_state(1.0, 3.0, 64), cfg, lambda snap, ratio, stats: seen.append(stats))
        stats = seen[-1]
        assert len(calls) == 6 * stats.steps_attempted
        assert stats.velocity_calls == len(calls) + symbol_calls
        assert 0 < stats.steps_accepted <= stats.steps_attempted
        assert 0 < stats.dt_min <= stats.dt_max <= 0.1


def test_evolve_rejects_too_many_kept_points():
    """A run whose snapshots would hold more than MAX_KEPT_POINTS points
    stops before its first step."""
    cfg = SimConfig(alpha=1.0, t_final=1.0, snapshot_interval=1e-9)
    with pytest.raises(ValueError, match="kept points"):
        evolve(circle_state(1.0, 64), cfg)
    fits = SimConfig(alpha=1.0, t_final=1.0, snapshot_interval=64 / simulator.MAX_KEPT_POINTS)
    fits.require_kept_points(32)
    with pytest.raises(ValueError):
        fits.require_kept_points(64)
