import argparse
import json
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy.interpolate import CubicSpline, RectBivariateSpline

from conftest import (fourier_wavefunction, gaussian_wavepacket, oracle_min, whole_bump,
                      whole_mixture_wigner, whole_rescale, whole_symplectic_blocks,
                      whole_wigner_gaussian, whole_wigner_of_pure)
from wigcheck import (AxisGrid, SymplecticFourier, cli, default_axis, fock_state, states,
                      kernel_from_wigner,
                      load_wigner_manifest, mixture_wigner, narcowich_oconnell_grid,
                      operator_spectrum_oracle, rescale, save_wigner_manifest, trace,
                      truncated_bump_grid, wigner_gaussian, wigner_momentum_axis,
                      wigner_of_pure)
from wigcheck.states import (_CHUNK_ROWS, WaveFunctionGrid, WignerGrid, _boundary_band_sum,
                             _chirp_sum, _fast_len, _is_wigner_conjugate, _oracle_views,
                             _spline_at)


def test_fock_normalization_and_orthogonality():
    axis = default_axis()
    psi0 = fock_state(0, axis)
    psi1 = fock_state(1, axis)
    d = axis.spacing
    assert psi0.norm_squared() == pytest.approx(1.0, abs=1e-8)
    overlap = np.sum(np.conj(psi0.values) * psi1.values) * d
    assert abs(overlap) <= 1e-8


def test_fock1_odd_parity():
    psi1 = fock_state(1)
    mid = psi1.axis.count // 2
    assert psi1.axis.points[mid] == pytest.approx(0.0, abs=1e-14)
    assert psi1.values[mid] == pytest.approx(0.0, abs=1e-14)


def test_fock_grid_too_narrow():
    with pytest.raises(ValueError, match="narrow"):
        fock_state(0, default_axis(extent=2.0))


def test_wigner_vacuum_value(vacuum_wigner):
    # closed-form Gaussian value at the origin
    mid_x = vacuum_wigner.x_axis.count // 2
    mid_p = vacuum_wigner.p_axis.count // 2
    assert vacuum_wigner.values[mid_x, mid_p] == pytest.approx(1 / np.pi, abs=1e-4)
    assert trace(vacuum_wigner) == pytest.approx(1.0, abs=1e-5)


def test_wigner_fock1_value_against_quadrature(fock1_psi, fock1_wigner):
    # independent quadrature of the defining transform at the origin:
    # W(0,0) = (1/pi hbar) \int psi(y) conj(psi(-y)) dy
    d = fock1_psi.axis.spacing
    vals = fock1_psi.values
    # grid points are x_m = (m - n/2) d, so psi(-x_m) sits at index (n - m) % n
    reflected = np.concatenate([vals[:1], vals[1:][::-1]])
    expected = float(np.real(np.sum(vals * np.conj(reflected)) * d) / np.pi)
    assert expected == pytest.approx(-1 / np.pi, abs=1e-6)
    mid_x = fock1_wigner.x_axis.count // 2
    mid_p = fock1_wigner.p_axis.count // 2
    assert fock1_wigner.values[mid_x, mid_p] == pytest.approx(expected, abs=1e-3)


def test_wigner_imaginary_residual(fock1_wigner, vacuum_wigner):
    assert vacuum_wigner.imag_residual <= 1e-10
    assert fock1_wigner.imag_residual <= 1e-10


def test_wigner_requires_normalized_input():
    axis = default_axis()
    psi = fock_state(0, axis)
    bad = WaveFunctionGrid(axis, 2.0 * psi.values, psi.hbar)
    with pytest.raises(ValueError, match="normalized"):
        wigner_of_pure(bad)


def test_gaussian_matches_pure_vacuum(vacuum_wigner):
    closed = wigner_gaussian(np.zeros(2), 0.5 * np.eye(2),
                             vacuum_wigner.x_axis, vacuum_wigner.p_axis)
    assert np.abs(closed.values - vacuum_wigner.values).max() <= 1e-6


def test_gaussian_peak_and_trace():
    axis = default_axis()
    sigma = np.array([[0.7, 0.2], [0.2, 0.5]])
    w = wigner_gaussian(np.zeros(2), sigma, axis, axis)
    expected_peak = 1.0 / (2 * np.pi * np.sqrt(np.linalg.det(sigma)))
    assert w.values.max() == pytest.approx(expected_peak, rel=1e-10)
    assert trace(w) == pytest.approx(1.0, abs=1e-6)


def test_gaussian_rejects_singular():
    axis = default_axis()
    with pytest.raises(ValueError):
        wigner_gaussian(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]), axis, axis)


@pytest.mark.filterwarnings("ignore:possible momentum aliasing")
def test_mixture_single_component_identity(vacuum_psi):
    # the weight 1.0 multiplies the products exactly, signs of zero included
    for psi in (vacuum_psi, fock_state(1, default_axis(1.0, 256, 40.0))):
        w = mixture_wigner([(1.0, psi)])
        assert _same_bits((w.values, w.imag_residual), whole_wigner_of_pure(psi))
        pure = wigner_of_pure(psi)
        assert _same_bits((w.values, w.imag_residual), (pure.values, pure.imag_residual))


def test_mixture_trace_and_weights(mixture_5050):
    assert trace(mixture_5050) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError, match="sum"):
        mixture_wigner([(0.5, fock_state(0)), (0.6, fock_state(1))])


def test_rescale_identity(vacuum_wigner):
    w = rescale(vacuum_wigner, 1.0)
    assert np.abs(w.values - vacuum_wigner.values).max() <= 1e-12


def test_rescale_vacuum_covariance():
    # second moments scale as 1/lambda^2
    from wigcheck import covariance_from_grid
    w = rescale(wigner_of_pure(fock_state(0)), 2.0)
    cov = covariance_from_grid(w)
    assert np.allclose(cov.sigma, np.diag([1 / 8, 1 / 8]), atol=1e-3)


@pytest.mark.parametrize("lam", [0.8, 1.2, 2.0])
def test_rescale_preserves_mass(fock1_wigner, lam):
    assert trace(rescale(fock1_wigner, lam)) == pytest.approx(trace(fock1_wigner), abs=1e-5)


def test_rescale_rejects_nonpositive(vacuum_wigner):
    with pytest.raises(ValueError):
        rescale(vacuum_wigner, 0.0)


def test_rescale_composition(vacuum_wigner):
    once = rescale(rescale(vacuum_wigner, 1.2), 1.1)
    direct = rescale(vacuum_wigner, 1.32)
    assert np.abs(once.values - direct.values).max() <= 1e-4


def test_trace_linearity(vacuum_wigner):
    from wigcheck.states import WignerGrid
    doubled = WignerGrid(vacuum_wigner.x_axis, vacuum_wigner.p_axis,
                         2.0 * vacuum_wigner.values, vacuum_wigner.hbar)
    assert trace(doubled) == pytest.approx(2.0, abs=2e-6)


def test_no_fixture_trace(no_grid):
    assert trace(no_grid) == pytest.approx(1.0, abs=1e-3)


def test_symplectic_fourier_at_origin(vacuum_wigner, mixture_5050):
    for w in (vacuum_wigner, mixture_5050):
        f = SymplecticFourier(w)
        assert f(np.zeros(2)) == pytest.approx(trace(w), abs=1e-12)


def test_symplectic_fourier_vacuum_analytic(vacuum_wigner):
    # separable Gaussian integral: F(z) = exp(-|z|^2/4) at hbar = 1
    f = SymplecticFourier(vacuum_wigner)
    pts = np.array([[0.5, 0.0], [0.0, 1.3], [1.0, -1.0], [2.0, 2.0]])
    expected = np.exp(-np.sum(pts**2, axis=1) / 4)
    assert np.abs(f(pts) - expected).max() <= 1e-4


def test_symplectic_fourier_reality_symmetry(fock1_wigner, odd_offcentre_grid):
    pts = np.random.default_rng(0).normal(size=(8, 2))
    for w in (fock1_wigner, odd_offcentre_grid):
        f = SymplecticFourier(w)
        assert np.array_equal(f(-pts), f(pts).conj())


def test_kernel_round_trip(vacuum_psi, vacuum_wigner):
    ref = np.outer(vacuum_psi.values, np.conj(vacuum_psi.values))
    blocks = kernel_from_wigner(vacuum_wigner)
    for parity, k in enumerate(blocks):
        assert np.abs(k - ref[parity::2, parity::2]).max() <= 1e-12
    assert len(blocks) == 2


def test_kernel_diagonal_trace(fock1_wigner):
    diag_sum = sum(float(np.real(np.trace(k))) for k in kernel_from_wigner(fock1_wigner))
    assert diag_sum * fock1_wigner.x_axis.spacing == pytest.approx(trace(fock1_wigner), abs=1e-12)


def test_kernel_hermitian(no_grid):
    for k in kernel_from_wigner(no_grid):
        assert np.array_equal(k, k.conj().T)


def _traced_peak(run):
    """Peak of tracemalloc's traced memory during run(), above its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_oracle_real_path_memory_stays_within_1_0_grids(no_grid):
    # Re b (half a grid), one row block's chirp-z work array and one complex
    # block of b's layout; the eigensolver reads the blocks as views of b
    assert _traced_peak(lambda: operator_spectrum_oracle(no_grid)) <= 1.0 * no_grid.values.nbytes


def test_oracle_complex_path_memory_stays_within_1_6_grids():
    # a Gaussian shifted in p leaves the real path at its first block: the
    # complex b (one grid) and one row block's chirp-z work array
    axis = default_axis(1.0, 768)
    w = wigner_gaussian([0, 0.5], 0.5 * np.eye(2), axis, axis)
    assert not _weyl_bound(w)[2]
    assert _traced_peak(lambda: operator_spectrum_oracle(w)) <= 1.6 * w.values.nbytes


def test_klm_stage_memory_stays_within_1_2_grids(no_grid):
    # SymplecticFourier's blocks (one grid), folded by row blocks; the search's
    # stacked matrices; the witness check sums |W| by row blocks
    args = cli.build_parser().parse_args(["klm", "{}"])
    assert _traced_peak(lambda: cli._klm(no_grid, args)) <= 1.2 * no_grid.values.nbytes


def _late_asymmetric_grid():
    """A centred squeezed Gaussian on 256 x 256 points, mirror-symmetric in p
    except on row 100: the oracle's first row block (rows 0-63 and 128-191)
    stays on the real path, the second (rows 64-127 and 192-255) leaves it."""
    axis = default_axis()
    w = wigner_gaussian([0, 0], np.diag([1.0, 0.25]), axis, axis)
    w.values[100] *= 1 + 0.01 * np.tanh(axis.points)
    return w


def _oracle_cases(no_grid, odd_offcentre_grid):
    yield "narcowich-oconnell", no_grid
    yield "fock1 x1.2", rescale(wigner_of_pure(fock_state(1)), 1.2)
    yield "odd off-centre", odd_offcentre_grid
    yield "asymmetric in p on row 100", _late_asymmetric_grid()
    rng = np.random.default_rng(3)
    for n, m in ((301, 250), (17, 20), (4 * _CHUNK_ROWS + 1, 64)):  # odd, non-conjugate
        yield f"random {n}x{m}", WignerGrid(AxisGrid(-5.0, 6.0, n), AxisGrid(-4.0, 3.5, m),
                                            rng.normal(size=(n, m)), hbar=0.7)


def test_oracle_leaves_the_real_path_at_the_first_block_past_the_bound(monkeypatch):
    # each row block is one chirp-z call; a grid that leaves the real path at
    # its second block of two is transformed 2 + 2 times, one that stays on it twice
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _chirp_sum(*args, **kwargs)

    monkeypatch.setattr(states, "_chirp_sum", counted)
    axis = default_axis()
    for w, real, count in ((_late_asymmetric_grid(), False, 4),
                           (wigner_gaussian([0, 0], np.diag([1.0, 0.25]), axis, axis), True, 2)):
        calls.clear()
        assert (not np.iscomplexobj(_oracle_views(w)[0][0])) == real
        assert len(calls) == count


def _weyl_bound(w):
    """The oracle's Weyl bound, its round-off scale, and whether it solves real blocks."""
    views, bound, roundoff = _oracle_views(w)
    return bound, roundoff, not np.iscomplexobj(views[0])


def test_oracle_views_match_the_hermitian_blocks_bit_for_bit(no_grid, odd_offcentre_grid):
    # eigvalsh reads only the lower triangle and the real diagonal, so the
    # strided views give the eigenvalues of the expanded Hermitian blocks
    # exactly: of their real parts where Im K is round-off, else of the blocks
    for name, w in _oracle_cases(no_grid, odd_offcentre_grid):
        real = _weyl_bound(w)[2]
        want = [np.linalg.eigvalsh(k.real if real else k)[::-1] * (2 * w.x_axis.spacing)
                for k in kernel_from_wigner(w)]
        got = operator_spectrum_oracle(w)
        assert [g.tobytes() for g in got] == [x.tobytes() for x in want], name


def test_oracle_real_path_stays_within_the_weyl_bound(no_grid, odd_offcentre_grid,
                                                      vacuum_wigner, mixture_5050):
    axis = default_axis()
    battery = {"vacuum": vacuum_wigner, "fock 0+1 mixture": mixture_5050,
               "squeezed": wigner_gaussian([0, 0], np.diag([1.0, 0.25]), axis, axis),
               "bump": truncated_bump_grid(axis, axis, radius=1.0),
               "vacuum x1.5": rescale(vacuum_wigner, 1.5)}
    shifted = wigner_gaussian([0, 0.5], 0.5 * np.eye(2), axis, axis)
    cases = [*_oracle_cases(no_grid, odd_offcentre_grid), *battery.items(),
             ("gaussian shifted in p", shifted)]
    # grids mirror-symmetric in p have a real kernel; the rest keep the complex solve
    real_path = {"narcowich-oconnell", "fock1 x1.2", *battery}
    for name, w in cases:
        bound, roundoff, real = _weyl_bound(w)
        assert real == (name in real_path), name
        complex_eigs = [np.linalg.eigvalsh(k)[::-1] * (2 * w.x_axis.spacing)
                        for k in kernel_from_wigner(w)]
        # Weyl's bound on the exact move, plus the two eigensolvers' own round-off
        for got, want in zip(operator_spectrum_oracle(w), complex_eigs, strict=True):
            assert np.abs(got - want).max() <= bound + roundoff, name


def _gather_wigner_of_pure(psi, components=None):
    """wigner_of_pure by index gathers and a centred DFT of the whole grid; of
    the mixture sum_i w_i psi_i(x+y) conj(psi_i(x-y)) when `components` is given."""
    n, hbar = psi.axis.count, psi.hbar
    offs = np.arange(n) - n // 2
    rows = np.arange(n)[:, None]
    corr = None
    for weight, state in components or [(1.0, psi)]:
        pad = np.concatenate([np.zeros(n, dtype=complex), state.values, np.zeros(n, dtype=complex)])
        term = pad[rows + offs[None, :] + n] * np.conjugate(pad[rows - offs[None, :] + n])
        term.view(float)[...] *= weight
        corr = term if corr is None else corr + term
    dft = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(corr, axes=1), axis=1), axes=1)
    wc = (psi.axis.spacing / (np.pi * hbar)) * dft
    return wc.real, np.abs(wc.imag).max()


@pytest.mark.parametrize("n", [256, 300])
def test_wigner_of_pure_matches_the_gather_version(n):
    axis = default_axis(1.0, n, 10.0)
    states = [fock_state(k, axis) for k in range(4)]
    for psi in states:
        values, resid = _gather_wigner_of_pure(psi)
        w = wigner_of_pure(psi)
        assert w.values.tobytes() == values.tobytes() and w.imag_residual == resid
    parts = [(0.25, states[0]), (0.75, states[3])]
    mix = mixture_wigner(parts)
    assert mix.values.tobytes() == _gather_wigner_of_pure(states[0], parts)[0].tobytes()


def _same_bits(got, want):
    """Equal values, signs of zero included, and equal imaginary residuals."""
    (got, got_resid), (want, want_resid) = got, want
    return got.tobytes() == want.tobytes() and repr(got_resid) == repr(want_resid)


@pytest.mark.filterwarnings("ignore:possible momentum aliasing")
@pytest.mark.parametrize("n, extent, states", [(256, 8.0, 2), (256, 40.0, 3), (300, 10.0, 3)])
def test_wigner_of_pure_matches_the_whole_array_code(n, extent, states):
    axis = default_axis(1.0, n, extent)
    for k in range(states):
        psi = fock_state(k, axis)
        w = wigner_of_pure(psi)
        assert _same_bits((w.values, w.imag_residual), whole_wigner_of_pure(psi)), k


@pytest.mark.filterwarnings("ignore:possible momentum aliasing")
def test_mixture_matches_one_sum_of_whole_grids():
    # bit for bit: one transform of the summed weighted products; within 8 ulp
    # of the peak: the weighted sum of the pure grids, which is the same sum
    # taken after the transform.  On this wide grid each result has -0.0
    # entries, which the reference must reproduce
    axis = default_axis(1.0, 256, 40.0)
    states = [(0.3, fock_state(1, axis)), (0.5, fock_state(0, axis)), (0.2, fock_state(2, axis))]
    for parts in (states, [(0.5, states[0][1]), (0.5, states[1][1])], [(1.0, states[0][1])]):
        w = mixture_wigner(parts)
        assert _same_bits((w.values, w.imag_residual), whole_mixture_wigner(parts))
        assert np.signbit(w.values[w.values == 0]).any()
        grids = sum(weight * whole_wigner_of_pure(psi)[0] for weight, psi in parts)
        peak = np.abs(grids).max()
        assert np.abs(w.values - grids).max() <= 8 * np.finfo(float).eps * peak


ODD_AXES = (AxisGrid(-3.0, 11.0, 301), AxisGrid(-4.0, 6.0, 250))  # odd, not centred on 0


def test_gaussian_and_bump_match_the_meshgrid_code():
    axis = default_axis()
    sigma = np.array([[0.7, 0.2], [0.2, 0.4]])
    for x_axis, p_axis, mean in ((axis, axis, [0.3, -0.2]), (*ODD_AXES, [4.0, 1.0])):
        got = wigner_gaussian(mean, sigma, x_axis, p_axis).values
        assert got.tobytes() == whole_wigner_gaussian(mean, sigma, x_axis, p_axis).tobytes()
    for x_axis, p_axis in ((axis, axis), (AxisGrid(-3.0, 2.0, 301), AxisGrid(-2.5, 2.0, 250))):
        for profile in ("cosine", "indicator"):
            for radius in (1.0, 2.3):
                got = truncated_bump_grid(x_axis, p_axis, radius=radius, profile=profile).values
                want = whole_bump(x_axis, p_axis, radius, profile)
                assert got.tobytes() == want.tobytes(), (profile, radius)


def _rescale_cases():
    axis = default_axis()
    conjugate = wigner_gaussian([0.4, -0.6], [[0.8, 0.3], [0.3, 0.5]], axis,
                                wigner_momentum_axis(axis))
    equal_axes = wigner_gaussian([0.3, -0.2], [[0.7, 0.2], [0.2, 0.4]], axis, axis)
    odd = wigner_gaussian([4.0, 1.0], [[1.0, 0.3], [0.3, 0.5]], *ODD_AXES)
    for lam in (0.8, 1.2, 1.5):
        yield f"fock1 x{lam}", wigner_of_pure(fock_state(1)), lam
        yield f"conjugate gaussian x{lam}", conjugate, lam
        yield f"equal axes x{lam}", equal_axes, lam
        yield f"odd off-centre x{lam}", odd, lam
    n, dx = 64, 0.25  # DFT-conjugate axes whose momentum targets all leave the grid
    p_axis = AxisGrid(50.0, 50.0 + (n - 1) * np.pi / (n * dx), n)
    yield "no momentum overlap", WignerGrid(AxisGrid.centered(n, dx), p_axis, np.ones((n, n))), 2.0
    far = WignerGrid(AxisGrid(50.0, 60.0, 40), AxisGrid(-2.0, 3.0, 33), np.ones((40, 33)))
    yield "no position overlap", far, 2.0


@pytest.mark.filterwarnings("ignore:rescale mass drift")
@pytest.mark.parametrize("case", list(_rescale_cases()), ids=lambda case: case[0])
def test_rescale_matches_the_whole_array_code(case):
    # both branches: DFT-conjugate axes (exact momentum resampling) and the two spline passes
    _, w, lam = case
    got = rescale(w, lam)
    assert got.values.tobytes() == whole_rescale(w, lam).tobytes()
    assert got.imag_residual == w.imag_residual


GRID_512 = 512 * 512 * 8  # bytes of one 512 x 512 grid


def test_wigner_of_pure_stays_within_1_6_grids():
    # the real result and one row block of complex products, transformed in place
    psi = fock_state(1, default_axis(1.0, 512))
    assert _traced_peak(lambda: wigner_of_pure(psi)) <= 1.6 * GRID_512


def test_gaussian_and_bump_builds_stay_lean():
    # the result, evaluated by row blocks; the bump's normalising sum is over the whole grid
    axis = default_axis(1.0, 512)
    assert _traced_peak(lambda: wigner_gaussian([0, 0], np.diag([1.0, 0.25]), axis, axis)) \
        <= 1.5 * GRID_512
    for profile in ("cosine", "indicator"):
        assert _traced_peak(lambda: truncated_bump_grid(axis, axis, profile=profile)) \
            <= 2.5 * GRID_512


@pytest.mark.parametrize("count", [2, 3])
def test_mixture_stays_within_1_8_grids(count):
    # the real result, one row block of the summed kernel, transformed in
    # place, and one block of a further component's products
    axis = default_axis(1.0, 512, 10.0)
    parts = [(1 / count, fock_state(k, axis)) for k in range(count)]
    assert _traced_peak(lambda: mixture_wigner(parts)) <= 1.8 * GRID_512


@pytest.mark.parametrize("lam", [0.8, 1.2])
@pytest.mark.parametrize("conjugate", [True, False])
def test_rescale_stays_within_3_5_grids(conjugate, lam):
    # the result, the resampled or x-splined rows, their spline slopes and three
    # blocks of the evaluation; no full-grid gathers or FFT work arrays
    axis = default_axis(1.0, 512)
    p_axis = wigner_momentum_axis(axis) if conjugate else axis
    w = wigner_gaussian([0.3, -0.2], [[0.7, 0.2], [0.2, 0.4]], axis, p_axis)
    assert _is_wigner_conjugate(w) == conjugate
    assert _traced_peak(lambda: rescale(w, lam)) <= 3.5 * GRID_512


def test_no_build_and_moments_stay_lean(no_grid):
    # the N-O grid is one real product, its imaginary residual a second one
    # released before the grid is made; the moments read marginals and one |W|
    tracemalloc.start()
    try:
        narcowich_oconnell_grid(0.5, 0.5)
        build = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        cli._moments(no_grid, argparse.Namespace(tol_p4=cli.DEFAULT_P4_TOL))
        moments = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert build <= 2.5 * no_grid.values.nbytes
    assert moments <= 1.5 * no_grid.values.nbytes


def test_rescale_streams_its_rows(fock1_wigner):
    # the exact momentum resampling runs the chirp-z in row blocks: no full-grid
    # FFT work arrays, whose padded length is about twice the row; the spline
    # passes gather by blocks of target rows
    tracemalloc.start()
    try:
        rescale(fock1_wigner, 1.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * fock1_wigner.values.nbytes


def test_oracle_vacuum_projector(vacuum_wigner):
    for eigs in operator_spectrum_oracle(vacuum_wigner):
        assert eigs[0] == pytest.approx(1.0, abs=1e-4)
        assert np.abs(eigs[1:]).max() <= 1e-4


def test_oracle_mixture_spectrum(mixture_5050):
    for eigs in operator_spectrum_oracle(mixture_5050):
        assert eigs[0] == pytest.approx(0.5, abs=1e-3)
        assert eigs[1] == pytest.approx(0.5, abs=1e-3)
        assert np.abs(eigs[2:]).max() <= 1e-3


def test_oracle_sum_matches_trace(mixture_5050, no_grid):
    for w in (mixture_5050, no_grid):
        even, odd = operator_spectrum_oracle(w)
        assert (even.sum() + odd.sum()) / 2 == pytest.approx(trace(w), abs=1e-12)


def test_oracle_block_sums_split_the_trace_on_the_bump():
    # each block's diagonal holds every other x-row: alone it misses the trace,
    # the mean of the two holds every row once
    axis = default_axis()
    w = truncated_bump_grid(axis, axis, radius=1.0, profile="cosine")
    sums = [eigs.sum() for eigs in operator_spectrum_oracle(w)]
    assert (sums[0] + sums[1]) / 2 == pytest.approx(trace(w), abs=1e-12)
    assert all(abs(s - trace(w)) > 1e-6 for s in sums)


def test_oracle_rescaled_fock1_negative_two_grids():
    vals = []
    for count in (256, 512):
        w = wigner_of_pure(fock_state(1, default_axis(count=count)))
        low = oracle_min(rescale(w, 1.2))
        assert low <= -1e-3
        vals.append(low)
    assert 0.5 <= vals[0] / vals[1] <= 2.0


def test_marginal_property(fock1_psi, fock1_wigner):
    marginal = fock1_wigner.values.sum(axis=1) * fock1_wigner.p_axis.spacing
    assert np.abs(marginal - np.abs(fock1_psi.values) ** 2).max() <= 1e-5


def test_fourier_rotation_covariance():
    # the Wigner function of the transformed state is the original rotated
    # by 90 degrees: W_F(u, v) = W(-v, u); checked on an asymmetric state
    axis = default_axis()
    psi0, psi1 = fock_state(0, axis), fock_state(1, axis)
    sup = (psi0.values + psi1.values) / np.sqrt(2.0)
    psi = WaveFunctionGrid(axis, sup / np.sqrt(np.sum(np.abs(sup) ** 2) * axis.spacing))
    w = wigner_of_pure(psi)
    wf = wigner_of_pure(fourier_wavefunction(psi))
    n = axis.count
    i_idx = np.arange(n // 4, 3 * n // 4)
    j_idx = np.arange(0, n, 2)
    k_idx = n // 2 + 2 * (i_idx - n // 2)
    m_idx = n // 2 + (n // 2 - j_idx) // 2
    expected = w.values[np.ix_(m_idx, k_idx)].T
    got = wf.values[np.ix_(i_idx, j_idx)]
    assert np.abs(got - expected).max() <= 1e-5


def test_rescale_warns_when_mass_leaves_grid(vacuum_wigner):
    with pytest.warns(UserWarning, match="mass"):
        rescale(vacuum_wigner, 0.15)


def test_manifest_round_trip_inline(tmp_path, vacuum_wigner):
    path = tmp_path / "w.json"
    save_wigner_manifest(vacuum_wigner, path)
    back = load_wigner_manifest(path)
    assert back.x_axis == vacuum_wigner.x_axis
    assert back.p_axis == vacuum_wigner.p_axis
    assert np.array_equal(back.values, vacuum_wigner.values)


def test_inline_manifest_is_the_text_of_json_dumps(tmp_path):
    # written by row blocks, byte for byte what one json.dumps of the manifest gives:
    # an odd row count, a last block shorter than the others, and both signed zeros
    n = 2 * _CHUNK_ROWS + 45
    values = np.random.default_rng(4).normal(size=(n, 37))
    values[3, :4] = [0.0, -0.0, 1e-300, -5e-324]
    w = WignerGrid(AxisGrid(-3.0, 11.0, n), AxisGrid(-4.0, 6.0, 37), values, hbar=0.7)
    path = tmp_path / "w.json"
    save_wigner_manifest(w, path)
    manifest = {"x_axis": {"min": -3.0, "max": 11.0, "count": n},
                "p_axis": {"min": -4.0, "max": 6.0, "count": 37}, "hbar": 0.7,
                "values": values.tolist()}
    assert path.read_text() == json.dumps(manifest) + "\n"
    assert load_wigner_manifest(path).values.tobytes() == values.tobytes()


def test_inline_manifest_writer_stays_within_2_5_grids(tmp_path):
    # one block of rows as Python floats and JSON text at a time, not the whole grid
    w = wigner_of_pure(fock_state(1, default_axis(1.0, 512)))
    assert _traced_peak(lambda: save_wigner_manifest(w, tmp_path / "w.json")) <= 2.5 * GRID_512


def test_manifest_round_trip_csv(tmp_path, fock1_wigner):
    path = tmp_path / "w.json"
    save_wigner_manifest(fock1_wigner, path, csv_path=tmp_path / "w.csv")
    back = load_wigner_manifest(path)
    assert np.array_equal(back.values, fock1_wigner.values)
    assert back.hbar == fock1_wigner.hbar


def test_axis_validation():
    with pytest.raises(ValueError):
        AxisGrid(1.0, 0.0, 64)
    with pytest.raises(ValueError):
        AxisGrid(0.0, 1.0, 4)


def test_centered_axis_layout():
    axis = AxisGrid.centered(256, 0.0625)
    assert axis.points[128] == 0.0
    assert axis.spacing == pytest.approx(0.0625, rel=1e-14)
    assert (axis.min, axis.max) == (-8.0, 127 * 0.0625)
    assert default_axis(2.0, 128, 5.0) == AxisGrid.centered(128, 10.0 * np.sqrt(2.0) / 128)
    with pytest.raises(ValueError, match="count must be even"):
        AxisGrid.centered(255, 0.0625)


def test_gaussian_wavepacket_rates():
    psi = gaussian_wavepacket(2.0)
    assert psi.norm_squared() == pytest.approx(1.0, abs=1e-10)
    prob = np.abs(psi.values) ** 2 * psi.axis.spacing
    var = float((psi.axis.points**2 * prob).sum())
    assert var == pytest.approx(1.0 / (2 * 2.0), rel=1e-6)


def test_wigner_grid_rejects_bad_hbar_and_non_finite_values():
    axis = default_axis(count=64)
    good = np.zeros((64, 64))
    for bad in (np.nan, np.inf, -np.inf):
        vals = good.copy()
        vals[10, 20] = bad
        with pytest.raises(ValueError, match="finite"):
            WignerGrid(axis, axis, vals)
    for hbar in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="hbar must be positive"):
            WignerGrid(axis, axis, good, hbar)


@pytest.mark.parametrize("n,m,sign,s0,ds,t0,dt", [
    (64, 64, 1, -3.2, 0.1, -3.2, 0.1),       # even, square, centred
    (65, 64, -1, -3.2, 0.1, -6.4, 0.2),      # odd n
    (31, 97, 1, 0.4, 0.37, -11.0, 0.05),     # m > n, off-centre source
    (200, 51, -1, -2.0, 0.013, 1.5, 0.9),    # m < n, off-centre target
    (128, 300, 1, -7.5, 0.12, -5.0, 2 * 0.04 / 0.3),  # spacing 2*dx/hbar, hbar = 0.3
])
def test_chirp_sum_matches_direct_sum(n, m, sign, s0, ds, t0, dt):
    rng = np.random.default_rng(n + m)
    v = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    s = s0 + np.arange(n) * ds
    t = t0 + np.arange(m) * dt
    direct = v @ np.exp(sign * 1j * np.outer(s, t))
    got = _chirp_sum(v, s0, ds, t0, dt, m, sign)
    assert got.shape == (3, m)
    bound = 1e-12 * np.abs(v).sum(axis=1, keepdims=True)
    assert (np.abs(got - direct) <= bound).all()


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (4, 4), (5, 5), (9, 4), (6, 11), (64, 48)])
def test_boundary_band_sum_counts_each_band_entry_once(shape):
    a = np.random.default_rng(shape[0] * 100 + shape[1]).random(shape)
    band = np.zeros(shape, dtype=bool)
    band[:2, :] = band[-2:, :] = True
    band[:, :2] = band[:, -2:] = True
    got, whole = _boundary_band_sum(a, np.ones(shape[0]), np.zeros(shape[1]))
    assert got == pytest.approx(a[band].sum(), rel=1e-14)
    assert whole == pytest.approx(a.sum(), rel=1e-14)


def _dense_blocks(w):
    """The two same-parity kernel blocks by a direct momentum sum: entry
    (j, l) sums grid row (j+l)/2 against exp(i p (j-l) dx / hbar) dp."""
    n, d = w.x_axis.count, w.x_axis.spacing
    seps = np.arange(-(n - 1), n) * d
    rows = w.values @ (np.exp(1j * np.outer(w.p_axis.points, seps) / w.hbar) * w.p_axis.spacing)
    blocks = []
    for parity in (0, 1):
        j = np.arange(parity, n, 2)
        blocks.append(rows[(j[:, None] + j) // 2, j[:, None] - j + n - 1])
    return blocks


def test_kernel_matches_dense_quadrature(no_grid):
    rng = np.random.default_rng(3)
    grids = [no_grid]
    # off-centre, non-conjugate grids.  n rows pack into ceil(n/2): 17 into one
    # partial row block with an unpaired row, 130 into a full block and one
    # row more, 257 into two full blocks and an unpaired row
    for n, m in ((301, 250), (17, 20), (2 * _CHUNK_ROWS + 2, 97), (4 * _CHUNK_ROWS + 1, 64)):
        x_axis, p_axis = AxisGrid(-5.0, 6.0, n), AxisGrid(-4.0, 3.5, m)
        grids.append(WignerGrid(x_axis, p_axis, rng.normal(size=(n, m)), hbar=0.7))
        assert not _is_wigner_conjugate(grids[-1])
    for w in grids:
        bound = 1e-12 * np.abs(w.values).sum(axis=1).max() * w.p_axis.spacing
        for got, want in zip(kernel_from_wigner(w), _dense_blocks(w), strict=True):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= bound


def _dense_rescale(w, lam):
    """rescale on a DFT-conjugate grid with the momentum sum done densely."""
    xs, ps = w.x_axis.points, w.p_axis.points
    okx = (lam * xs >= xs[0]) & (lam * xs <= xs[-1])
    okp = (lam * ps >= ps[0]) & (lam * ps <= ps[-1])
    offs = np.arange(w.p_axis.count) - w.p_axis.count // 2
    a = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(w.values, axes=1), axis=1), axes=1)
    ph = np.exp(-2j * np.outer(offs * w.x_axis.spacing, lam * ps[okp]) / w.hbar)
    out = np.zeros_like(w.values)
    out[np.ix_(okx, okp)] = CubicSpline(xs, (a @ ph).real, axis=0)(lam * xs[okx])
    return lam**2 * out, np.abs(a).sum(axis=1).max(), int(okp.sum())


@pytest.mark.parametrize("n, hbar, lam, targets", [
    (128, 1.0, 1.5, 85), (128, 1.0, 1.2, 106), (128, 1.0, 0.8, 128), (96, 0.7, 1.3, 73),
])
def test_rescale_matches_dense_momentum_sum(n, hbar, lam, targets):
    # off-centre and rotated, so that no reflection of x or p maps it to itself
    x_axis = default_axis(hbar, count=n)
    sigma = hbar * np.array([[0.8, 0.3], [0.3, 0.5]])
    w = wigner_gaussian([0.4, -0.6], sigma, x_axis, wigner_momentum_axis(x_axis, hbar), hbar)
    dense, scale, m = _dense_rescale(w, lam)
    assert m == targets  # odd and even runs of momentum targets
    # the x spline mixes neighbouring rows with weights of total size < 2
    assert np.abs(rescale(w, lam).values - dense).max() <= 2e-12 * lam**2 * scale


def test_rescale_without_momentum_overlap_is_zero():
    n, dx = 64, 0.25
    x_axis = AxisGrid(-(n // 2) * dx, (n // 2 - 1) * dx, n)
    dp = np.pi / (n * dx)
    p_axis = AxisGrid(50.0, 50.0 + (n - 1) * dp, n)
    w = WignerGrid(x_axis, p_axis, np.full((n, n), 1.0 / (n * n * dx * dp)))
    with pytest.warns(UserWarning, match="mass drift"):
        out = rescale(w, 2.0)
    assert not out.values.any()


def test_symplectic_fourier_matches_complex_quadrature(no_grid, odd_offcentre_grid):
    # the folded quadrature against the plain sum over the whole grid, on an
    # even count and on an odd count whose axes are not centred on the origin
    pts = np.random.default_rng(5).normal(size=(9, 2)) * 2
    for w in (no_grid, odd_offcentre_grid):
        f = SymplecticFourier(w)
        X, P = np.meshgrid(w.x_axis.points, w.p_axis.points, indexing="ij")
        direct = np.array([(np.exp(1j * (p * X - P * x)) * w.values).sum()
                           for x, p in pts]) * w.cell_area
        assert np.abs(f(pts) - direct).max() <= 1e-14 * np.abs(w.values).sum() * w.cell_area
        assert f(pts[0]) == f(pts[:1])[0]


def test_symplectic_fourier_folds_by_row_blocks_bit_for_bit(no_grid, odd_offcentre_grid,
                                                           vacuum_wigner):
    # even counts (one and several row blocks), odd counts, and axes off the origin
    rng = np.random.default_rng(9)
    small = WignerGrid(AxisGrid(-2.0, 3.0, 17), AxisGrid(1.0, 4.0, 20), rng.normal(size=(17, 20)))
    for w in (no_grid, vacuum_wigner, odd_offcentre_grid, small):
        assert SymplecticFourier(w)._blocks.tobytes() == whole_symplectic_blocks(w).tobytes()


def test_fast_len_matches_next_fast_len():
    assert [_fast_len(n) for n in range(1, 5001)] == [scipy.fft.next_fast_len(n)
                                                      for n in range(1, 5001)]


def _spline_cases():
    rng = np.random.default_rng(11)
    xs = np.linspace(-3.2, 2.5, 41)
    yield "random", xs, rng.normal(size=(41, 7)), np.sort(rng.uniform(xs[0], xs[-1], 60))
    yield "knots", xs, rng.normal(size=(41, 3)), xs
    yield "last point", xs, rng.normal(size=(41, 2)), xs[[-1, -1, 0]]
    xs = np.cumsum(rng.uniform(0.8, 1.2, 41))
    yield "uneven knots", xs, rng.normal(size=(41, 5)), np.sort(rng.uniform(xs[0], xs[-1], 60))
    for n in (0, 1):
        w = wigner_of_pure(fock_state(n))
        xs = w.x_axis.points
        for lam in (0.9, 1.2, 1.5):
            ok = (lam * xs >= xs[0]) & (lam * xs <= xs[-1])
            yield f"fock{n} x{lam}", xs, w.values, lam * xs[ok]


@pytest.mark.parametrize("case", list(_spline_cases()), ids=lambda case: case[0])
def test_spline_at_is_bit_equal_to_cubic_spline(case):
    _, xs, y, t = case
    assert np.array_equal(_spline_at(xs, y, t), CubicSpline(xs, y, axis=0)(t))


@pytest.mark.parametrize("lam", [0.8, 1.1, 1.4])
def test_two_pass_rescale_matches_bivariate_spline(lam):
    # equal x and p axes are not DFT-conjugate, so rescale interpolates both
    axis = default_axis()
    w = wigner_gaussian([0.3, -0.2], [[0.7, 0.2], [0.2, 0.4]], axis, axis)
    xs = axis.points
    ok = (lam * xs >= xs[0]) & (lam * xs <= xs[-1])
    want = np.zeros_like(w.values)
    want[np.ix_(ok, ok)] = RectBivariateSpline(xs, xs, w.values, kx=3, ky=3)(lam * xs[ok],
                                                                             lam * xs[ok])
    got = rescale(w, lam).values / lam**2
    assert np.abs(got - want).max() <= 1e-12 * np.abs(w.values).max()
