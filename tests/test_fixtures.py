import numpy as np
import pytest

from conftest import oracle_min, p4_series_reference
from wigcheck import (check_rs, covariance_from_grid, default_axis, moment_p4,
                      narcowich_oconnell_grid, trace, uncertainty_report, wigner_gaussian)
from wigcheck.fixtures import NO_COUNT, NO_EXTENT


def test_no_trace_and_reality(no_grid):
    assert trace(no_grid) == pytest.approx(1.0, abs=1e-3)
    assert no_grid.imag_residual <= 1e-8


def test_no_covariance_is_diag_alpha_beta():
    axis = default_axis(count=NO_COUNT, extent=NO_EXTENT)
    w = narcowich_oconnell_grid(0.7, 0.4, axis, axis)
    cov = covariance_from_grid(w)
    assert np.allclose(cov.sigma, np.diag([0.7, 0.4]), atol=1e-6)


def test_no_uncertainty_passes_at_default_params(no_grid):
    cov = covariance_from_grid(no_grid)
    ok = uncertainty_report(cov.sigma, 1.0).psd_ok
    assert ok
    assert all(c.ok for c in check_rs(cov.sigma, 1.0))


def test_no_p4_matches_series_reference(no_grid):
    beta = 0.5
    reference = p4_series_reference(0.5, beta)
    assert reference == pytest.approx(-24 * beta**2)
    value = moment_p4(no_grid)
    assert value == pytest.approx(reference, rel=0.02)
    assert value < 0


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (0.7, 0.5), (0.6, 0.9)])
def test_no_p4_negative_whenever_uncertainty_holds(alpha, beta):
    assert alpha * beta >= 0.25  # uncertainty-pass regime at hbar = 1
    axis = default_axis(count=NO_COUNT, extent=NO_EXTENT)
    w = narcowich_oconnell_grid(alpha, beta, axis, axis)
    assert moment_p4(w) < 0
    assert moment_p4(w) == pytest.approx(-24 * beta**2, rel=0.02)


def test_no_end_to_end_not_a_state(no_grid):
    # passes every second-moment criterion yet fails positivity outright
    cov = covariance_from_grid(no_grid)
    assert all(c.ok for c in check_rs(cov.sigma, 1.0))
    ok = uncertainty_report(cov.sigma, 1.0).psd_ok
    assert ok
    assert oracle_min(no_grid) < -1e-4
    assert moment_p4(no_grid) < 0


def test_no_grid_deterministic():
    axis = default_axis(count=640, extent=24.0)
    a = narcowich_oconnell_grid(0.5, 0.5, axis, axis)
    b = narcowich_oconnell_grid(0.5, 0.5, axis, axis)
    assert np.array_equal(a.values, b.values)


def test_no_rejects_unresolved_grid():
    axis = default_axis(count=128, extent=4.0)
    with pytest.raises(ValueError, match="tails"):
        narcowich_oconnell_grid(0.5, 0.5, axis, axis)


def test_no_rejects_bad_params():
    axis = default_axis(count=NO_COUNT, extent=NO_EXTENT)
    with pytest.raises(ValueError):
        narcowich_oconnell_grid(-0.5, 0.5, axis, axis)


def test_moment_p4_warns_on_heavy_tail():
    axis = default_axis()
    fat = wigner_gaussian(np.zeros(2), 9.0 * np.eye(2), axis, axis)
    with pytest.warns(UserWarning, match="converged"):
        moment_p4(fat)


def test_vacuum_p4_gaussian_moment(vacuum_wigner):
    # fourth moment of a centered Gaussian: 3 * sigma^4
    assert moment_p4(vacuum_wigner) == pytest.approx(0.75, abs=1e-3)


def _dense_no_grid(alpha, beta, axis, source_count=4096):
    """Narcowich-O'Connell grid by direct quadrature of the 1-d transforms, each
    profile on its own source range."""
    def transform(a):
        ext = 1.35 * (np.log(1e20) / a**2) ** 0.25
        source = np.linspace(-ext, ext, source_count)
        kernel = np.exp(-1j * np.outer(axis.points, source)) * (source[1] - source[0]) / (2 * np.pi)
        profile = np.exp(-a**2 * source**4)
        return kernel @ profile, kernel @ (source**2 * profile)

    (fa, fa2), (fb, fb2) = transform(alpha), transform(beta)
    vals = np.outer(fa, fb) - 0.5 * alpha * np.outer(fa2, fb) - 0.5 * beta * np.outer(fa, fb2)
    return vals.real


def test_no_grid_matches_direct_quadrature(no_grid):
    assert np.abs(no_grid.values - _dense_no_grid(0.5, 0.5, no_grid.x_axis)).max() <= 1e-13


def test_no_covariance_keeps_its_boundary_margin(no_grid):
    # criterion 8 sits exactly on the uncertainty boundary: the transform's
    # round-off must stay well inside the verdict's band, BOUNDARY_BAND * 0.5
    sigma = covariance_from_grid(no_grid).sigma
    assert np.abs(sigma - 0.5 * np.eye(2)).max() <= 1e-11
    report = uncertainty_report(sigma, 1.0)
    assert report.psd_ok and abs(report.psd_min_eigenvalue) <= 1e-11
