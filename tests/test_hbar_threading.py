"""End-to-end checks at hbar != 1: every convention must carry the scale."""

import numpy as np
import pytest

from conftest import oracle_min
from wigcheck import (SymplecticFourier, covariance_from_grid, default_axis,
                      fit_dominating_gaussian, fock_state, klm_check, operator_spectrum_oracle,
                      rescale, trace, uncertainty_report, wigner_of_pure)


@pytest.fixture(scope="module")
def vacuum_hbar2():
    return wigner_of_pure(fock_state(0, default_axis(hbar=2.0), hbar=2.0))


def test_vacuum_trace_and_peak(vacuum_hbar2):
    assert trace(vacuum_hbar2) == pytest.approx(1.0, abs=1e-6)
    mid = vacuum_hbar2.x_axis.count // 2
    assert vacuum_hbar2.values[mid, mid] == pytest.approx(1 / (2 * np.pi), abs=1e-4)


def test_vacuum_covariance_scales(vacuum_hbar2):
    cov = covariance_from_grid(vacuum_hbar2)
    assert np.allclose(cov.sigma, np.eye(2), atol=1e-4)
    assert uncertainty_report(cov.sigma, 2.0).lambda_star == pytest.approx(1.0, abs=1e-10)


def test_vacuum_transform_scales(vacuum_hbar2):
    # Gaussian integral gives exp(-hbar |z|^2 / 4)
    f = SymplecticFourier(vacuum_hbar2)
    pts = np.array([[0.7, 0.0], [0.5, -0.8]])
    expected = np.exp(-2.0 * np.sum(pts**2, axis=1) / 4)
    assert np.abs(f(pts) - expected).max() <= 1e-4


def test_vacuum_oracle_and_klm(vacuum_hbar2):
    for eigs in operator_spectrum_oracle(vacuum_hbar2):
        assert eigs[0] == pytest.approx(1.0, abs=1e-4)
        assert np.abs(eigs[1:]).max() <= 1e-4
    report = klm_check(vacuum_hbar2, seed=0)
    assert report.overall == "no_violation_found"
    assert all(rec.worst_min_eigenvalue >= -1e-8 for rec in report.orders)


def test_vacuum_domination_scales(vacuum_hbar2):
    cert = fit_dominating_gaussian(vacuum_hbar2)
    assert cert.mu1 == pytest.approx(1.0, rel=0.02)


def test_rescaled_vacuum_fails_everything(vacuum_hbar2):
    w = rescale(vacuum_hbar2, 1.5)
    ok = uncertainty_report(covariance_from_grid(w).sigma, 2.0).psd_ok
    assert not ok
    assert oracle_min(w) < -1e-3
    report = klm_check(w, seed=0)
    assert report.overall == "violation_certificate"
