import warnings

import numpy as np
import pytest

from conftest import random_spd
from wigcheck import (capacity, compact_support_flag,
                      default_axis, fit_dominating_gaussian, fock_state,
                      gaussian_wavepacket, hardy_fit, rescale, domination_verdict,
                      truncated_bump_grid, wigner_gaussian, wigner_of_pure)
from wigcheck import domination
from wigcheck.cli import main
from wigcheck.domination import _binding_candidates
from wigcheck.states import AxisGrid, WaveFunctionGrid, WignerGrid


def _square_axis(count=256, extent=8.0):
    d = 2.0 * extent / count
    return AxisGrid(-(count // 2) * d, (count // 2 - 1) * d, count)


def _flat_bump_psi(width=0.25, axis=None):
    axis = axis or default_axis()
    vals = np.where(np.abs(axis.points) <= width, 1.0, 0.0).astype(complex)
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * axis.spacing)
    return WaveFunctionGrid(axis, vals)


def test_hardy_vacuum_boundary(vacuum_psi):
    fit = hardy_fit(vacuum_psi)
    assert fit.a == pytest.approx(1.0, rel=0.02)
    assert fit.b == pytest.approx(1.0, rel=0.02)
    assert abs(fit.product - 1.0) <= 0.05
    assert fit.verdict == "boundary"


def test_hardy_squeezed_rates():
    fit = hardy_fit(gaussian_wavepacket(2.0))
    assert fit.a == pytest.approx(2.0, rel=0.02)
    assert fit.b == pytest.approx(0.5, rel=0.02)
    assert fit.product == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("rate", [0.5, 1.0, 2.0, 4.0])
def test_hardy_gaussian_product_band(rate):
    fit = hardy_fit(gaussian_wavepacket(rate))
    assert 0.95 <= fit.product <= 1.05


def test_hardy_truncated_bump_inconsistent():
    fit = hardy_fit(_flat_bump_psi())
    assert fit.product > 1.0
    assert fit.verdict == "inconsistent_with_any_state"


def test_hardy_rejects_zero_input():
    axis = default_axis()
    with pytest.raises(ValueError):
        hardy_fit(WaveFunctionGrid(axis, np.zeros(axis.count, dtype=complex)))


def test_fit_vacuum(vacuum_wigner):
    cert = fit_dominating_gaussian(vacuum_wigner)
    assert cert.mu1 == pytest.approx(1.0, rel=0.02)
    assert cert.verdict == "boundary"
    assert cert.converged
    assert cert.C <= cert.c_max_factor * vacuum_wigner.values.max() * (1 + 1e-12)


def test_fit_rescaled_vacuum(vacuum_wigner):
    cert = fit_dominating_gaussian(rescale(vacuum_wigner, 1.5))
    assert cert.mu1 == pytest.approx(2.25, rel=0.05)
    assert cert.verdict == "not_a_wigner_distribution"


def test_fit_fock1_below_one(fock1_wigner):
    cert = fit_dominating_gaussian(fock1_wigner)
    assert 0 < cert.mu1 < 1.0
    assert cert.verdict == "compatible"


def test_fit_scaling_equivariance(vacuum_wigner):
    base = fit_dominating_gaussian(vacuum_wigner).mu1
    for lam in (1.25, 2.0):
        scaled = fit_dominating_gaussian(rescale(vacuum_wigner, lam)).mu1
        assert scaled == pytest.approx(lam**2 * base, rel=0.05)


def test_fit_domination_is_pointwise(vacuum_wigner):
    cert = fit_dominating_gaussian(vacuum_wigner)
    X, P = vacuum_wigner.meshgrid()
    quad = (cert.M[0, 0] * X * X + 2 * cert.M[0, 1] * X * P + cert.M[1, 1] * P * P)
    mask = vacuum_wigner.values >= cert.floor * vacuum_wigner.values.max()
    lhs = vacuum_wigner.values[mask] * np.exp(quad[mask] / vacuum_wigner.hbar)
    assert (lhs <= cert.C).all()


def test_fit_matches_gaussian_covariance():
    axis = _square_axis()
    sigma = np.array([[0.8, 0.3], [0.3, 0.5]])
    w = wigner_gaussian(np.zeros(2), sigma, axis, axis)
    cert = fit_dominating_gaussian(w)
    target = 0.5 * np.linalg.inv(sigma)
    assert np.abs(cert.M - target).max() / np.abs(target).max() <= 0.05
    fitted_sigma = 0.5 * np.linalg.inv(cert.M)
    assert np.abs(fitted_sigma - sigma).max() / np.abs(sigma).max() <= 0.05


def test_fit_certificate_spectrum_consistency(vacuum_wigner):
    cert = fit_dominating_gaussian(vacuum_wigner)
    from wigcheck import symplectic_spectrum
    assert np.allclose(cert.spectrum, symplectic_spectrum(cert.M))
    assert cert.mu1 == pytest.approx(cert.spectrum[0])


def test_domination_verdict_thresholds():
    assert domination_verdict(0.8) == "compatible"
    assert domination_verdict(1.0) == "boundary"
    assert domination_verdict(2.25) == "not_a_wigner_distribution"


def test_compact_support_flag_vacuum_false(vacuum_wigner):
    flag, diag = compact_support_flag(vacuum_wigner)
    assert not flag
    assert "reason" in diag


def test_compact_support_flag_fock1_false(fock1_wigner):
    flag, _ = compact_support_flag(fock1_wigner)
    assert not flag


def test_compact_support_bump_true_and_dominated():
    axis = _square_axis()
    w = truncated_bump_grid(axis, axis, radius=1.0, profile="indicator")
    flag, _ = compact_support_flag(w)
    assert flag
    cert = fit_dominating_gaussian(w, c_max_factor=10.0)
    assert cert.mu1 > 1.0
    assert cert.verdict == "not_a_wigner_distribution"


def test_fit_rejects_small_cap(vacuum_wigner):
    with pytest.raises(ValueError):
        fit_dominating_gaussian(vacuum_wigner, c_max_factor=0.5)


def test_capacity_of_fitted_certificates(vacuum_wigner, fock1_wigner, mixture_5050):
    # every grid that the spectrum oracle accepts must fit inside an
    # admissible envelope: capacity at least pi*hbar up to the fit bias
    for w in (vacuum_wigner, fock1_wigner, mixture_5050):
        cert = fit_dominating_gaussian(w)
        assert capacity(cert.M, w.hbar) >= np.pi * w.hbar * (1 - 0.02)


# --- binding-constraint reduction of the dominating fit --------------------

def _rotated(sigma, theta):
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.asarray(sigma) @ rot.T


def _single_value_grid():
    axis = _square_axis(64)
    vals = np.zeros((64, 64))
    vals[40, 37] = 1.0 / axis.spacing**2
    return WignerGrid(axis, axis, vals)


def _line_grid():
    # positive values on the diagonal x = p, a line through the origin
    axis = _square_axis(64)
    vals = np.diag(np.exp(-axis.points**2))
    return WignerGrid(axis, axis, vals / (vals.sum() * axis.spacing**2))


_NON_CONJUGATE_512 = AxisGrid(-9.0, 9.0, 512)

REDUCTION_GRIDS = {
    "gaussian-rotated-squeezed": lambda: wigner_gaussian(
        np.zeros(2), _rotated(np.diag([2.0, 0.125]), 0.4), _square_axis(128), _square_axis(128)),
    "fock2": lambda: wigner_of_pure(fock_state(2, default_axis(1.0, 256, 10.0))),
    "bump-indicator": lambda: truncated_bump_grid(_square_axis(), _square_axis(),
                                                  radius=1.0, profile="indicator"),
    "bump-cosine": lambda: truncated_bump_grid(_square_axis(), _square_axis(), radius=1.0),
    "gaussian-offset-512": lambda: wigner_gaussian(
        np.array([0.5, -0.3]), _rotated(np.diag([1.5, 0.6]), 1.1),
        _NON_CONJUGATE_512, _NON_CONJUGATE_512),
    "single-value": _single_value_grid,
    "line": _line_grid,
}
DEGENERATE = {"single-value", "line"}


def _constraints(w, c_max_factor=1.25, floor=1e-9):
    """The fit's constraint set, built as fit_dominating_gaussian builds it."""
    peak = w.values.max()
    X, P = w.meshgrid()
    mask = w.values >= floor * peak
    budget = w.hbar * (np.log(c_max_factor) - np.log(w.values[mask] / peak))
    return X[mask], P[mask], budget


def _min_ratio(M, zx, zp, budget):
    quad = M[0, 0] * (zx * zx) + M[0, 1] * (2.0 * zx * zp) + M[1, 1] * (zp * zp)
    live = quad > 0
    return np.min(budget[live] / quad[live])


@pytest.mark.parametrize("name", sorted(REDUCTION_GRIDS))
@pytest.mark.parametrize("c_max_factor", [1.0, 1.25, 10.0])
def test_binding_candidates_keep_the_minimum(name, c_max_factor):
    zx, zp, budget = _constraints(REDUCTION_GRIDS[name](), c_max_factor)
    keep = _binding_candidates(zx, zp, budget)
    if name in DEGENERATE:
        assert keep.all()
    elif c_max_factor > 1.0:
        # at c_max_factor 1 a Gaussian's scaled points all lie on one ellipse
        # and a flat top's budgets are all zero: every constraint is kept
        assert 0 < keep.sum() < keep.size // 4
    rng = np.random.default_rng(20070303)
    for _ in range(200):
        M = random_spd(rng, 2, lo=0.05, hi=20.0)
        assert _min_ratio(M, zx[keep], zp[keep], budget[keep]) == _min_ratio(M, zx, zp, budget)


@pytest.mark.parametrize("name", sorted(REDUCTION_GRIDS))
def test_fit_matches_full_constraint_reference(name, monkeypatch):
    w = REDUCTION_GRIDS[name]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cert = fit_dominating_gaussian(w)
        monkeypatch.setattr(domination, "_binding_candidates",
                            lambda zx, zp, budget: np.ones(zx.shape, dtype=bool))
        reference = fit_dominating_gaussian(w)
    assert repr(cert.to_dict()) == repr(reference.to_dict())


def test_fit_raises_when_the_binding_constraint_is_lost(vacuum_wigner, monkeypatch, capsys):
    # keeping only the inner disk drops the binding constraints at the mask
    # edge, so the fitted scale overshoots and C breaks the cap
    monkeypatch.setattr(domination, "_binding_candidates",
                        lambda zx, zp, budget: zx**2 + zp**2 < 4.0)
    with pytest.raises(ValueError, match="above the cap"):
        fit_dominating_gaussian(vacuum_wigner)
    assert main(["dominate", '{"type":"fock","n":0}']) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
