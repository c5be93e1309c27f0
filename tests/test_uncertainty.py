import warnings

import numpy as np
import pytest

from conftest import check_williamson_criterion, random_spd, random_symplectic
from wigcheck import (AxisGrid, as_dict, check_quantum_psd, check_rs,
                      covariance_from_grid, default_axis, fock_state, hbar_sweep,
                      lambda_star, moment_p4, uncertainty_report, wigner_gaussian,
                      wigner_of_pure)
from wigcheck.states import WignerGrid


def test_covariance_vacuum(vacuum_wigner):
    cov = covariance_from_grid(vacuum_wigner)
    assert np.allclose(cov.sigma, 0.5 * np.eye(2), atol=1e-4)
    assert np.allclose(cov.mean, 0.0, atol=1e-6)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_covariance_fock_states(n):
    w = wigner_of_pure(fock_state(n, default_axis(extent=10.0)))
    cov = covariance_from_grid(w)
    assert np.allclose(cov.sigma, (2 * n + 1) / 2 * np.eye(2), atol=1e-3)


def test_covariance_of_equal_mixture(mixture_5050):
    # zero means, so the mixture covariance is the weight average: hbar * I
    cov = covariance_from_grid(mixture_5050)
    assert np.allclose(cov.sigma, np.eye(2), atol=1e-3)


def test_covariance_heavy_tail_warns():
    axis = default_axis()
    fat = wigner_gaussian(np.zeros(2), 9.0 * np.eye(2), axis, axis)
    with pytest.warns(UserWarning, match="tail"):
        covariance_from_grid(fat)


def test_covariance_gaussian_round_trip():
    axis = default_axis()
    sigma = np.array([[0.9, 0.25], [0.25, 0.6]])
    mean = np.array([0.4, -0.3])
    cov = covariance_from_grid(wigner_gaussian(mean, sigma, axis, axis))
    assert np.allclose(cov.sigma, sigma, atol=1e-4)
    assert np.allclose(cov.mean, mean, atol=1e-4)


def test_rs_saturation_passes():
    checks = check_rs(0.5 * np.eye(2), hbar=1.0)
    assert all(c.ok for c in checks)
    assert checks[0].margin == pytest.approx(0.0, abs=1e-12)


def test_rs_squeezed_below_bound_fails():
    hbar = 1.0
    checks = check_rs(0.5 * hbar * np.diag([1.0, 0.2]), hbar)
    assert not checks[0].ok
    assert checks[0].margin == pytest.approx(-0.8 * hbar**2 / 4, abs=1e-12)


def test_rs_correlated_equality_passes():
    hbar = 1.0
    sigma = 0.5 * hbar * np.array([[2.0, 1.0], [1.0, 1.0]])
    checks = check_rs(sigma, hbar)
    assert checks[0].ok
    assert checks[0].lhs == pytest.approx(checks[0].rhs, abs=1e-12)
    assert checks[0].lhs == pytest.approx(hbar**2 / 2)


def test_quantum_psd_boundary_and_failure():
    ok, min_eig = check_quantum_psd(0.5 * np.eye(2), 1.0)
    assert ok and min_eig == pytest.approx(0.0, abs=1e-12)
    ok, _ = check_quantum_psd(0.5 * np.diag([1.0, 0.9]), 1.0)
    assert not ok


def test_quantum_psd_fails_after_rescaling():
    sigma = 0.5 * np.eye(2) / 1.2**2
    ok, _ = check_quantum_psd(sigma, 1.0)
    assert not ok


def test_williamson_criterion_examples():
    ok, nu = check_williamson_criterion(0.5 * np.eye(2), 1.0)
    assert ok and nu == pytest.approx(0.5)
    ok, nu = check_williamson_criterion(1.5 * np.eye(2), 1.0)
    assert ok and nu == pytest.approx(1.5)


def test_criteria_agree_on_random_covariances():
    rng = np.random.default_rng(10)
    hbar = 1.0
    for _ in range(500):
        dim = 2 * int(rng.integers(1, 3))
        sigma = random_spd(rng, dim, lo=0.15, hi=1.5)
        psd_ok, min_eig = check_quantum_psd(sigma, hbar)
        will_ok, nu = check_williamson_criterion(sigma, hbar)
        if abs(nu - hbar / 2) <= 1e-10 * np.abs(sigma).max():
            continue
        assert psd_ok == will_ok


def test_rescale_covariance_examples():
    sigma = 0.5 * np.eye(2)
    assert np.array_equal(sigma / 1.0**2, sigma)
    assert np.allclose(sigma / 2.0**2, np.eye(2) / 8)


def test_rescale_covariance_grid_cross_check(fock1_wigner):
    from wigcheck import rescale
    lam = 1.3
    direct = covariance_from_grid(fock1_wigner).sigma / lam**2
    via_grid = covariance_from_grid(rescale(fock1_wigner, lam)).sigma
    assert np.allclose(direct, via_grid, atol=1e-3)


def test_lambda_star_values():
    assert lambda_star(0.5 * np.eye(2), 1.0) == pytest.approx(1.0, abs=1e-12)
    assert lambda_star(1.5 * np.eye(2), 1.0) == pytest.approx(np.sqrt(3.0), abs=1e-12)
    assert lambda_star(0.5 * np.diag([4.0, 1.0]), 1.0) == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_lambda_star_flags_failing_covariance():
    assert lambda_star(0.2 * np.eye(2), 1.0) < 1.0


@pytest.mark.parametrize("sigma", [np.diag([-1.5, -1.5]), np.diag([1.0, 0.0]), np.zeros((2, 2))])
def test_sigma_that_is_not_positive_definite_has_no_spectrum(sigma):
    # Sigma + i hbar J / 2 >= 0 implies Sigma >= 0, so the PSD test fails too
    rep = uncertainty_report(sigma)
    assert (rep.nu_min, rep.nu_max, rep.lambda_star) == (None, None, None)
    assert not rep.psd_ok and rep.verdict == "fail"
    assert lambda_star(sigma) is None


def test_lambda_star_matches_sweep():
    rng = np.random.default_rng(11)
    hbar = 1.0
    for _ in range(20):
        sigma = random_spd(rng, 2, lo=0.3, hi=1.5)
        star = lambda_star(sigma, hbar)
        for lam in np.linspace(0.5 * star, 1.5 * star, 11):
            ok, _ = check_quantum_psd(sigma / lam**2, hbar)
            if abs(lam - star) > 1e-9:
                assert ok == (lam < star)


def test_hbar_sweep_vacuum(vacuum_wigner):
    reports = hbar_sweep(vacuum_wigner, [0.5, 1.0, 1.5])
    verdicts = [r.verdict for r in reports]
    assert verdicts == ["pass", "pass", "fail"]
    # pass set is a down-set in hbar
    flips = [a == "pass" and b == "fail" for a, b in zip(verdicts, verdicts[1:])]
    assert sum(flips) <= 1


def test_psd_implies_rs():
    # necessity direction: the canonical criterion implies every pair inequality
    rng = np.random.default_rng(12)
    hbar = 1.0
    checked = 0
    for _ in range(500):
        dim = 2 * int(rng.integers(1, 3))
        sigma = random_spd(rng, dim, lo=0.2, hi=2.0)
        psd_ok, _ = check_quantum_psd(sigma, hbar)
        if psd_ok:
            checked += 1
            assert all(c.ok for c in check_rs(sigma, hbar))
    assert checked > 50


def test_one_mode_three_way_equivalence():
    rng = np.random.default_rng(13)
    hbar = 1.0
    for _ in range(1000):
        sigma = random_spd(rng, 2, lo=0.2, hi=1.2)
        det_ok = np.linalg.det(sigma) >= hbar**2 / 4
        rs_ok = all(c.ok for c in check_rs(sigma, hbar))
        psd_ok, min_eig = check_quantum_psd(sigma, hbar)
        if abs(np.linalg.det(sigma) - hbar**2 / 4) <= 1e-9:
            continue
        assert rs_ok == psd_ok == det_ok


def test_verdict_symplectically_invariant():
    rng = np.random.default_rng(14)
    hbar = 1.0
    for i in range(50):
        ndof = int(rng.integers(1, 3))
        sigma = random_spd(rng, 2 * ndof, lo=0.2, hi=1.2)
        S = random_symplectic(i, ndof)
        ok_a, _ = check_quantum_psd(sigma, hbar)
        ok_b, _ = check_quantum_psd(S.T @ sigma @ S, hbar)
        assert ok_a == ok_b


def test_two_mode_rs_weaker_than_psd():
    # the pair inequalities ignore x-x correlations entirely, so covariances
    # passing all of them can still fail the canonical criterion; record how
    # often a random search finds one
    hbar = 1.0
    sigma = np.diag([0.6, 0.6, 0.6, 0.6]).astype(float)
    sigma[0, 1] = sigma[1, 0] = 0.55
    assert all(c.ok for c in check_rs(sigma, hbar))
    psd_ok, _ = check_quantum_psd(sigma, hbar)
    assert not psd_ok

    rng = np.random.default_rng(15)
    found = 0
    for _ in range(300):
        s = random_spd(rng, 4, lo=0.4, hi=0.9)
        if all(c.ok for c in check_rs(s, hbar)):
            ok, _ = check_quantum_psd(s, hbar)
            if not ok:
                found += 1
    print(f"\nrandom search: {found}/300 covariances pass the pair "
          f"inequalities but fail the canonical criterion")


def test_uncertainty_report_fields(vacuum_wigner):
    cov = covariance_from_grid(vacuum_wigner)
    rep = uncertainty_report(cov.sigma, 1.0)
    assert rep.verdict == "pass" and rep.rs_ok
    assert rep.boundary  # vacuum saturates the bound
    assert rep.nu_min <= rep.nu_max
    assert rep.lambda_star == pytest.approx(1.0, abs=1e-10)
    d = as_dict(rep)
    assert d["verdict"] == "pass"
    assert len(d["rs"]) == 1


def _dense_moments(w):
    """Means, covariance and fourth momentum moment by full-grid Riemann sums,
    with the scales sum |W| |z|, sum |W| z.z and sum |W| p^4 of their round-off."""
    x, p, v, area = w.x_axis.points[:, None], w.p_axis.points[None, :], w.values, w.cell_area
    mx, mp = (x * v).sum() * area, (p * v).sum() * area
    sxx = (x * x * v).sum() * area - mx * mx
    spp = (p * p * v).sum() * area - mp * mp
    sxp = (x * p * v).sum() * area - mx * mp
    mag = np.abs(v) * area
    scales = [((np.abs(x) + np.abs(p)) * mag).sum(), ((x * x + p * p) * mag).sum(),
              (p**4 * mag).sum()]
    return np.array([mx, mp]), np.array([[sxx, sxp], [sxp, spp]]), (p**4 * v).sum() * area, scales


def _rotated_squeezed_grid():
    c, s = np.cos(1.1), np.sin(1.1)
    rot = np.array([[c, -s], [s, c]])
    # 200 and 170 points: neither axis is DFT-conjugate to the other
    return wigner_gaussian([0.7, -0.4], rot @ np.diag([2.5, 0.2]) @ rot.T,
                           AxisGrid(-9.0, 10.0, 200), AxisGrid(-7.0, 6.0, 170))


@pytest.mark.parametrize("name", ["fock1", "rotated-squeezed", "odd-offcentre", "no"])
def test_marginal_moments_match_dense_sums(name, fock1_wigner, odd_offcentre_grid, no_grid):
    w = {"fock1": fock1_wigner, "rotated-squeezed": _rotated_squeezed_grid(),
         "odd-offcentre": odd_offcentre_grid, "no": no_grid}[name]
    mean, sigma, p4, (scale1, scale2, scale4) = _dense_moments(w)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # p^4 has a heavy tail on the off-centre grid
        cov = covariance_from_grid(w)
        got_p4 = moment_p4(w)
    assert np.abs(cov.mean - mean).max() <= 1e-13 * scale1
    assert np.abs(cov.sigma - sigma).max() <= 1e-13 * scale2
    assert abs(got_p4 - p4) <= 1e-13 * scale4


@pytest.mark.parametrize("cell,in_band", [
    ((1, 192), True), ((128, 254), True), ((255, 5), True), ((0, 0), True),
    ((2, 192), False), ((128, 253), False)])
def test_moment_warnings_follow_the_boundary_band(vacuum_wigner, cell, in_band):
    # one cell of 1e-3 of the peak on the outer two rows or columns is a heavy
    # tail for both moments; the same cell one step further in is not
    values = vacuum_wigner.values.copy()
    values[cell] = 1e-3 * values.max()
    w = WignerGrid(vacuum_wigner.x_axis, vacuum_wigner.p_axis, values)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        covariance_from_grid(w)
        moment_p4(w)
    messages = [str(c.message) for c in caught]
    if in_band:
        assert messages == [
            "second moments may not have converged (heavy tail at the grid boundary)",
            "fourth moment may not have converged (heavy tail at the boundary)"]
    else:
        assert messages == []
