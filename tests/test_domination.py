import json
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from test_states import _dense_rescale
from wigcheck import (capacity, compact_support_flag, covariance_from_grid,
                      default_axis, fit_dominating_gaussian, fock_state,
                      gaussian_wavepacket, hardy_fit, rescale, domination_verdict,
                      truncated_bump_grid, wigner_gaussian, wigner_of_pure)
from wigcheck import domination
from wigcheck.cli import main
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


# --- the exact solver against references and on degenerate grids ----------

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


def _nelder_mead_fit(w, c_max_factor):
    """The multi-start Nelder-Mead fit the exact solver replaced: (M, converged).

    The shape of M is a unit-determinant lower-triangular factor, its scale
    t*(M) = min_i budget_i / z_i^T M z_i over every constraint.
    """
    zx, zp, budget = _constraints(w, c_max_factor)
    q_xx, q_xp, q_pp = zx * zx, 2.0 * zx * zp, zp * zp

    def t_star(params):
        s, c = params
        l11, l22 = np.exp(s), np.exp(-s)
        quad = l11 * l11 * q_xx + l11 * c * q_xp + (c * c + l22 * l22) * q_pp
        live = quad > 0
        return float(np.min(budget[live] / quad[live])) if live.any() else 0.0

    starts = [np.zeros(2)]
    try:
        m_cov = 0.5 * w.hbar * np.linalg.inv(covariance_from_grid(w).sigma)
        chol = np.linalg.cholesky(m_cov / np.sqrt(np.linalg.det(m_cov)))
        starts.append(np.array([np.log(chol[0, 0]), chol[1, 0]]))
    except (np.linalg.LinAlgError, ValueError):
        pass
    starts += [np.array([0.35, 0.0]), np.array([-0.35, 0.0]), np.array([0.0, 0.35])]
    best, params, ok = -np.inf, None, False
    for start in starts:
        res = minimize(lambda th: -t_star(th), start, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 500})
        if -res.fun > best:
            best, params, ok = -res.fun, res.x, bool(res.success)
    s, c = params
    chol = np.array([[np.exp(s), 0.0], [c, np.exp(-s)]])
    return best * (chol @ chol.T), ok and best > 0


def _dominates(w, cert):
    zx, zp, _ = _constraints(w, cert.c_max_factor, cert.floor)
    vals = w.values[w.values >= cert.floor * w.values.max()]
    M = cert.M
    quad = M[0, 0] * zx * zx + 2 * M[0, 1] * zx * zp + M[1, 1] * zp * zp
    return (vals * np.exp(quad / w.hbar)).max()


def _scaled_points(w, cert):
    """Budget-scaled points w_i = z_i / sqrt(b_i) of the fit's live constraints."""
    zx, zp, budget = _constraints(w, cert.c_max_factor, cert.floor)
    live = (budget > 0) & ((zx != 0) | (zp != 0))
    z = np.stack([zx[live], zp[live]], axis=1)
    return z, z / np.sqrt(budget[live])[:, None]


@pytest.mark.parametrize("name", sorted(REDUCTION_GRIDS))
@pytest.mark.parametrize("c_max_factor", [1.0, 1.25, 10.0])
def test_binding_candidates_keep_the_minimum(name, c_max_factor):
    # the contacts alone determine the fit: the solver on them returns the
    # same M, and M holds on every constraint of the grid
    w = REDUCTION_GRIDS[name]()
    cert = fit_dominating_gaussian(w, c_max_factor=c_max_factor)
    assert cert.converged
    if cert.unbounded or not cert.M.any():
        assert name in DEGENERATE or c_max_factor == 1.0
        return
    z, wpts = _scaled_points(w, cert)
    index = [int(np.flatnonzero((z == c).all(axis=1))[0]) for c in cert.contacts]
    values = np.einsum("ni,ij,nj->n", wpts, cert.M, wpts)
    assert values.max() <= 1 + 1e-12
    assert np.abs(values[index] - 1).max() <= 1e-12
    M, basis, exchanges = domination._lowner_john(wpts[index])
    assert sorted(basis) == list(range(len(index)))
    assert np.abs(M - cert.M).max() <= 1e-12 * np.abs(cert.M).max()
    assert 0 <= cert.n_evaluations <= domination.MAX_EXCHANGES
    assert abs(cert.duality_gap) <= domination.GAP_TOL


@pytest.mark.parametrize("name", sorted(REDUCTION_GRIDS))
def test_fit_matches_full_constraint_reference(name):
    # the Nelder-Mead search over every constraint that the solver replaced
    w = REDUCTION_GRIDS[name]()
    for c_max_factor in (1.0, 1.25, 10.0):
        cert = fit_dominating_gaussian(w, c_max_factor=c_max_factor)
        M_nm, nm_converged = _nelder_mead_fit(w, c_max_factor)
        assert cert.converged
        if cert.unbounded:
            # no maximizer exists: the simplex runs to its iteration cap
            assert name in DEGENERATE and not nm_converged
            continue
        mu_nm = np.sqrt(max(np.linalg.det(M_nm), 0.0))
        C_nm = _dominates(w, replace(cert, M=M_nm)) if M_nm.any() else w.values.max()
        assert cert.mu1 >= mu_nm * (1 - 1e-12)
        assert abs(cert.mu1 - mu_nm) <= 1e-10 * mu_nm
        assert cert.C == pytest.approx(C_nm, rel=1e-10)
        assert np.abs(cert.M - M_nm).max() <= 1e-10 * np.abs(M_nm).max()
        assert len(cert.contacts) in ((2, 3) if mu_nm > 0 else (1,))


def _brute_force_det(w):
    """Largest det M over the ellipses through every pair and triple of rows of w
    that contain all of them: pairs by M = (a a^T + b b^T)^-1, triples by the
    centred conic through the three."""
    i, j = np.triu_indices(len(w), 1)
    outer = w[:, :, None] * w[:, None, :]
    gram = outer[i] + outer[j]
    pairs = np.linalg.inv(gram[np.linalg.det(gram) > 1e-12 * np.abs(gram).max(axis=(1, 2)) ** 2])
    forms = np.stack([w[:, 0] ** 2, 2 * w[:, 0] * w[:, 1], w[:, 1] ** 2], axis=1)
    trip = np.array(list(combinations(range(len(w)), 3)), dtype=int).reshape(-1, 3)
    Q = forms[trip]
    Q = Q[np.abs(np.linalg.det(Q)) > 1e-12 * np.abs(Q).max(axis=(1, 2)) ** 3]
    m = np.linalg.solve(Q, np.ones(Q.shape[:2])[..., None])[..., 0]
    triples = np.stack([m[:, 0], m[:, 1], m[:, 1], m[:, 2]], axis=1).reshape(-1, 2, 2)
    cands = np.concatenate([pairs, triples])
    dets = np.linalg.det(cands)
    values = np.einsum("ni,kij,nj->kn", w, cands, w)
    # rounding of w^T M w is relative to its absolute terms
    scale = np.einsum("ni,kij,nj->kn", np.abs(w), np.abs(cands), np.abs(w))
    ok = (dets > 0) & (values <= 1 + 1e-12 * scale).all(axis=1)
    return dets[ok].max()


# multiples of 1e-5 in [-10, 10]; small integers come first, so lattice
# clouds with many cocircular and collinear points are tried too
_coordinate = st.integers(-10**6, 10**6).map(lambda k: k / 1e5)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(st.tuples(_coordinate, _coordinate), min_size=2, max_size=40))
def test_lowner_john_matches_brute_force(points):
    w = np.array(points)
    norm = np.hypot(w[:, 0], w[:, 1])
    assume(norm.min() > 1e-3)
    cross = w[:, None, 0] * w[None, :, 1] - w[:, None, 1] * w[None, :, 0]
    assume(np.abs(cross).max() > 1e-3 * norm.max() ** 2)
    M, basis, exchanges = domination._lowner_john(w)
    assert exchanges < domination.MAX_EXCHANGES
    values = np.einsum("ni,ij,nj->n", w, M, w)
    assert values.max() <= 1 + 1e-12
    assert np.abs(values[basis] - 1).max() <= 1e-9
    assert len(set(basis)) == len(basis) in (2, 3)
    assert np.linalg.det(M) == pytest.approx(_brute_force_det(w), rel=1e-9)
    assert domination._duality_gap(M, w[basis]) <= domination.GAP_TOL


@pytest.mark.parametrize("name", sorted(DEGENERATE))
@pytest.mark.parametrize("c_max_factor", [1.0, 1.25, 2.0, 10.0])
def test_degenerate_support_is_unbounded(name, c_max_factor):
    w = REDUCTION_GRIDS[name]()
    cert = fit_dominating_gaussian(w, c_max_factor=c_max_factor)
    assert cert.converged
    if name == "single-value" and c_max_factor == 1.0:
        # the one value sits at z != 0 with zero budget: M z = 0 forces det M = 0
        assert not cert.unbounded
        assert not cert.M.any() and cert.spectrum.tolist() == [0.0]
        assert cert.C == w.values.max() and cert.verdict == "compatible"
        return
    assert cert.unbounded and cert.duality_gap is None
    assert np.isfinite(cert.M).all()
    assert cert.mu1 == pytest.approx(2 * (1 + domination.VERDICT_BAND), rel=1e-12)
    assert cert.mu1 > 1 + domination.VERDICT_BAND
    assert cert.verdict == "not_a_wigner_distribution"
    # pointwise domination and the cap, up to rounding
    assert _dominates(w, cert) <= cert.C * (1 + 1e-12)
    assert cert.C <= c_max_factor * w.values.max() * (1 + 1e-12)
    assert len(cert.contacts) == 1
    report = json.loads(json.dumps(cert.to_dict(), allow_nan=False))
    assert report["unbounded"] is True and report["duality_gap"] is None


def test_zero_budget_away_from_the_origin_pins_the_fit():
    # a flat top at c_max_factor 1: W = C on a disk, so M z = 0 there
    w = REDUCTION_GRIDS["bump-indicator"]()
    cert = fit_dominating_gaussian(w, c_max_factor=1.0)
    assert not cert.M.any() and cert.mu1 == 0.0 and cert.C == w.values.max()
    assert cert.converged and not cert.unbounded and cert.duality_gap == 0.0
    zx, zp, budget = _constraints(w, 1.0)
    (x, p), = cert.contacts
    assert budget[(zx == x) & (zp == p)] == 0.0 and (x, p) != (0.0, 0.0)


def test_fit_is_stable_under_rounding_of_the_grid(vacuum_wigner):
    w = rescale(vacuum_wigner, 1.5)
    base = fit_dominating_gaussian(w)
    signs = np.random.default_rng(14).choice([-1.0, 1.0], w.values.shape)
    nudged = WignerGrid(w.x_axis, w.p_axis, w.values * (1 + 1.4e-15 * signs), w.hbar)
    cert = fit_dominating_gaussian(nudged)
    assert np.array_equal(cert.contacts, base.contacts)
    assert cert.n_evaluations == base.n_evaluations
    assert cert.mu1 == pytest.approx(base.mu1, rel=1e-13)
    assert cert.C == pytest.approx(base.C, rel=1e-13)
    assert np.abs(cert.M - base.M).max() <= 1e-13 * np.abs(base.M).max()
    # the momentum resampling of `rescale` done densely moves the grid by up
    # to 1.4e-15 absolute, which is ~1e-6 relative at the contacts (W ~ 1e-9
    # max W there): the contacts stay, the fit follows the values it binds to
    dense, _, _ = _dense_rescale(vacuum_wigner, 1.5)
    assert np.abs(dense - w.values).max() <= 2e-15
    cert = fit_dominating_gaussian(WignerGrid(w.x_axis, w.p_axis, dense, w.hbar))
    assert np.array_equal(cert.contacts, base.contacts)
    assert cert.n_evaluations == base.n_evaluations
    assert cert.mu1 == pytest.approx(base.mu1, rel=1e-9)


def test_fit_raises_when_the_solver_overshoots(vacuum_wigner, monkeypatch, capsys):
    # an envelope 1% tighter than the optimum breaks the cap at the contacts
    solve = domination._lowner_john

    def overshoot(w):
        M, basis, exchanges = solve(w)
        return 1.01 * M, basis, exchanges

    monkeypatch.setattr(domination, "_lowner_john", overshoot)
    with pytest.raises(ValueError, match="above the cap"):
        fit_dominating_gaussian(vacuum_wigner)
    assert main(["dominate", '{"type":"fock","n":0}']) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("psi", [
    fock_state(1),
    WaveFunctionGrid(AxisGrid(-3.1, 5.3, 301),
                     np.exp(-2 * (np.linspace(-3.1, 5.3, 301) - 0.7) ** 2
                            + 0.4j * np.linspace(-3.1, 5.3, 301)), hbar=0.7),
], ids=["fock1", "off-centre-odd"])
def test_hardy_transform_matches_dense_sum(psi, monkeypatch):
    # record the momentum amplitude hardy_fit computes, then sum it densely
    seen, chirp_sum = [], domination._chirp_sum

    def spy(*args, **kwargs):
        seen.append(chirp_sum(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(domination, "_chirp_sum", spy)
    hardy_fit(psi)
    xs = psi.axis.points
    dense = np.exp(-1j * np.outer(xs, xs) / psi.hbar) @ psi.values
    assert len(seen) == 1
    assert np.abs(seen[0] - dense).max() <= 1e-12 * np.abs(psi.values).sum()
