import json
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from conftest import benchmark_module, gaussian_wavepacket
from test_states import _dense_rescale, _traced_peak
from wigcheck import (as_dict, capacity, compact_support_flag, covariance_from_grid,
                      default_axis, fit_dominating_gaussian, fock_state,
                      hardy_fit, rescale, domination_verdict, symplectic_spectrum,
                      truncated_bump_grid, wigner_gaussian, wigner_of_pure)
from wigcheck import domination
from wigcheck.cli import main
from wigcheck.states import AxisGrid, WaveFunctionGrid, WignerGrid


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
    X, P = np.meshgrid(vacuum_wigner.x_axis.points, vacuum_wigner.p_axis.points,
                       indexing="ij")
    quad = (cert.M[0, 0] * X * X + 2 * cert.M[0, 1] * X * P + cert.M[1, 1] * P * P)
    mask = vacuum_wigner.values >= cert.floor * vacuum_wigner.values.max()
    lhs = vacuum_wigner.values[mask] * np.exp(quad[mask] / vacuum_wigner.hbar)
    assert (lhs <= cert.C).all()


def test_fit_matches_gaussian_covariance():
    axis = default_axis()
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
    axis = default_axis()
    w = truncated_bump_grid(axis, axis, radius=1.0, profile="indicator")
    flag, _ = compact_support_flag(w)
    assert flag
    cert = fit_dominating_gaussian(w, c_max_factor=10.0)
    assert cert.mu1 > 1.0
    assert cert.verdict == "not_a_wigner_distribution"


def _mask_support_flag(w):
    """`compact_support_flag` by full-grid masks: the |W| copy, the index
    arrays of the live values and the mask of everything outside the box."""
    absvals = np.abs(w.values)
    peak = absvals.max()
    diag = {"support_threshold": domination.SUPPORT_THRESHOLD,
            "margin_cells": domination.MARGIN_CELLS}
    if peak == 0:
        diag["reason"] = "grid is identically zero"
        return False, diag
    live = absvals > domination.SUPPORT_THRESHOLD * peak
    if not live.any():
        diag["reason"] = "no values above threshold"
        return False, diag
    li, lj = np.where(live)
    i0, i1, j0, j1 = int(li.min()), int(li.max()), int(lj.min()), int(lj.max())
    nx, np_ = absvals.shape
    margin = domination.MARGIN_CELLS
    diag["box"] = {"x": [i0, i1], "p": [j0, j1]}
    if not (i0 >= margin and j0 >= margin and i1 < nx - margin and j1 < np_ - margin):
        diag["reason"] = "support box touches the grid boundary"
        return False, diag
    outer = np.ones_like(absvals, dtype=bool)
    outer[max(i0 - margin, 0):min(i1 + margin, nx - 1) + 1,
          max(j0 - margin, 0):min(j1 + margin, np_ - 1) + 1] = False
    outer_max = float(absvals[outer].max()) if outer.any() else 0.0
    diag["outer_max_ratio"] = outer_max / peak
    flag = bool(outer_max <= domination.HARD_ZERO * peak)
    if not flag:
        diag["reason"] = "tail does not vanish outside the support box"
    return flag, diag


def _support_cases():
    axis = default_axis()
    cosine = truncated_bump_grid(axis, axis, radius=1.0)
    outlier = cosine.values.copy()
    outlier[20, 200] = 1e-12 * outlier.max()  # far outside the box, below the threshold
    filled = np.zeros((20, 20))
    filled[2:-2, 2:-2] = -1.0  # the inflated box is the whole grid: nothing outside
    wide = AxisGrid(-4.0, 4.0, 100), AxisGrid(-3.0, 5.0, 130)
    return {
        "cosine bump": cosine,
        "indicator bump": truncated_bump_grid(axis, axis, radius=1.0, profile="indicator"),
        "bump on unequal axes": truncated_bump_grid(*wide, radius=1.5),
        "gaussian": wigner_gaussian([0.5, -1.0], np.diag([1.0, 0.3]), axis, axis),
        "fock 1": wigner_of_pure(fock_state(1)),
        "bump touching the boundary": truncated_bump_grid(axis, axis, radius=7.95),
        "bump with an outlier": WignerGrid(axis, axis, outlier),
        "box filling the grid": WignerGrid(*[AxisGrid(-1.0, 1.0, 20)] * 2, filled),
        "all zero": WignerGrid(axis, axis, np.zeros((256, 256))),
    }


@pytest.mark.parametrize("name", list(_support_cases()))
def test_compact_support_flag_matches_the_mask_version(name):
    w = _support_cases()[name]
    assert compact_support_flag(w) == _mask_support_flag(w)


def test_fit_rejects_small_cap(vacuum_wigner):
    # a cap of 1, C = max W, would leave the peak's constraint no budget
    for cap in (0.5, 1.0):
        with pytest.raises(ValueError, match="c_max_factor must be finite and > 1"):
            fit_dominating_gaussian(vacuum_wigner, c_max_factor=cap)


@pytest.mark.parametrize("cap", [np.nan, np.inf])
def test_fit_rejects_non_finite_cap(vacuum_wigner, cap):
    with pytest.raises(ValueError, match="c_max_factor must be finite"):
        fit_dominating_gaussian(vacuum_wigner, c_max_factor=cap)


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
    axis = default_axis(count=64)
    vals = np.zeros((64, 64))
    vals[40, 37] = 1.0 / axis.spacing**2
    return WignerGrid(axis, axis, vals)


def _line_grid():
    # positive values on the diagonal x = p, a line through the origin
    axis = default_axis(count=64)
    vals = np.diag(np.exp(-axis.points**2))
    return WignerGrid(axis, axis, vals / (vals.sum() * axis.spacing**2))


_NON_CONJUGATE_512 = AxisGrid(-9.0, 9.0, 512)

REDUCTION_GRIDS = {
    "gaussian-rotated-squeezed": lambda: wigner_gaussian(
        np.zeros(2), _rotated(np.diag([2.0, 0.125]), 0.4),
        default_axis(count=128), default_axis(count=128)),
    "fock2": lambda: wigner_of_pure(fock_state(2, default_axis(1.0, 256, 10.0))),
    "bump-indicator": lambda: truncated_bump_grid(default_axis(), default_axis(),
                                                  radius=1.0, profile="indicator"),
    "bump-cosine": lambda: truncated_bump_grid(default_axis(), default_axis(), radius=1.0),
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
    X, P = np.meshgrid(w.x_axis.points, w.p_axis.points, indexing="ij")
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


def _farthest(w):
    """Index of the first row of w farthest from the origin: the solver's start."""
    return int(np.argmax((w * w).sum(axis=1)))


def _scaled_points(w, cert):
    """Budget-scaled points w_i = z_i / sqrt(b_i) of the fit's live constraints."""
    zx, zp, budget = _constraints(w, cert.c_max_factor, cert.floor)
    live = (zx != 0) | (zp != 0)
    z = np.stack([zx[live], zp[live]], axis=1)
    return z, z / np.sqrt(budget[live])[:, None]


@pytest.mark.parametrize("name", sorted(REDUCTION_GRIDS))
@pytest.mark.parametrize("c_max_factor", [1.25, 10.0])
def test_binding_candidates_keep_the_minimum(name, c_max_factor):
    # the contacts alone determine the fit: the solver on them returns the
    # same M, and M holds on every constraint of the grid
    w = REDUCTION_GRIDS[name]()
    cert = fit_dominating_gaussian(w, c_max_factor=c_max_factor)
    assert cert.converged
    if cert.unbounded:
        assert name in DEGENERATE
        return
    z, wpts = _scaled_points(w, cert)
    index = [int(np.flatnonzero((z == c).all(axis=1))[0]) for c in cert.contacts]
    values = np.einsum("ni,ij,nj->n", wpts, cert.M, wpts)
    assert values.max() <= 1 + 1e-12
    assert np.abs(values[index] - 1).max() <= 1e-12
    M, basis, exchanges = domination._lowner_john(wpts[index], _farthest(wpts[index]))
    assert sorted(basis) == list(range(len(index)))
    assert np.abs(M - cert.M).max() <= 1e-12 * np.abs(cert.M).max()
    assert 0 <= cert.n_evaluations <= domination.MAX_EXCHANGES
    assert abs(cert.duality_gap) <= domination.GAP_TOL


@pytest.mark.parametrize("name", sorted(REDUCTION_GRIDS))
def test_fit_matches_full_constraint_reference(name):
    # the Nelder-Mead search over every constraint that the solver replaced
    w = REDUCTION_GRIDS[name]()
    for c_max_factor in (1.25, 10.0):
        cert = fit_dominating_gaussian(w, c_max_factor=c_max_factor)
        M_nm, nm_converged = _nelder_mead_fit(w, c_max_factor)
        assert cert.converged
        if cert.unbounded:
            # no maximizer exists: the simplex runs to its iteration cap
            assert name in DEGENERATE and not nm_converged
            continue
        mu_nm = np.sqrt(max(np.linalg.det(M_nm), 0.0))
        C_nm = _dominates(w, replace(cert, M=M_nm))
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
    M, basis, exchanges = domination._lowner_john(w, _farthest(w))
    assert exchanges < domination.MAX_EXCHANGES
    values = np.einsum("ni,ij,nj->n", w, M, w)
    assert values.max() <= 1 + 1e-12
    assert np.abs(values[basis] - 1).max() <= 1e-9
    assert len(set(basis)) == len(basis) in (2, 3)
    assert np.linalg.det(M) == pytest.approx(_brute_force_det(w), rel=1e-9)
    assert domination._duality_gap(M, w[basis]) <= domination.GAP_TOL


@pytest.mark.parametrize("name", sorted(DEGENERATE))
@pytest.mark.parametrize("c_max_factor", [1.25, 2.0, 10.0])
def test_degenerate_support_is_unbounded(name, c_max_factor):
    w = REDUCTION_GRIDS[name]()
    cert = fit_dominating_gaussian(w, c_max_factor=c_max_factor)
    assert cert.converged
    assert cert.unbounded and cert.duality_gap is None
    assert np.isfinite(cert.M).all()
    assert cert.mu1 == pytest.approx(2 * (1 + domination.VERDICT_BAND), rel=1e-12)
    assert cert.mu1 > 1 + domination.VERDICT_BAND
    assert cert.verdict == "not_a_wigner_distribution"
    # pointwise domination and the cap, up to rounding
    assert _dominates(w, cert) <= cert.C * (1 + 1e-12)
    assert cert.C <= c_max_factor * w.values.max() * (1 + 1e-12)
    assert len(cert.contacts) == 1
    report = json.loads(json.dumps(as_dict(cert), allow_nan=False))
    assert report["unbounded"] is True and report["duality_gap"] is None


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
    # the momentum pass of `rescale` below 1 done densely moves the vacuum x0.9 grid
    # by up to 4e-15 absolute, ~1e-6 relative at the contacts (W ~ 1e-9 max W there):
    # the fit follows the values it binds to, at the same contacts up to the grid's
    # mirror symmetry, which picks among equal contacts by round-off
    w = rescale(vacuum_wigner, 0.9)
    base = fit_dominating_gaussian(w)
    dense, _ = _dense_rescale(vacuum_wigner, 0.9)
    assert np.abs(dense - w.values).max() <= 5e-15
    cert = fit_dominating_gaussian(WignerGrid(w.x_axis, w.p_axis, dense, w.hbar))
    assert np.allclose(sorted(map(tuple, np.abs(cert.contacts))),
                       sorted(map(tuple, np.abs(base.contacts))), rtol=1e-12, atol=0)
    assert cert.n_evaluations == base.n_evaluations
    assert cert.mu1 == pytest.approx(base.mu1, rel=1e-9)


def test_fit_raises_when_the_solver_overshoots(vacuum_wigner, monkeypatch, capsys):
    # an envelope 1% tighter than the optimum breaks the cap at the contacts
    solve = domination._lowner_john

    def overshoot(w, a):
        M, basis, exchanges = solve(w, a)
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


# --- the streamed fit against the whole-array fit ---------------------------

def _whole_lowner_john(w):
    """_lowner_john with every constraint's forms, r and excess held at once."""
    q = domination._forms(w)
    slack = np.abs(q) * domination.CONTACT_TOL
    a = int(np.argmax(q[:, 0] + q[:, 2]))
    b = int(np.argmax(np.abs(w[a, 0] * w[:, 1] - w[a, 1] * w[:, 0])))
    basis, m = [a, b], domination._through(w[[a, b]])
    for exchanges in range(domination.MAX_EXCHANGES + 1):
        r = q @ m
        excess = r - slack @ np.abs(m)
        k = int(np.argmax(excess))
        if excess[k] <= 1.0 or exchanges == domination.MAX_EXCHANGES:
            m = m / r.max()
            return np.array([[m[0], m[1]], [m[1], m[2]]]), basis, exchanges
        rows, best = q[basis + [k]], -np.inf
        for sub in [*combinations(basis, 1), *combinations(basis, 2)]:
            cand = domination._through(w[[*sub, k]])
            cand = cand / max(1.0, float((rows @ cand).max()))
            det = cand[0] * cand[2] - cand[1] * cand[1]
            if cand[0] > 0 and det > best:
                best, m, new = det, cand, [*sub, k]
        basis = new


def _whole_line_envelope(w, mu):
    if not len(w):
        return mu * np.eye(2), []
    norm2 = (w * w).sum(axis=1)
    a = int(np.argmax(norm2))
    if (np.abs(w[a, 0] * w[:, 1] - w[a, 1] * w[:, 0]) > domination.LINE_SIN
            * np.sqrt(norm2[a] * norm2)).any():
        return None
    normal = np.array([-w[a, 1], w[a, 0]])
    M = np.outer(w[a], w[a]) / norm2[a] ** 2 + mu * mu * np.outer(normal, normal)
    return M / max(1.0, float((domination._forms(w) @ M[[0, 0, 1], [0, 1, 1]]).max())), [a]


def _whole_array_fit(w, c_max_factor):
    """fit_dominating_gaussian over whole-grid arrays of the constraints:
    (M, C, spectrum, contacts, n_constraints, exchanges, duality gap, unbounded)."""
    peak = w.values.max()
    i, j = np.nonzero(w.values >= domination.FIT_FLOOR * peak)
    z = np.stack([w.x_axis.points[i], w.p_axis.points[j]], axis=1)
    vals = w.values[i, j]
    budget = w.hbar * (np.log(c_max_factor) - np.log(vals / peak))
    live = np.flatnonzero((z != 0).any(axis=1))
    wpts = z[live] / np.sqrt(budget[live])[:, None]
    exchanges, unbounded = 0, False
    line = _whole_line_envelope(wpts, 2.0 * (1.0 + domination.VERDICT_BAND))
    if line is not None:
        (M, basis), unbounded, gap = line, True, None
    else:
        M, basis, exchanges = _whole_lowner_john(wpts)
        gap = domination._duality_gap(M, wpts[basis])
    C = float((vals * np.exp(domination._forms(z) @ M[[0, 0, 1], [0, 1, 1]] / w.hbar)).max())
    return (M, C, symplectic_spectrum(M), z[live[basis]], len(vals), exchanges, gap,
            unbounded)


def _three_point_grid():
    # three positive values off one line: the fewest constraints with a bounded fit
    axis = default_axis(count=64)
    vals = np.zeros((64, 64))
    vals[40, 37] = vals[20, 33] = vals[35, 12] = 1.0 / (3 * axis.spacing**2)
    return WignerGrid(axis, axis, vals)


def _eight_point_grid():
    # eight positive values at cells drawn at random, none of them the origin:
    # blocks of 7 points leave one in the last block
    axis = default_axis(count=64)
    rng = np.random.default_rng(73)
    cells, vals = rng.choice(64 * 64, 8, replace=False), np.zeros((64, 64))
    vals.flat[cells] = rng.uniform(0.5, 1.0, 8)
    return WignerGrid(axis, axis, vals)


def _origin_grid(*cells):
    # the origin of a centred axis, and `cells` (offsets from it) at half its
    # value: with none, C is the origin's W; with one, a one-line fit
    axis = default_axis(count=64)
    vals = np.zeros((64, 64))
    vals[32, 32] = 1.0
    for dx, dp in cells:
        vals[32 + dx, 32 + dp] = 0.5
    return WignerGrid(axis, axis, vals / (vals.sum() * axis.spacing**2))


def _manifest_grids():
    workloads = benchmark_module("workloads")
    axis = AxisGrid.from_dict(workloads.MANIFEST_AXIS)
    return {f"manifest {m.case.name}": WignerGrid(axis, axis, m.values)
            for m in workloads.manifest_inputs(Path("."))}


def _fit_cases(vacuum_wigner, fock1_wigner, mixture_5050):
    axis = default_axis()
    return {"vacuum": vacuum_wigner, "fock01 mixture": mixture_5050,
            "squeezed": wigner_gaussian([0, 0], np.diag([1.0, 0.25]), axis, axis),
            "fock1 x1.2": rescale(fock1_wigner, 1.2), "vacuum x1.5": rescale(vacuum_wigner, 1.5),
            "bump": truncated_bump_grid(axis, axis, radius=1.0),
            "three points": _three_point_grid(), "eight points": _eight_point_grid(),
            "origin": _origin_grid(), "origin and one point": _origin_grid((4, 6)),
            **{name: REDUCTION_GRIDS[name]() for name in ("bump-indicator", *sorted(DEGENERATE))},
            **_manifest_grids()}


def _assert_same_fit(w, c_max_factor):
    cert = fit_dominating_gaussian(w, c_max_factor=c_max_factor)
    M, C, spectrum, contacts, n_constraints, exchanges, gap, unbounded = _whole_array_fit(
        w, c_max_factor)
    for got, want in ((cert.M, M), (cert.spectrum, spectrum), (cert.contacts, contacts)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert (cert.C, cert.n_constraints, cert.n_evaluations) == (C, n_constraints, exchanges)
    assert (cert.duality_gap, cert.unbounded) == (gap, unbounded)
    return cert


@pytest.mark.parametrize("c_max_factor", [1.25, 10.0])
def test_streamed_fit_is_the_whole_array_fit(no_grid, vacuum_wigner, fock1_wigner, mixture_5050,
                                             c_max_factor):
    # the constraints stream by row blocks and the solver's passes by point
    # blocks; every number of the certificate stays bit for bit
    kinds = set()
    cases = _fit_cases(vacuum_wigner, fock1_wigner, mixture_5050)
    for w in [no_grid, *cases.values()]:
        cert = _assert_same_fit(w, c_max_factor)
        kinds.add("unbounded" if cert.unbounded else "fit")
    assert kinds == {"fit", "unbounded"}


def test_streamed_fit_with_tiny_blocks(vacuum_wigner, fock1_wigner, mixture_5050, monkeypatch):
    # blocks of a few rows and points: argmax ties and contacts across block edges.
    # No pass reads a block of one point (numpy rounds a one-row product as a
    # dot), and the origin's index, held last, keeps its W in the re-check of C
    # and that re-check beside one other point a product of two rows
    monkeypatch.setattr(domination, "_CHUNK_ROWS", 3)
    monkeypatch.setattr(domination, "_POINT_BLOCK", 7)
    cases = _fit_cases(vacuum_wigner, fock1_wigner, mixture_5050)
    for name in ("vacuum", "fock1 x1.2", "squeezed", "three points", "eight points", "origin",
                 "origin and one point", "line", "bump-indicator"):
        for c_max_factor in (1.25, 10.0):
            _assert_same_fit(cases[name], c_max_factor)


def test_fit_memory_stays_within_1_3_grids(no_grid):
    # held: the scaled points and their grid indices; streamed: everything else
    assert _traced_peak(lambda: fit_dominating_gaussian(no_grid)) <= 1.3 * no_grid.values.nbytes
