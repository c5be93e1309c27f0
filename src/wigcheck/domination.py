"""Gaussian decay-envelope fits and the necessity verdict they support.

Two fits are provided.  `hardy_fit` bounds a wavefunction and its Fourier
transform by Gaussians exp(-a x^2 / 2 hbar) and exp(-b p^2 / 2 hbar); for
any nonzero state the fitted rates must satisfy a*b <= 1, with equality
only for Gaussians.  `fit_dominating_gaussian` bounds a Wigner grid by
C exp(-M z.z / hbar) while maximizing the largest symplectic eigenvalue
mu_1 of M; a certified mu_1 > 1 proves the grid is not the Wigner
distribution of any density operator.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import ConvexHull, QhullError

from .states import trace
from .symplectic import symplectic_spectrum
from .uncertainty import covariance_from_grid

__all__ = [
    "HardyFit",
    "hardy_fit",
    "DominationCertificate",
    "fit_dominating_gaussian",
    "domination_verdict",
    "compact_support_flag",
]

RATE_CAP = 1e6
VERDICT_BAND = 0.02
HARDY_BAND = 0.05
# relative gauge slack of the binding-constraint reduction: a dropped
# constraint is at least (1 - HULL_SLACK)^-2 - 1 ~ 2e-6 looser than the
# binding one, far above the ~1e-15 rounding of the ratios it is compared by
HULL_SLACK = 1e-6
# rounding allowance of the pointwise re-check of the fitted envelope
DOMINATION_RTOL = 1e-9


@dataclass
class HardyFit:
    """Gaussian decay rates of a wavefunction / Fourier-transform pair."""

    a: float
    b: float
    C: float
    product: float
    verdict: str
    tail_start_x: float
    tail_start_p: float

    def to_dict(self):
        return {"a": self.a, "b": self.b, "C": self.C, "product": self.product,
                "verdict": self.verdict, "tail_start_x": self.tail_start_x,
                "tail_start_p": self.tail_start_p}


def _decay_rate(xs, amp, hbar, tail_start, cap_factor, floor=1e-13):
    """Largest rate r with |f(x)| <= C exp(-r x^2 / 2 hbar) on the grid.

    The rate is anchored at C equal to the peak amplitude, fitted over the
    tail region, then limited so that the implied C never exceeds
    cap_factor * peak anywhere.  Returns (rate, minimal valid C).
    """
    peak = amp.max()
    nz = amp > floor * peak
    live = nz & (np.abs(xs) > 0)
    if not live.any():
        return RATE_CAP, float(peak)
    log_ratio = np.full_like(amp, np.inf)
    log_ratio[live] = np.log(peak / amp[live])
    x2 = xs**2 / (2 * hbar)

    tail = live & (np.abs(xs) >= tail_start)
    if tail.any():
        anchored = float(np.min(log_ratio[tail] / x2[tail]))
    else:
        anchored = RATE_CAP
    capped = float(np.min((np.log(cap_factor) + log_ratio[live]) / x2[live]))
    rate = min(anchored, capped, RATE_CAP)
    c_needed = peak * float(np.exp(np.max(np.log(amp[nz] / peak) + rate * x2[nz])))
    return rate, max(c_needed, peak)


def hardy_fit(psi, cap_factor=10.0):
    """Fit Gaussian decay rates for a wavefunction and its Fourier transform.

    The transform is evaluated on the mirror of the position axis by direct
    quadrature, so both branches are fitted over the same physical range.
    Verdict: "consistent" (a*b < 1), "boundary" (a*b ~ 1, Gaussian states),
    or "inconsistent_with_any_state" (a*b > 1, impossible for nonzero psi).
    """
    xs = psi.axis.points
    amp = np.abs(psi.values)
    if amp.max() == 0:
        raise ValueError("wavefunction is identically zero")
    hbar = psi.hbar
    d = psi.axis.spacing

    prob = amp**2 * d
    mean = float((xs * prob).sum())
    var = float(((xs - mean) ** 2 * prob).sum())
    tail_x = 2.0 * np.sqrt(var)

    kernel = np.exp(-1j * np.outer(xs, xs) / hbar)
    phi = np.abs(kernel @ psi.values) * d / np.sqrt(2 * np.pi * hbar)
    prob_p = phi**2 * d
    prob_p = prob_p / prob_p.sum()
    mean_p = float((xs * prob_p).sum())
    var_p = float(((xs - mean_p) ** 2 * prob_p).sum())
    tail_p = 2.0 * np.sqrt(var_p)

    # whatever amplitude the state still has at the grid edge shows up as a
    # truncation-noise floor in the quadrature transform; do not fit below it
    edge = float(max(amp[0], amp[-1]) / amp.max())
    if edge > 1e-8:
        warnings.warn(f"wavefunction tail truncated at the grid edge (ratio {edge:.1e}); "
                      "transform decay rate may be underestimated")

    a, ca = _decay_rate(xs, amp, hbar, tail_x, cap_factor)
    b, cb = _decay_rate(xs, phi, hbar, tail_p, cap_factor,
                        floor=max(1e-13, 5.0 * edge))
    product = a * b
    if product > 1.0 + HARDY_BAND:
        verdict = "inconsistent_with_any_state"
    elif product < 1.0 - HARDY_BAND:
        verdict = "consistent"
    else:
        verdict = "boundary"
    return HardyFit(a, b, max(ca, cb), product, verdict, tail_x, tail_p)


@dataclass
class DominationCertificate:
    """Result of the dominating-Gaussian fit W(z) <= C exp(-M z.z / hbar)."""

    M: np.ndarray
    C: float
    spectrum: np.ndarray
    mu1: float
    verdict: str
    hbar: float
    c_max_factor: float
    floor: float
    n_constraints: int
    converged: bool
    n_evaluations: int

    def to_dict(self):
        return {
            "M": self.M.tolist(),
            "C": self.C,
            "spectrum": self.spectrum.tolist(),
            "mu1": self.mu1,
            "verdict": self.verdict,
            "hbar": self.hbar,
            "c_max_factor": self.c_max_factor,
            "floor": self.floor,
            "n_constraints": self.n_constraints,
            "converged": self.converged,
            "n_evaluations": self.n_evaluations,
        }


def domination_verdict(mu1, band=VERDICT_BAND):
    """Necessity verdict from the largest symplectic eigenvalue of the fit.

    mu_1 below 1 is compatible with a state, mu_1 above 1 certifies that no
    density operator has a Wigner distribution with this envelope; values
    within `band` of 1 are reported as boundary (tight Gaussian states).
    """
    if mu1 > 1.0 + band:
        return "not_a_wigner_distribution"
    if mu1 < 1.0 - band:
        return "compatible"
    return "boundary"


def _binding_candidates(zx, zp, budget):
    """Mask of the constraints that can bind for some positive-definite M.

    Constraint i reads z_i^T M z_i <= budget_i, i.e. w_i^T M w_i <= 1 with
    w_i = z_i / sqrt(budget_i).  A positive-definite quadratic form is
    convex and even, so its maximum over the points lies on a vertex of the
    convex hull of {+w_i, -w_i}.  A point of gauge g against that hull has
    w^T M w <= g^2 * max, so every point with g < 1 - HULL_SLACK is dropped.
    The gauge is read off the one hull edge in the point's angular sector.
    Constraints with zero budget are always kept; all are kept when the
    points do not span the plane (Qhull needs three non-collinear points).
    """
    keep = budget <= 0
    live = ~keep
    scale = 1.0 / np.sqrt(budget[live])
    wx, wp = zx[live] * scale, zp[live] * scale
    pts = np.stack([wx, wp], axis=1)
    try:
        hull = ConvexHull(np.concatenate([pts, -pts]))
    except (QhullError, ValueError):  # ValueError: no point with a budget at all
        return np.ones_like(keep)
    verts = hull.points[hull.vertices]
    angles = np.arctan2(verts[:, 1], verts[:, 0])
    order = np.argsort(angles)
    a, angles = verts[order], angles[order]
    b = np.roll(a, -1, axis=0)
    # edge k runs from a[k] to a[k+1] counter-clockwise; n . w / n . a[k] is
    # the gauge of any w in that edge's sector
    nx, np_ = b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]
    offset = nx * a[:, 0] + np_ * a[:, 1]
    sector = np.searchsorted(angles, np.arctan2(wp, wx), side="right") - 1
    gauge = (nx[sector] * wx + np_[sector] * wp) / offset[sector]
    keep[live] = gauge >= 1.0 - HULL_SLACK
    return keep


def fit_dominating_gaussian(w, c_max_factor=1.25, floor=1e-9, band=VERDICT_BAND):
    """Tightest dominating Gaussian of a Wigner grid, maximizing mu_1(M).

    The shape of M is parametrized by a unit-determinant lower-triangular
    square-root factor and optimized with a multi-start Nelder-Mead simplex;
    for each shape the overall scale is resolved exactly by the binding
    constraint, with C limited to c_max_factor times the grid maximum.
    Constraints use the points with W >= floor * max(W): negative values
    satisfy any Gaussian bound, and values under the floor are below the
    quadrature noise of grid-built states.

    The scale t*(M) = min_i budget_i / z_i^T M z_i is searched over the few
    constraints that can bind at all (`_binding_candidates`): those whose
    scaled point w_i = z_i / sqrt(budget_i) has gauge at least 1 - HULL_SLACK
    against the convex hull of {+w_i, -w_i}.  Any other constraint's ratio
    exceeds the minimum by a factor of at least (1 - HULL_SLACK)^-2, so it
    can never be the floating-point minimum: t* is the same float on the
    reduced set for every M, the simplex takes the same path and the
    certificate is bit-identical to a fit over all constraints.  C and the
    domination check run over the full constraint set; the check raises
    ValueError if C exceeds c_max_factor * max(W) beyond rounding.
    """
    if abs(trace(w) - 1.0) > 1e-3:
        warnings.warn("dominating fit on a grid without unit trace")
    if c_max_factor < 1.0:
        raise ValueError("c_max_factor must be >= 1")
    peak = w.values.max()
    if peak <= 0:
        raise ValueError("grid has no positive values to dominate")
    X, P = w.meshgrid()
    mask = w.values >= floor * peak
    zx, zp = X[mask], P[mask]
    vals = w.values[mask]
    log_rel = np.log(vals / peak)
    budget = w.hbar * (np.log(c_max_factor) - log_rel)
    q_xx, q_xp, q_pp = zx * zx, 2.0 * zx * zp, zp * zp
    cand = _binding_candidates(zx, zp, budget)
    c_budget, c_xx, c_xp, c_pp = budget[cand], q_xx[cand], q_xp[cand], q_pp[cand]

    evaluations = 0

    def t_star(params):
        nonlocal evaluations
        evaluations += 1
        s, c = params
        l11, l22 = np.exp(s), np.exp(-s)
        m11 = l11 * l11
        m12 = l11 * c
        m22 = c * c + l22 * l22
        quad = m11 * c_xx + m12 * c_xp + m22 * c_pp
        live = quad > 0
        if not live.any():
            return 0.0
        return float(np.min(c_budget[live] / quad[live]))

    starts = [np.zeros(2)]
    try:
        cov = covariance_from_grid(w).sigma
        m_cov = 0.5 * w.hbar * np.linalg.inv(cov)
        m_cov = m_cov / np.sqrt(np.linalg.det(m_cov))
        chol = np.linalg.cholesky(m_cov)
        starts.append(np.array([np.log(chol[0, 0]), chol[1, 0]]))
    except (np.linalg.LinAlgError, ValueError):
        pass
    starts += [np.array([0.35, 0.0]), np.array([-0.35, 0.0]), np.array([0.0, 0.35])]

    best_val, best_params, nm_ok = -np.inf, None, False
    for start in starts:
        res = minimize(lambda th: -t_star(th), start, method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 500})
        if -res.fun > best_val:
            best_val, best_params, nm_ok = -res.fun, res.x, bool(res.success)

    t = best_val
    s, c = best_params
    chol = np.array([[np.exp(s), 0.0], [c, np.exp(-s)]])
    M = t * (chol @ chol.T)
    converged = bool(nm_ok and t > 0)
    if not converged:
        warnings.warn("dominating-Gaussian fit did not converge; returning best found")

    if t > 0:
        spectrum = symplectic_spectrum(M)
        quad = M[0, 0] * q_xx + M[0, 1] * q_xp + M[1, 1] * q_pp
        scaled = vals * np.exp(quad / w.hbar)
        C = float(scaled.max())
        if C > c_max_factor * peak * (1.0 + DOMINATION_RTOL):
            raise ValueError(f"dominating fit needs C = {C:.6g} above the cap "
                             f"{c_max_factor:g} * max W = {c_max_factor * peak:.6g}")
    else:
        spectrum = np.array([0.0])
        C = float(peak)
    mu1 = float(spectrum[0])
    return DominationCertificate(
        M=M, C=C, spectrum=spectrum, mu1=mu1,
        verdict=domination_verdict(mu1, band), hbar=w.hbar,
        c_max_factor=c_max_factor, floor=floor,
        n_constraints=int(mask.sum()), converged=converged,
        n_evaluations=evaluations,
    )


def compact_support_flag(w, support_threshold=1e-10, margin_cells=2, hard_zero=1e-14):
    """Detect genuinely compact support on the grid.

    True when all values above support_threshold * peak sit inside a box
    strictly interior to the grid AND the values outside the inflated box
    are numerically zero (below hard_zero * peak).  Exponential tails cross
    the threshold smoothly and fail the second test.  Returns
    (flag, diagnostics).
    """
    absvals = np.abs(w.values)
    peak = absvals.max()
    diag = {"support_threshold": support_threshold, "margin_cells": margin_cells}
    if peak == 0:
        diag["reason"] = "grid is identically zero"
        return False, diag
    live = absvals > support_threshold * peak
    if not live.any():
        diag["reason"] = "no values above threshold"
        return False, diag
    li, lj = np.where(live)
    i0, i1 = int(li.min()), int(li.max())
    j0, j1 = int(lj.min()), int(lj.max())
    nx, np_ = absvals.shape
    diag["box"] = {"x": [i0, i1], "p": [j0, j1]}
    interior = (i0 >= margin_cells and j0 >= margin_cells
                and i1 < nx - margin_cells and j1 < np_ - margin_cells)
    if not interior:
        diag["reason"] = "support box touches the grid boundary"
        return False, diag
    outer = np.ones_like(absvals, dtype=bool)
    a0, a1 = max(i0 - margin_cells, 0), min(i1 + margin_cells, nx - 1)
    b0, b1 = max(j0 - margin_cells, 0), min(j1 + margin_cells, np_ - 1)
    outer[a0:a1 + 1, b0:b1 + 1] = False
    outer_max = float(absvals[outer].max()) if outer.any() else 0.0
    diag["outer_max_ratio"] = outer_max / peak
    flag = bool(outer_max <= hard_zero * peak)
    if not flag:
        diag["reason"] = "tail does not vanish outside the support box"
    return flag, diag
