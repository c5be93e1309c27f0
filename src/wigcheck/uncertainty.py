"""Covariance extraction and the equivalent uncertainty criteria.

Three formulations of the uncertainty principle are implemented and
cross-validated: the per-pair moment inequalities, positive
semi-definiteness of the Hermitian matrix Sigma + (i*hbar/2) J, and the
bound nu_min >= hbar/2 on the smallest symplectic eigenvalue of Sigma.
The moment inequalities are necessary; the other two are equivalent to
each other and canonically invariant.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .states import TAIL_TOL, _abs_sums, _boundary_band_sum
from .symplectic import _balance, symplectic_form, symplectic_spectrum

__all__ = [
    "CovarianceMatrix",
    "covariance_from_grid",
    "RSInequality",
    "check_rs",
    "UncertaintyReport",
    "uncertainty_report",
]

BOUNDARY_BAND = 1e-10


@dataclass
class CovarianceMatrix:
    """Second moments of a phase-space distribution."""

    sigma: np.ndarray
    mean: np.ndarray


def covariance_from_grid(w):
    """First and second phase-space moments of W/trace for a Wigner grid.

    sigma_ab = int z_a z_b W dz / tr - mean_a mean_b, read from the marginals
    (the row and column sums of the grid) and W @ p; the trace keeps a state
    short of unit mass from reading as sub-vacuum.  Raises for a sum at most its round-off
    n eps sum|W|; warns when the boundary band holds over TAIL_TOL of the second moment.
    """
    x, p = w.x_axis.points, w.p_axis.points
    rows, cols = w.values.sum(axis=1), w.values.sum(axis=0)
    sums = _abs_sums(w.values)
    roundoff = w.x_axis.count * np.finfo(float).eps * sums[0].sum()
    if not (mass := rows.sum()) > roundoff:
        raise ValueError(f"grid trace {mass * w.cell_area:.6g} is not positive beyond round-off")
    mx, mp = float(x @ rows / mass), float(p @ cols / mass)
    sxx = float((x * x) @ rows / mass) - mx * mx
    spp = float((p * p) @ cols / mass) - mp * mp
    sxp = float(x @ (w.values @ p) / mass) - mx * mp
    band, total = _boundary_band_sum(w.values, x * x, p * p, sums)
    if band > TAIL_TOL * total:
        warnings.warn("second moments may not have converged (heavy tail at the grid boundary)")
    return CovarianceMatrix(np.array([[sxx, sxp], [sxp, spp]]), np.array([mx, mp]))


@dataclass
class RSInequality:
    """One moment inequality: lhs >= rhs with margin = lhs - rhs."""

    j: int
    k: int
    kind: str
    lhs: float
    rhs: float
    margin: float
    ok: bool


def check_rs(sigma, hbar=1.0):
    """Per-pair moment inequalities for a 2N x 2N covariance matrix.

    Conjugate pairs require Var(x_j) Var(p_j) >= cov(x_j, p_j)^2 + hbar^2/4;
    cross pairs (j != k) require Var(x_j) Var(p_k) >= cov(x_j, p_k)^2.  Each
    is decided in the balanced units of `symplectic._balance`, where the margin
    of pair (j, k) is (d_j / d_k)^2 times its margin, within the rounding band
    BOUNDARY_BAND * max|eig Sigma_B|^2, the square of the scale of the PSD test's
    band in `uncertainty_report`: with no floor, hbar -> k hbar and Sigma -> k Sigma
    keep every verdict.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0] // 2
    balanced, dd = _balance(sigma)
    band = BOUNDARY_BAND * np.abs(np.linalg.eigvalsh(balanced)).max() ** 2
    out = []
    for j in range(n):
        for k in range(n):
            lhs = sigma[j, j] * sigma[n + k, n + k]
            cross = sigma[j, n + k] ** 2
            rhs = cross + hbar**2 / 4 if j == k else cross
            kind = "conjugate" if j == k else "cross"
            ok = (dd[j] / dd[k]) ** 2 * (lhs - rhs) >= -band
            lhs, rhs = float(lhs), float(rhs)
            out.append(RSInequality(j, k, kind, lhs, rhs, lhs - rhs, bool(ok)))
    return out


@dataclass
class UncertaintyReport:
    """Aggregate of the three criteria for one covariance matrix and hbar."""

    hbar: float
    rs: list
    rs_ok: bool
    psd_min_eigenvalue: float
    psd_ok: bool
    nu_min: float | None  # None, with lambda_star, when sigma is not positive definite
    nu_max: float | None
    # sqrt(2 nu_min / hbar), the largest rescaling parameter that keeps sigma admissible:
    # below 1 when sigma already fails, and None when no rescaling makes it admissible
    lambda_star: float | None
    verdict: str  # "pass" when psd_ok, else "fail"
    boundary: bool


def uncertainty_report(sigma, hbar=1.0):
    """Run all uncertainty criteria on one covariance matrix.

    The PSD test reads the smallest eigenvalue of D (Sigma + (i*hbar/2) J) D =
    Sigma_B + (i*hbar/2) J within the rounding band BOUNDARY_BAND * max|eig Sigma_B|,
    with Sigma_B = D Sigma D the balanced sigma of `symplectic._balance`: a diagonal
    symplectic D changes neither the verdict nor the band, so neither depends on
    the units of x and p.
    """
    sigma = np.asarray(sigma, dtype=float)
    rs = check_rs(sigma, hbar)
    balanced = _balance(sigma)[0]
    h = balanced + 0.5j * hbar * symplectic_form(sigma.shape[0] // 2)
    min_eig = float(np.linalg.eigvalsh(h).min())
    band = BOUNDARY_BAND * np.abs(np.linalg.eigvalsh(balanced)).max()
    psd_ok = bool(min_eig >= -band)
    try:  # sigma has a symplectic spectrum when `williamson` takes it as positive definite
        nu = symplectic_spectrum(sigma)
    except ValueError:
        nu = None
    return UncertaintyReport(
        hbar=hbar,
        rs=rs,
        rs_ok=all(r.ok for r in rs),
        psd_min_eigenvalue=min_eig,
        psd_ok=psd_ok,
        nu_min=None if nu is None else float(nu[-1]),
        nu_max=None if nu is None else float(nu[0]),
        lambda_star=None if nu is None else float(np.sqrt(2.0 * nu[-1] / hbar)),
        verdict="pass" if psd_ok else "fail",
        boundary=bool(abs(min_eig) <= band),
    )
