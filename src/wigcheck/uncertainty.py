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

from .states import TAIL_TOL, _boundary_band_sum
from .symplectic import PD_TOL, symplectic_form, symplectic_spectrum

__all__ = [
    "CovarianceMatrix",
    "covariance_from_grid",
    "RSInequality",
    "check_rs",
    "check_quantum_psd",
    "lambda_star",
    "UncertaintyReport",
    "uncertainty_report",
    "hbar_sweep",
]

BOUNDARY_BAND = 1e-10


@dataclass
class CovarianceMatrix:
    """Second moments of a phase-space distribution."""

    sigma: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.mean = np.asarray(self.mean, dtype=float)
        if np.abs(self.sigma - self.sigma.T).max() > 1e-12 * max(1.0, np.abs(self.sigma).max()):
            raise ValueError("covariance matrix must be symmetric")


def covariance_from_grid(w):
    """First and second phase-space moments of a Wigner grid.

    sigma_ab = int z_a z_b W dz - mean_a mean_b, read from the marginals (the
    row and column sums of the grid) and W @ p.  Warns when the boundary band
    contributes more than TAIL_TOL of the second moment (heavy tail).
    """
    x, p = w.x_axis.points, w.p_axis.points
    area = w.cell_area
    rows, cols = w.values.sum(axis=1), w.values.sum(axis=0)
    mx, mp = float(x @ rows * area), float(p @ cols * area)
    sxx = float((x * x) @ rows * area) - mx * mx
    spp = float((p * p) @ cols * area) - mp * mp
    sxp = float(x @ (w.values @ p) * area) - mx * mp
    band, total = _boundary_band_sum(w.values, x * x, p * p)
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
    cross pairs (j != k) require Var(x_j) Var(p_k) >= cov(x_j, p_k)^2.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0] // 2
    scale = max(1.0, np.abs(sigma).max()) ** 2
    out = []
    for j in range(n):
        for k in range(n):
            lhs = sigma[j, j] * sigma[n + k, n + k]
            cross = sigma[j, n + k] ** 2
            rhs = cross + hbar**2 / 4 if j == k else cross
            kind = "conjugate" if j == k else "cross"
            ok = lhs >= rhs - BOUNDARY_BAND * scale
            lhs, rhs = float(lhs), float(rhs)
            out.append(RSInequality(j, k, kind, lhs, rhs, lhs - rhs, bool(ok)))
    return out


def check_quantum_psd(sigma, hbar=1.0):
    """PSD test of Sigma + (i*hbar/2) J; returns (pass, smallest eigenvalue)."""
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0] // 2
    h = sigma + 0.5j * hbar * symplectic_form(n)
    min_eig = float(np.linalg.eigvalsh(h).min())
    norm = np.abs(np.linalg.eigvalsh(sigma)).max()
    return bool(min_eig >= -BOUNDARY_BAND * norm), min_eig


def lambda_star(sigma, hbar=1.0):
    """Largest rescaling parameter that keeps the covariance admissible.

    Equals sqrt(2 * nu_min / hbar); a value below 1 means the covariance
    already violates the uncertainty principle.  None when sigma is not
    positive definite: then no rescaling makes it admissible.
    """
    return _lambda_star(_spectrum(np.asarray(sigma, dtype=float)), hbar)


def _spectrum(sigma):
    """Symplectic spectrum of sigma, or None when sigma is not positive definite."""
    eig = np.linalg.eigvalsh(sigma)
    return symplectic_spectrum(sigma) if eig.min() > PD_TOL * np.abs(eig).max() else None


def _lambda_star(nu, hbar):
    return None if nu is None else float(np.sqrt(2.0 * nu[-1] / hbar))


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
    lambda_star: float | None
    verdict: str  # "pass" when psd_ok, else "fail"
    boundary: bool


def uncertainty_report(sigma, hbar=1.0):
    """Run all uncertainty criteria on one covariance matrix."""
    sigma = np.asarray(sigma, dtype=float)
    rs = check_rs(sigma, hbar)
    psd_ok, min_eig = check_quantum_psd(sigma, hbar)
    nu = _spectrum(sigma)
    norm = np.abs(np.linalg.eigvalsh(sigma)).max()
    boundary = bool(abs(min_eig) <= BOUNDARY_BAND * norm)
    return UncertaintyReport(
        hbar=hbar,
        rs=rs,
        rs_ok=all(r.ok for r in rs),
        psd_min_eigenvalue=min_eig,
        psd_ok=psd_ok,
        nu_min=None if nu is None else float(nu[-1]),
        nu_max=None if nu is None else float(nu[0]),
        lambda_star=_lambda_star(nu, hbar),
        verdict="pass" if psd_ok else "fail",
        boundary=boundary,
    )


def hbar_sweep(w, hbar_values):
    """Check the same grid covariance against several values of hbar.

    The moments do not depend on hbar, so the pass set is a down-set: once a
    value fails, every larger value fails as well.
    """
    cov = covariance_from_grid(w)
    return [uncertainty_report(cov.sigma, h) for h in hbar_values]
