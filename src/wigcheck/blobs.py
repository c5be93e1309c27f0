"""Phase-space ellipsoids, their symplectic capacity, and quantum blobs.

An ellipsoid is the set M z.z <= hbar for a symmetric positive-definite M.
Its symplectic capacity is pi*hbar / mu_1 with mu_1 the largest symplectic
eigenvalue of M; the ellipsoid is admissible (can hold the Wigner ellipsoid
of a state) exactly when the capacity is at least pi*hbar, i.e. mu_1 <= 1.
A quantum blob is the symplectic image of the ball of radius sqrt(hbar):
the minimal admissible cell, with capacity exactly pi*hbar.
"""

from dataclasses import dataclass

import numpy as np

from .symplectic import is_symplectic, symplectic_spectrum, williamson

__all__ = [
    "capacity",
    "is_admissible",
    "section_area",
    "Blob",
    "quantum_blob",
    "find_contained_blob",
]

ADMISSIBLE_TOL = 1e-9
SYMPLECTIC_TOL = 1e-8  # largest entry of S^T J S - J that `quantum_blob` accepts


def capacity(M, hbar=1.0):
    """Symplectic capacity pi*hbar / mu_1 of the ellipsoid M z.z <= hbar."""
    mu = symplectic_spectrum(np.asarray(M, dtype=float))
    return float(np.pi * hbar / mu[0])


def is_admissible(M, hbar=1.0):
    """True when the ellipsoid has capacity >= pi*hbar (mu_1 <= 1 + ADMISSIBLE_TOL)."""
    mu = symplectic_spectrum(np.asarray(M, dtype=float))
    return bool(mu[0] <= 1.0 + ADMISSIBLE_TOL)


def section_area(M, j, hbar=1.0):
    """Area of the central section by the conjugate plane (x_j, p_j).

    `j` is zero-based.  The section of M z.z <= hbar by the plane spanned by
    the j-th position and momentum axes is the ellipse M_j u.u <= hbar where
    M_j is the 2x2 principal submatrix on indices (j, N+j); its area is
    pi*hbar / sqrt(det M_j) = pi*hbar / (sqrt(a) sqrt(b) sqrt(1 - r^2)), with
    a, b its diagonal and r its correlation: no det to over- or underflow.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0] // 2
    if not 0 <= j < n:
        raise ValueError(f"mode index out of range: {j} (N={n})")
    a, b = M[j, j], M[n + j, n + j]
    r = 0.5 * (M[j, n + j] + M[n + j, j]) / np.sqrt(a) / np.sqrt(b) if a > 0 and b > 0 else np.nan
    if not abs(r) < 1:
        raise ValueError("section submatrix is not positive definite")
    return float(np.pi * hbar / (np.sqrt(a) * np.sqrt(b) * np.sqrt(1 - r * r)))


@dataclass
class Blob:
    """Symplectic image of the ball of radius sqrt(hbar)."""

    S: np.ndarray
    center: np.ndarray  # the origin
    matrix: np.ndarray  # ellipsoid matrix inv(S S^T); symplectic spectrum (1, ..., 1)
    hbar: float = 1.0


def quantum_blob(S, hbar=1.0):
    """Quantum blob centred at the origin for a symplectic matrix S."""
    S = np.asarray(S, dtype=float)
    if not is_symplectic(S, SYMPLECTIC_TOL):
        raise ValueError("matrix is not symplectic")
    matrix = np.linalg.inv(S @ S.T)
    matrix = 0.5 * (matrix + matrix.T)
    return Blob(S=S, center=np.zeros(S.shape[0]), matrix=matrix, hbar=hbar)


def find_contained_blob(M, hbar=1.0, tol=ADMISSIBLE_TOL):
    """Quantum blob inside an admissible ellipsoid M z.z <= hbar.

    Uses the normal form M = S0^T D S0 and returns the blob with S = S0^(-1),
    whose ellipsoid matrix is S0^T S0.  Containment holds because
    S0^T S0 - M = S0^T (I - D) S0 >= 0 exactly when mu_1 <= 1; the smallest
    eigenvalue of that difference is returned as the containment residual.
    Raises for an inadmissible ellipsoid (no blob fits).
    """
    M = np.asarray(M, dtype=float)
    fact = williamson(M)
    if not fact.spectrum[0] <= 1.0 + tol:  # the test of `is_admissible`, on this spectrum
        raise ValueError("ellipsoid is not admissible: no quantum blob fits inside")
    s_blob = np.linalg.inv(fact.S)
    blob = quantum_blob(s_blob, hbar=hbar)
    gap = fact.S.T @ fact.S - M
    residual = float(np.linalg.eigvalsh(0.5 * (gap + gap.T)).min())
    return blob, residual
