"""Symplectic linear algebra on 2N-dimensional phase space.

Phase-space vectors are ordered z = (x_1, ..., x_N, p_1, ..., p_N) and the
standard form is

    J = [[0, I], [-I, 0]]

so that the symplectic product is sigma(z, z') = z'^T J z = p.x' - p'.x.
A real 2N x 2N matrix S is symplectic when S^T J S = J.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "symplectic_form",
    "is_symplectic",
    "symplectic_spectrum",
    "WilliamsonFactorization",
    "williamson",
]

PD_TOL = 1e-12


def symplectic_form(ndof):
    """Standard form J for `ndof` degrees of freedom."""
    eye = np.eye(ndof)
    zero = np.zeros((ndof, ndof))
    return np.block([[zero, eye], [-eye, zero]])


def _check_phase_space_dim(dim):
    if dim < 2 or dim % 2 != 0:
        raise ValueError(f"phase-space dimension must be even and >= 2, got {dim}")
    return dim // 2


def is_symplectic(S, tol=1e-10):
    """True when ||S^T J S - J||_inf <= tol."""
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("matrix must be square")
    n = _check_phase_space_dim(S.shape[0])
    J = symplectic_form(n)
    return bool(np.abs(S.T @ J @ S - J).max() <= tol)


def _check_spd(M):
    """Validate a symmetric positive-definite matrix; return (M, ndof)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    n = _check_phase_space_dim(M.shape[0])
    if np.abs(M - M.T).max() > 1e-10 * max(1.0, np.abs(M).max()):
        raise ValueError("matrix is not symmetric")
    w = np.linalg.eigvalsh(0.5 * (M + M.T))
    if w.min() <= PD_TOL * np.abs(w).max():
        raise ValueError("matrix is not positive definite, or its eigenvalues span more "
                         f"than 1/PD_TOL = {1 / PD_TOL:.0e}")
    return 0.5 * (M + M.T), n


def _sqrtm_spd(M):
    w, V = np.linalg.eigh(M)
    return (V * np.sqrt(w)) @ V.T


def _normal_modes(M):
    """The symmetrized M, its root M^(1/2) and K = M^(1/2) J M^(1/2) of a
    symmetric positive-definite M.  K is skew-symmetric up to rounding, and
    the Hermitian i K has the eigenvalues +/- mu_j, with mu_j the symplectic
    spectrum of M."""
    M, n = _check_spd(M)
    root = _sqrtm_spd(M)
    return M, root, root @ symplectic_form(n) @ root


def symplectic_spectrum(M):
    """Symplectic spectrum of a symmetric positive-definite matrix.

    The eigenvalues of J M come in pairs +/- i mu_j with mu_j > 0; they are
    the eigenvalues +/- mu_j of the Hermitian i K of `_normal_modes`.  The
    returned array holds the N values mu_j sorted in descending order.
    Raises when the eigenproblem does not give N finite positive values, as
    happens when the entries of M are near the largest float.
    """
    _, _, K = _normal_modes(M)
    ev = np.linalg.eigvalsh(1j * K)
    mu = ev[np.isfinite(ev) & (ev > 0)]
    if mu.size != K.shape[0] // 2:
        raise ValueError("symplectic spectrum is not finite: the matrix entries are too large")
    return np.sort(mu)[::-1].copy()


@dataclass
class WilliamsonFactorization:
    """Factorization M = S^T D S with S symplectic, D = diag(spectrum, spectrum)."""

    S: np.ndarray
    spectrum: np.ndarray
    residual: float = 0.0
    symplectic_residual: float = 0.0


def williamson(M):
    """Williamson normal form of a symmetric positive-definite matrix.

    K of `_normal_modes` is made exactly skew-symmetric.  An eigenvector e
    of +mu_j of the Hermitian i K, rotated so that its first entry of
    modulus >= half the largest is positive imaginary, gives the orthonormal
    pair u = sqrt(2) Im e, v = sqrt(2) Re e with K u = -mu_j v and
    K v = mu_j u (for one degree of freedom, the coordinate axes).  The pairs
    assemble a symplectic S with M = S^T D S.  The relative reconstruction
    residual and the symplecticity residual of S are recorded on the result.
    """
    M, root, K = _normal_modes(M)
    n = M.shape[0] // 2
    K = 0.5 * (K - K.T)
    ev, E = np.linalg.eigh(1j * K)
    spectrum, E = ev[::-1][:n], E[:, ::-1][:, :n]  # +mu_j, descending
    size = np.abs(E)
    lead = E[np.argmax(size >= 0.5 * size.max(axis=0), axis=0), np.arange(n)]
    E = E * (1j * np.abs(lead) / lead)
    Q = np.sqrt(2.0) * np.concatenate([E.imag, E.real], axis=1)
    scale = np.concatenate([spectrum, spectrum])
    S = (Q.T / np.sqrt(scale)[:, None]) @ root

    recon = S.T @ np.diag(scale) @ S
    residual = np.abs(recon - M).max() / np.abs(M).max()
    J = symplectic_form(n)
    sym_res = np.abs(S.T @ J @ S - J).max()
    if residual > 1e-6:
        raise ValueError(f"Williamson decomposition failed to converge (residual {residual:.3e})")
    return WilliamsonFactorization(S=S, spectrum=spectrum, residual=float(residual),
                                   symplectic_residual=float(sym_res))
