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


def _modes(M):
    """N for a square 2N x 2N matrix with N >= 1; raises naming any other shape."""
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2 or not M.shape[0]:
        raise ValueError(f"matrix must be square of even size >= 2, got shape {M.shape}")
    return M.shape[0] // 2


def is_symplectic(S, tol=1e-10):
    """True when ||S^T J S - J||_inf <= tol."""
    S = np.asarray(S, dtype=float)
    J = symplectic_form(_modes(S))
    return bool(np.abs(S.T @ J @ S - J).max() <= tol)


def _balance(M):
    """(D M D, diagonal of D) for the diagonal symplectic D = diag(d, 1/d),
    d_j = (M_pjpj / M_xjxj)^(1/4), which gives D M D equal x_j and p_j diagonals
    and M's symplectic spectrum and positivity; d_j = 1 where either diagonal is
    not positive and finite, as for a matrix that is not positive definite."""
    n, diag = M.shape[0] // 2, np.diagonal(M)
    ok = np.isfinite(diag) & (diag > 0)
    root = np.sqrt(np.sqrt(np.where(ok, diag, 1.0)))  # a ratio of fourth roots cannot overflow
    d = np.where(ok[:n] & ok[n:], root[n:] / root[:n], 1.0)
    dd = np.concatenate([d, 1.0 / d])
    return dd[:, None] * M * dd, dd


def symplectic_spectrum(M):
    """Symplectic spectrum of a symmetric positive-definite matrix: the N values
    mu_j > 0, in descending order, of the eigenvalue pairs +/- i mu_j of J M.
    They are the spectrum of `williamson`, and raise as it does."""
    return williamson(M).spectrum


@dataclass
class WilliamsonFactorization:
    """Factorization M = S^T D S with S symplectic, D = diag(spectrum, spectrum)."""

    S: np.ndarray
    spectrum: np.ndarray
    residual: float = 0.0
    symplectic_residual: float = 0.0


def williamson(M):
    """Williamson normal form of a symmetric positive-definite matrix, and the
    one gate of such matrices: the one-line refusals below are unit-free.

    M must be square of even size >= 2 (`_modes`), symmetric within
    1e-10 sqrt(M_ii M_jj) per entry, and finite.  It is read in balanced
    units, B = D M D of `_balance`: only a matrix singular in shape is refused,
    whatever the units of x and p.  B must have eigenvalues above PD_TOL times
    the largest.  Of its root B^(1/2), the Hermitian i K, K = B^(1/2) J B^(1/2)
    made exactly skew-symmetric, has the eigenvalues +/- mu_j.  An eigenvector e
    of +mu_j, rotated so that its first entry of modulus >= half the largest is
    positive imaginary, gives the orthonormal pair u = sqrt(2) Im e,
    v = sqrt(2) Re e with K u = -mu_j v and K v = mu_j u (for one degree of
    freedom, the coordinate axes).  The pairs assemble a symplectic S_B with
    B = S_B^T diag(mu, mu) S_B, and S = S_B D^(-1): for one degree of freedom
    S = B^(1/2) D^(-1) / det(M)^(1/4).  The relative reconstruction residual and
    the symplecticity residual of S are recorded.
    """
    M = np.asarray(M, dtype=float)
    n = _modes(M)
    root = np.sqrt(np.abs(np.diagonal(M)))  # |M_ij| <= sqrt(M_ii M_jj) on a positive M
    if (np.abs(M - M.T) > 1e-10 * np.outer(root, root)).any():
        raise ValueError("matrix is not symmetric")
    M = 0.5 * (M + M.T)
    if not np.isfinite(M).all():
        raise ValueError("symplectic spectrum is not finite: the matrix entries are "
                         "not finite or too large")
    B, dd = _balance(M)
    w, V = np.linalg.eigh(B)
    if w.min() <= PD_TOL * np.abs(w).max():
        raise ValueError("matrix is not positive definite, or its balanced eigenvalues span "
                         f"more than 1/PD_TOL = {1 / PD_TOL:.0e}")
    root, J = (V * np.sqrt(w)) @ V.T, symplectic_form(n)
    K = root @ J @ root
    ev, E = np.linalg.eigh(0.5j * (K - K.T))
    spectrum, E = ev[::-1][:n], E[:, ::-1][:, :n]  # +mu_j, descending
    size = np.abs(E)
    lead = E[np.argmax(size >= 0.5 * size.max(axis=0), axis=0), np.arange(n)]
    E = E * (1j * np.abs(lead) / lead)
    Q = np.sqrt(2.0) * np.concatenate([E.imag, E.real], axis=1)
    scale = np.concatenate([spectrum, spectrum])
    S = (Q.T / np.sqrt(scale)[:, None]) @ root / dd

    residual = np.abs((S.T * scale) @ S - M).max() / np.abs(M).max()
    sym_res = np.abs(S.T @ J @ S - J).max()
    if residual > 1e-6:
        raise ValueError(f"Williamson decomposition failed to converge (residual {residual:.3e})")
    return WilliamsonFactorization(S=S, spectrum=spectrum, residual=float(residual),
                                   symplectic_residual=float(sym_res))
