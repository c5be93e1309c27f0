"""Finite-order positivity conditions on the symplectic Fourier transform.

For a candidate state the m x m matrices

    F[j, k] = exp(i*hbar/2 * sigma(z_j, z_k)) * FsW(z_j - z_k)

must be positive semi-definite for every point set {z_1, ..., z_m} and every
order m.  A finite randomized search can only certify failure: a negative
eigenvalue at any order is a proof that the grid is not a state, while
"no violation found" proves nothing.

The diagonal of F is the grid trace and the lower triangle the conjugate of
the upper one, so only the m(m-1)/2 differences j < k go through the folded
quadrature of `SymplecticFourier`, built once per search; a witness is
re-checked by an independent, unfolded quadrature.  All point sets of an
order are drawn first, and their matrices are phased in real arithmetic and
diagonalized in stacks.
"""

from dataclasses import dataclass

import numpy as np

from .states import SymplecticFourier, _abs_sums, _rotate, trace
from .uncertainty import covariance_from_grid

__all__ = [
    "klm_matrix",
    "KLMWitness",
    "KLMOrderRecord",
    "KLMReport",
    "klm_check",
    "witness_quadratic_form",
]

DEFAULT_TOL = 1e-6

# Sign of the quadratic phase, from the convention sigma(z, z') = p.x' - p'.x
# of symplectic.py.  FsW(z) = tr(rho D(z)) with D(z) = exp(i sigma(z, Z)) for
# the operators Z = (X, P), and [X, P] = i*hbar gives
# D(z_j) D(z_k) = exp(i*hbar/2 sigma(z_j, z_k)) D(z_j + z_k).  With
# B = sum_k c_k D(z_k), tr(rho B^H B) >= 0 says that the transpose of F with
# sign +1 is positive semi-definite.  No grid can single the sign out: sign -1
# on W at points (x, p) is sign +1 on the time-reversed grid W(x, -p) at
# points (-x, p), and time reversal maps states to states.
PHASE_SIGN = +1

# Point sets per stacked eigendecomposition: large enough that the transform
# runs as a matrix product, small enough that a witness early in an order
# wastes little work.
_CHUNK_TRIALS = 10


def klm_matrix(fsw, points, hbar=1.0):
    """Assemble the phase-weighted sample matrix for one or many point sets.

    `fsw` is a symplectic Fourier evaluator; `points` is an (m, 2) array, or
    a (T, m, 2) stack of T point sets giving a (T, m, m) stack of matrices.
    Only the differences z_j - z_k with j < k are transformed: the diagonal
    is the grid trace, and the lower triangle is the conjugate of the upper
    one because the transform of a real grid satisfies FsW(-z) = conj FsW(z).
    The result is therefore exactly Hermitian.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim < 3
    if single:
        pts = np.atleast_2d(pts)[None]
    t, m = pts.shape[:2]
    j, k = np.triu_indices(m, 1)
    x, p = pts[..., 0], pts[..., 1]
    f = fsw((pts[:, j] - pts[:, k]).reshape(-1, 2)).reshape(t, j.size)
    sig = p[:, j] * x[:, k] - x[:, j] * p[:, k]
    upper = _rotate(f.real, f.imag, PHASE_SIGN * 0.5 * hbar * sig)
    mat = np.empty((t, m, m), dtype=complex)
    mat[:, j, k] = upper
    mat[:, k, j] = upper.conj()
    diag = np.arange(m)
    mat[:, diag, diag] = fsw.trace
    return mat[0] if single else mat


@dataclass
class KLMWitness:
    """Reproducible certificate of a negative eigenvalue."""

    order: int
    points: np.ndarray
    eigenvector: np.ndarray
    min_eigenvalue: float
    trial: int
    strategy: str


@dataclass
class KLMOrderRecord:
    order: int
    trials: int
    worst_min_eigenvalue: float


@dataclass
class KLMReport:
    overall: str
    orders: list
    witness: KLMWitness | None
    seed: int
    max_order: int
    trials_per_order: int
    tol: float
    phase_sign: int = PHASE_SIGN


# an axis-aligned point set of order k: the first k of these points, times a scale
_LATTICE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                     [2.0, 0.0], [0.0, 2.0], [2.0, 1.0], [1.0, 2.0]])


def _sample_points(rng, order, trial, trials, chol, base_scale):
    """Alternate random Gaussian clouds with axis-aligned lattices."""
    if trial % 2 == 0:
        factor = np.exp(rng.uniform(np.log(0.5), np.log(3.0)))
        pts = rng.standard_normal((order, 2)) @ chol.T * factor
        return pts, "random"
    frac = trial / max(trials, 2)
    a = base_scale * (0.3 + 3.2 * frac)
    return a * _LATTICE[:order], "lattice"


def klm_check(w, max_order=5, trials_per_order=50, seed=0, tol=DEFAULT_TOL):
    """Search for a finite-order positivity violation.

    Samples point sets of each order up to `max_order` and records the worst
    minimum eigenvalue seen.  Stops early with a reproducible witness once an
    eigenvalue falls below -tol.  A "no_violation_found" verdict is not a
    positivity proof.
    """
    if abs(trace(w) - 1.0) > 1e-3:
        raise ValueError("grid must have unit trace for the positivity search")
    cov = covariance_from_grid(w).sigma
    fsw = SymplecticFourier(w)  # after the covariance, whose transients set the peak memory
    eigs = np.linalg.eigvalsh(cov)
    if eigs.min() > 0:
        chol = np.linalg.cholesky(cov)
    else:
        chol = np.sqrt(w.hbar / 2) * np.eye(2)
    base_scale = float(np.sqrt(2.0 * max(np.trace(cov) / 2.0, w.hbar / 4)))

    rng = np.random.default_rng(seed)
    orders = []
    for order in range(1, max_order + 1):
        draws = [_sample_points(rng, order, trial, trials_per_order, chol, base_scale)
                 for trial in range(trials_per_order)]
        pts = np.array([p for p, _ in draws])
        worst = np.inf
        for start in range(0, trials_per_order, _CHUNK_TRIALS):
            vals, vecs = np.linalg.eigh(klm_matrix(fsw, pts[start:start + _CHUNK_TRIALS], w.hbar))
            low = vals[:, 0]
            bad = np.flatnonzero(low < -tol)
            if bad.size == 0:
                worst = min(worst, float(low.min()))
                continue
            i = int(bad[0])
            trial = start + i
            worst = min(worst, float(low[:i + 1].min()))
            witness = KLMWitness(order, pts[trial], vecs[i, :, 0], float(low[i]), trial,
                                 draws[trial][1])
            del fsw  # the re-check reads only the grid
            _verify(w, witness, tol)
            orders.append(KLMOrderRecord(order, trial + 1, worst))
            return KLMReport("violation_certificate", orders, witness, seed,
                             max_order, trials_per_order, tol)
        orders.append(KLMOrderRecord(order, trials_per_order, worst))
    return KLMReport("no_violation_found", orders, None, seed, max_order,
                     trials_per_order, tol)


def _verify(w, witness, tol):
    """Raise unless the witness's quadratic form reproduces its eigenvalue.

    Round-off in v^H F v scales with the matrix entries, which are bounded by
    the integral of |W|.
    """
    value = witness_quadratic_form(w, witness)
    bound = 1e-9 * witness.order * max(1.0, float(_abs_sums(w.values)[0].sum() * w.cell_area))
    if not (value < -tol and abs(value - witness.min_eigenvalue) <= bound):
        raise ValueError(f"KLM witness does not reproduce: v^H F v = {value:.3e}, "
                         f"eigenvalue {witness.min_eigenvalue:.3e}")


def witness_quadratic_form(w, witness):
    """Re-evaluate a witness: v^H F v for the stored points and eigenvector,
    each difference z = (x, p) transformed by the unfolded sum exp(i p x') @ W
    @ exp(-i x p') dA, independent of the folded quadrature that found it."""
    pts, v = witness.points, witness.eigenvector
    j, k = np.triu_indices(len(pts), 1)
    x, p = (pts[j] - pts[k]).T
    px = np.outer(p, w.x_axis.points)
    rows = np.cos(px) @ w.values + 1j * (np.sin(px) @ w.values)
    f = (rows * np.exp(-1j * np.outer(x, w.p_axis.points))).sum(axis=1) * w.cell_area
    sig = pts[j, 1] * pts[k, 0] - pts[j, 0] * pts[k, 1]
    upper = f * np.exp(0.5j * PHASE_SIGN * w.hbar * sig)  # F[j, k]; F[k, j] is its conjugate
    return float(trace(w) * np.vdot(v, v).real + 2 * (v[j].conj() * upper * v[k]).real.sum())
