"""Finite-order positivity conditions on the symplectic Fourier transform.

For a candidate state the m x m matrices

    F[j, k] = exp(i*hbar/2 * sigma(z_j, z_k)) * FsW(z_j - z_k)

must be positive semi-definite for every point set {z_1, ..., z_m} and every
order m.  A finite randomized search can only certify failure: a negative
eigenvalue at any order is a proof that the grid is not a state, while
"no violation found" proves nothing.

The diagonal of F is the grid trace and the lower triangle the conjugate of
the upper one, so only the m(m-1)/2 differences j < k go through the folded
quadrature of `SymplecticFourier`, built once per search, which multiplies
only the parity quadrants above round-off (W_ee alone on a parity-even grid); a
witness is re-checked by an independent, unfolded quadrature.  Order 1 is the trace; a
lattice step is transformed once a search (675 points for a state, not 1,000),
in blocks of new points times axis length at most 30 * 768.

Point sets come from SplitMix64 uniforms and Box-Muller normals in numpy alone,
keyed on (seed, order, draw): bit-for-bit reproducible on one machine, equal to
round-off across CPUs, whose SIMD log, cos and sin may differ in the last bit.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .states import SymplecticFourier, _rotate, trace
from .uncertainty import covariance_from_grid

__all__ = [
    "klm_matrix",
    "KLMWitness",
    "KLMOrderRecord",
    "KLMReport",
    "klm_check",
    "witness_quadratic_form",
]

TOL = 1e-6  # a point set whose matrix has an eigenvalue below -TOL is a witness
MAX_ORDER, TRIALS_PER_ORDER = 5, 50  # the search's fixed cost: orders 1 to 5, 50 point sets each

# Sign of the quadratic phase, from the convention sigma(z, z') = p.x' - p'.x
# of symplectic.py.  FsW(z) = tr(rho D(z)) with D(z) = exp(i sigma(z, Z)) for
# the operators Z = (X, P), and [X, P] = i*hbar gives
# D(z_j) D(z_k) = exp(i*hbar/2 sigma(z_j, z_k)) D(z_j + z_k).  With
# B = sum_k c_k D(z_k), tr(rho B^H B) >= 0 says that the transpose of F with
# sign +1 is positive semi-definite.  No grid can single the sign out: sign -1
# on W at points (x, p) is sign +1 on the time-reversed grid W(x, -p) at
# points (-x, p), and time reversal maps states to states.
PHASE_SIGN = +1

# A block's new transform points times the axis length: the transform runs as a matrix
# product, its cos/sin factors stay small and an early witness wastes little work.
_BLOCK_WORK = 30 * 768


@functools.cache
def _pairs(m):
    """Index pairs j < k of an order-m point set: one read-only table per order."""
    j, k = np.triu_indices(m, 1)
    j.flags.writeable = k.flags.writeable = False
    return j, k


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
    j, k = _pairs(pts.shape[1])
    mat = _phased(fsw((pts[:, j] - pts[:, k]).reshape(-1, 2)), pts, hbar, fsw.trace)
    return mat[0] if single else mat


def _phased(f, pts, hbar, trace):
    """The (T, m, m) matrices of the point sets `pts` from F at their differences j < k."""
    t, m = pts.shape[:2]
    j, k = _pairs(m)
    x, p = pts[..., 0], pts[..., 1]
    sig = p[:, j] * x[:, k] - x[:, j] * p[:, k]
    f = f.reshape(sig.shape)
    upper = _rotate(f.real, f.imag, PHASE_SIGN * 0.5 * hbar * sig)
    mat = np.empty((t, m, m), dtype=complex)
    mat[:, j, k] = upper
    mat[:, k, j] = upper.conj()
    diag = np.arange(m)
    mat[:, diag, diag] = trace
    return mat


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
    max_order: int = MAX_ORDER
    trials_per_order: int = TRIALS_PER_ORDER
    tol: float = TOL
    phase_sign: int = PHASE_SIGN


# an axis-aligned point set of order k: the first k of these points, times a scale
_LATTICE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
# the seven steps _STEPS[_STEP_OF[j, k]] = L_j - L_k, j < k, in the order a lattice set gains
# them; with entries 0, 1 and 2, scale * L_j - scale * L_k = scale * (L_j - L_k) bit for bit
_STEPS = np.array([[-1, 0], [0, -1], [1, -1], [-1, -1], [-2, 0], [-2, 1], [-1, 1]], dtype=float)
_STEP_OF = (_LATTICE[:, None, None] - _LATTICE[None, :, None] == _STEPS).all(-1).argmax(-1)


def _uniforms(seed, order, draws):
    """Uniforms in [0, 1) at the uint64 array `draws`: the top 53 bits of SplitMix64
    (Steele, Lea & Flood 2014) output order * 2**32 + draw + 1 of `seed`, one run of
    the sequence per order.  uint64 arrays wrap mod 2**64 without a warning."""
    z = (draws + np.uint64((order << 32) + 1)) * 0x9E3779B97F4A7C15 + np.uint64(seed)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


def _point_sets(seed, order, trials, chol, base_scale):
    """The (trials, order, 2) point sets of one order: lattices of growing scale on
    odd trials; on even trial t, draws t * (2 * order + 1) + k give a log-uniform
    factor in [0.5, 3) and Box-Muller normals z, and the points are chol @ z times it."""
    trial = np.arange(trials)
    pts = (base_scale * (0.3 + 3.2 * (trial / trials)))[:, None, None] * _LATTICE[:order]
    draws = trial[::2, None] * (2 * order + 1) + np.arange(2 * order + 1)
    u = _uniforms(seed, order, draws.astype(np.uint64))
    r = np.sqrt(-2.0 * np.log(1.0 - u[:, 1:order + 1, None])) * (0.5 * 6.0 ** u[:, :1, None])
    angle = 2.0 * np.pi * u[:, order + 1:, None]
    # chol @ z elementwise, so that one set and a stack of sets round alike
    pts[::2] = r * np.cos(angle) * chol[:, 0] + r * np.sin(angle) * chol[:, 1]
    return pts


def klm_check(w, seed=0):
    """Search for a finite-order positivity violation.

    Samples TRIALS_PER_ORDER point sets of each order up to MAX_ORDER and
    records the worst minimum eigenvalue seen.  Stops early with a
    reproducible witness once an eigenvalue falls below -TOL.  A
    "no_violation_found" verdict is not a positivity proof.
    """
    if abs((tr := trace(w)) - 1.0) > 1e-3:
        raise ValueError(f"grid must have unit trace for the positivity search, found {tr:.6g}; "
                         "axes too narrow for the state leave part of its mass off the grid")
    cov = covariance_from_grid(w).sigma
    fsw = SymplecticFourier(w)  # after the covariance, whose transients set the peak memory
    if np.linalg.eigvalsh(cov).min() > 0:
        chol = np.linalg.cholesky(cov)
    else:
        chol = np.sqrt(w.hbar / 2) * np.eye(2)
    base_scale = float(np.sqrt(2.0 * max(np.trace(cov) / 2.0, w.hbar / 4)))

    cap = _BLOCK_WORK // max(w.x_axis.count, w.p_axis.count)  # new transform points a block
    lattice = np.arange(TRIALS_PER_ORDER) % 2 == 1  # the trials that draw lattice sets
    table = np.empty((TRIALS_PER_ORDER, len(_STEPS)), dtype=complex)  # F at their scaled steps
    orders = [KLMOrderRecord(1, TRIALS_PER_ORDER, fsw.trace)]  # every order-1 matrix is [[trace]]
    for order in range(2, MAX_ORDER + 1):
        pts = _point_sets(seed, order, TRIALS_PER_ORDER, chol, base_scale)
        j, k = _pairs(order)
        new = np.arange(_STEP_OF[_pairs(order - 1)].max(initial=-1) + 1, _STEP_OF[j, k].max() + 1)
        done = np.cumsum(np.r_[0, np.where(lattice, new.size, j.size)])  # new points before a trial
        worst, stop = np.inf, 0
        while stop < TRIALS_PER_ORDER:  # a block of at most `cap` new points, or one trial
            start, stop = stop, int(np.searchsorted(done, done[stop] + cap, "right")) - 1
            stop = max(stop, start + 1)
            blk, odd = pts[start:stop], lattice[start:stop]  # a lattice blk[t, 1] is (scale_t, 0)
            rand, lat = blk[~odd], start + np.flatnonzero(odd)[:, None]
            z = np.concatenate([(rand[:, j] - rand[:, k]).reshape(-1, 2),
                                (blk[odd, 1, :1, None] * _STEPS[new]).reshape(-1, 2)])
            fz, n = fsw(z), len(rand) * j.size
            table[lat, new] = fz[n:].reshape(-1, new.size)
            f = np.empty((stop - start, j.size), dtype=complex)
            f[~odd], f[odd] = fz[:n].reshape(-1, j.size), table[lat, _STEP_OF[j, k]]
            vals, vecs = np.linalg.eigh(_phased(f, blk, w.hbar, fsw.trace))
            bad = np.flatnonzero(vals[:, 0] < -TOL)
            i = int(bad[0]) if bad.size else len(vals) - 1  # the last trial the search reads
            worst = min(worst, float(vals[:i + 1, 0].min()))
            if bad.size == 0:
                continue
            trial = start + i
            witness = KLMWitness(order, pts[trial], vecs[i, :, 0], float(vals[i, 0]), trial,
                                 "lattice" if trial % 2 else "random")
            abs_sum, fsw = fsw.abs_sum, None  # the re-check reads only the grid and sum|W|
            _verify(w, witness, abs_sum)
            orders.append(KLMOrderRecord(order, trial + 1, worst))
            return KLMReport("violation_certificate", orders, witness, seed)
        orders.append(KLMOrderRecord(order, TRIALS_PER_ORDER, worst))
    return KLMReport("no_violation_found", orders, None, seed)


def _verify(w, witness, abs_sum):
    """Raise unless the witness's quadratic form reproduces its eigenvalue.

    The folded search quadrature and the unfolded re-check differ by round-off.
    An entry of F sums n_x + n_p terms of |W| dA against phases p x' - x p' of
    size up to theta = max|dp| max|x| + max|dx| max|p| (the point differences
    against the axes), so it is good to eps (theta + n_x + n_p) sum|W| dA, and
    v^H F v, for a unit v, to `order` times that; the bound allows four times it.
    The search's dropped quadrants add 3 (n_x + n_p) eps `abs_sum` dA at most, within it.
    """
    value = witness_quadratic_form(w, witness)
    dx, dp = np.ptp(witness.points, axis=0)
    theta = dp * max(-w.x_axis.min, w.x_axis.max) + dx * max(-w.p_axis.min, w.p_axis.max)
    roundoff = np.finfo(float).eps * float(abs_sum * w.cell_area)
    bound = 4 * witness.order * (theta + w.x_axis.count + w.p_axis.count) * roundoff
    if not (value < -TOL and abs(value - witness.min_eigenvalue) <= bound):
        raise ValueError(f"KLM witness does not reproduce: v^H F v = {value:.3e}, "
                         f"eigenvalue {witness.min_eigenvalue:.3e}")


def witness_quadratic_form(w, witness):
    """Re-evaluate a witness: v^H F v for the stored points and eigenvector,
    each difference z = (x, p) transformed by the unfolded sum exp(i p x') @ W
    @ exp(-i x p') dA, independent of the folded quadrature that found it."""
    pts, v = witness.points, witness.eigenvector
    j, k = _pairs(len(pts))
    x, p = (pts[j] - pts[k]).T
    px = np.outer(p, w.x_axis.points)
    rows = np.cos(px) @ w.values + 1j * (np.sin(px) @ w.values)
    f = (rows * np.exp(-1j * np.outer(x, w.p_axis.points))).sum(axis=1) * w.cell_area
    sig = pts[j, 1] * pts[k, 0] - pts[j, 0] * pts[k, 1]
    upper = f * np.exp(0.5j * PHASE_SIGN * w.hbar * sig)  # F[j, k]; F[k, j] is its conjugate
    return float(trace(w) * np.vdot(v, v).real + 2 * (v[j].conj() * upper * v[k]).real.sum())
