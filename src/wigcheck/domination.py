"""Gaussian decay-envelope fits and the necessity verdict they support.

Two fits are provided.  `hardy_fit` bounds a wavefunction and its Fourier
transform by Gaussians exp(-a x^2 / 2 hbar) and exp(-b p^2 / 2 hbar); for
any nonzero state the fitted rates must satisfy a*b <= 1, with equality
only for Gaussians.  `fit_dominating_gaussian` bounds a Wigner grid by
C exp(-M z.z / hbar) while maximizing the largest symplectic eigenvalue
mu_1 of M; a certified mu_1 > 1 proves the grid is not the Wigner
distribution of any density operator.  For one degree of freedom
mu_1 = sqrt(det M) and the constraints are linear in M, so the fit is a
least-area centred (Loewner-John) ellipse, solved exactly by basis exchange
and certified by a duality gap.
"""

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .states import _CHUNK_ROWS, _abs_max, _chirp_sum
from .symplectic import symplectic_spectrum

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
HARDY_CAP_FACTOR = 10.0  # largest C of a decay fit, relative to the peak amplitude
FIT_FLOOR = 1e-9  # W / max W below which values are quadrature noise, not constraints
C_MAX_FACTOR = 1.25  # default cap on the domination constant C, relative to max W
# cap on C for a compactly supported grid, which an arbitrarily tight
# Gaussian dominates once C may grow
COMPACT_C_MAX_FACTOR = 10.0
# compact support: values above SUPPORT_THRESHOLD * peak sit at least
# MARGIN_CELLS inside the grid, and those outside that box below HARD_ZERO * peak
SUPPORT_THRESHOLD, MARGIN_CELLS, HARD_ZERO = 1e-10, 2, 1e-14
# excess of w^T M w over 1 that counts as rounding, per unit of |q| @ |m|
CONTACT_TOL = 64 * np.finfo(float).eps
MAX_EXCHANGES = 100  # the benchmark grids take at most 10
# duality gap, in log det M, up to which the fit counts as the optimum
GAP_TOL = 1e-9
# sine under which scaled points count as one line; non-collinear points of
# an n x n grid are at least ~1/n^2 apart
LINE_SIN = 1e-9
# rounding allowance of the pointwise re-check of the fitted envelope
DOMINATION_RTOL = 1e-9
_POINT_BLOCK = 16384  # scaled points per block of a pass over the constraints


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


def _decay_rate(xs, amp, hbar, tail_start, floor=1e-13):
    """Largest rate r with |f(x)| <= C exp(-r x^2 / 2 hbar) on the grid.

    The rate is anchored at C equal to the peak amplitude, fitted over the
    tail region, then limited so that the implied C never exceeds
    HARDY_CAP_FACTOR * peak anywhere.  Returns (rate, minimal valid C).
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
    capped = float(np.min((np.log(HARDY_CAP_FACTOR) + log_ratio[live]) / x2[live]))
    rate = min(anchored, capped, RATE_CAP)
    c_needed = peak * float(np.exp(np.max(np.log(amp[nz] / peak) + rate * x2[nz])))
    return rate, max(c_needed, peak)


def hardy_fit(psi):
    """Fit Gaussian decay rates for a wavefunction and its Fourier transform.

    The transform is evaluated on the points of the position axis by exact
    chirp-z quadrature, so both branches are fitted over the same physical
    range.
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

    phi = np.abs(_chirp_sum(psi.values, xs[0], d, xs[0] / hbar, d / hbar, xs.size, sign=-1))
    phi *= d / np.sqrt(2 * np.pi * hbar)
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

    a, ca = _decay_rate(xs, amp, hbar, tail_x)
    b, cb = _decay_rate(xs, phi, hbar, tail_p, floor=max(1e-13, 5.0 * edge))
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
    """Result of the dominating-Gaussian fit W(z) <= C exp(-M z.z / hbar).

    `contacts` are the phase-space points whose constraints bind, and
    `duality_gap` bounds how far log det M lies below the optimum (None when
    `unbounded`); `n_evaluations` counts the solver's basis exchanges.
    """

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
    contacts: np.ndarray
    duality_gap: float | None
    unbounded: bool


def domination_verdict(mu1):
    """Necessity verdict from the largest symplectic eigenvalue of the fit.

    mu_1 below 1 is compatible with a state, mu_1 above 1 certifies that no
    density operator has a Wigner distribution with this envelope; values
    within VERDICT_BAND of 1 are reported as boundary (tight Gaussian states).
    """
    if mu1 > 1.0 + VERDICT_BAND:
        return "not_a_wigner_distribution"
    if mu1 < 1.0 - VERDICT_BAND:
        return "compatible"
    return "boundary"


def _forms(w):
    """Rows (x^2, 2xp, p^2) of points w: w^T M w = _forms(w) @ (M_xx, M_xp, M_pp)."""
    x, p = w[..., 0], w[..., 1]
    out = np.empty(w.shape[:-1] + (3,))
    np.multiply(w, w, out=out[..., ::2])
    np.multiply(2.0 * x, p, out=out[..., 1])
    return out


def _through(w):
    """(M_xx, M_xp, M_pp) of the centred conic through 3 points w.

    Two points a, b stand for a, b and (a + b) / sqrt(2): the ellipse through
    those is the least-area one through a and b, M^-1 = a a^T + b b^T.  The
    solve is least squares, so that points on one ray give some conic, never
    the optimum, in place of an error.
    """
    if len(w) == 2:
        w = np.vstack([w, w.sum(axis=0) / np.sqrt(2.0)])
    return np.linalg.lstsq(_forms(w), np.ones(3), rcond=None)[0]


def _norm2(w):
    """|w_i|^2 of the rows of w, rounded as (w * w).sum(axis=1)."""
    return w[:, 0] * w[:, 0] + w[:, 1] * w[:, 1]


def _argmax(w, score):
    """(max, first index of the max) of score(block) over blocks of about
    _POINT_BLOCK rows of w: a pass holds one block's forms at a time.  No
    block but a whole w has one row: numpy rounds a one-row matrix-vector
    product as a dot, unlike the same row of a longer product."""
    best, at, stops = -np.inf, 0, [*range(_POINT_BLOCK, len(w) - 1, _POINT_BLOCK), len(w)]
    for s, e in zip([0, *stops], stops):
        values = score(w[s:e])
        k = int(np.argmax(values))
        if values[k] > best:
            best, at = values[k], s + k
    return best, at


def _lowner_john(w, a):
    """Largest-det M with w_i^T M w_i <= 1 for all rows of w, which span the plane.

    Basis exchange: start from the farthest point w_a and the one spanning the
    largest area with it; while a constraint k is violated, move to the
    optimum over the basis and k, the largest-det ellipse through k and one
    or two basis points, each scaled down to hold on the basis and k.  det M
    falls at every exchange and the problem has combinatorial dimension 3, so
    the loop ends at the exact optimum.  Returns (M, basis, exchanges), M
    scaled to hold everywhere.
    """
    def excess(block):  # of q @ m over 1, and the largest q @ m of the pass
        nonlocal r_max
        q = _forms(block)
        r = q @ m
        r_max = max(r_max, r.max())
        # rounding of q @ m is a few ulp of |q| @ |m|, which exceeds q @ m ~ 1
        # by up to ~cond(M) for a thin ellipse
        return r - np.abs(q, out=q) * CONTACT_TOL @ np.abs(m)

    b = _argmax(w, lambda block: np.abs(w[a, 0] * block[:, 1] - w[a, 1] * block[:, 0]))[1]
    basis, m = [a, b], _through(w[[a, b]])
    for exchanges in range(MAX_EXCHANGES + 1):
        r_max = -np.inf
        top, k = _argmax(w, excess)
        if top <= 1.0 or exchanges == MAX_EXCHANGES:
            m = m / r_max
            return np.array([[m[0], m[1]], [m[1], m[2]]]), basis, exchanges
        rows, best = _forms(w[basis + [k]]), -np.inf
        for sub in [*combinations(basis, 1), *combinations(basis, 2)]:
            cand = _through(w[[*sub, k]])
            cand = cand / max(1.0, float((rows @ cand).max()))
            det = cand[0] * cand[2] - cand[1] * cand[1]
            if cand[0] > 0 and det > best:
                best, m, new = det, cand, [*sub, k]
        basis = new


def _duality_gap(M, w):
    """log det of the optimum is at most log det M + this, from the contacts w.

    By weak duality, any weights lam >= 0 bound log det of every feasible M'
    by -log det W - 2 + sum(lam), W = sum_i lam_i w_i w_i^T; the weights here
    solve W = M^-1 (least squares, clipped at 0).
    """
    f = _forms(w) * [1.0, 0.5, 1.0]
    target = np.linalg.inv(M)[[0, 0, 1], [0, 1, 1]]
    lam = np.clip(np.linalg.lstsq(f.T, target, rcond=None)[0], 0.0, None)
    W = lam @ f
    det_w = W[0] * W[2] - W[1] * W[1]
    return float(-np.log(np.linalg.det(M) * det_w) - 2.0 + lam.sum()) if det_w > 0 else None


def _line_envelope(w, mu):
    """(M, [a]) with mu_1(M) = mu for points w that do not span the plane, else (None, [a]).

    M's form is diagonal along the points' line and its normal, with the
    farthest point w_a on its boundary: M = w_a w_a^T / |w_a|^4 + mu^2 n n^T,
    n = w_a turned by a right angle; M = mu I, and no a, when there is no point.
    """
    if not len(w):
        return mu * np.eye(2), []
    top, a = _argmax(w, _norm2)
    if _argmax(w, lambda block: np.abs(w[a, 0] * block[:, 1] - w[a, 1] * block[:, 0])
               > LINE_SIN * np.sqrt(top * _norm2(block)))[0]:
        return None, [a]  # a point off the line through w_a
    normal = np.array([-w[a, 1], w[a, 0]])
    M = np.outer(w[a], w[a]) / top ** 2 + mu * mu * np.outer(normal, normal)
    form = M[[0, 0, 1], [0, 1, 1]]
    return M / max(1.0, float(_argmax(w, lambda block: _forms(block) @ form)[0])), [a]


def fit_dominating_gaussian(w, c_max_factor=C_MAX_FACTOR):
    """Tightest dominating Gaussian of a Wigner grid, maximizing mu_1(M).

    Constraints use the points with W >= FIT_FLOOR * max(W): negative values
    satisfy any Gaussian bound, and values under the floor are below the
    quadrature noise of grid-built states.  With C = c_max_factor * max(W),
    c_max_factor > 1, each reads w_i^T M w_i <= 1, w_i = z_i / sqrt(b_i),
    b_i = hbar log(C / W_i) > 0.  As mu_1 = sqrt(det M), the fit is the
    least-area centred (Loewner-John) ellipse of the points +-w_i, solved
    exactly by `_lowner_john`; `converged` means its duality gap is at most
    GAP_TOL.  Points w_i that do not span the plane (one line through the
    origin, within a sine of LINE_SIN, or none away from it) leave mu_1
    unbounded: the certificate is `unbounded` with the M of `_line_envelope`
    at mu_1 = 2 (1 + VERDICT_BAND), twice the verdict threshold.
    C is recomputed over every constraint; the check raises ValueError if it
    exceeds c_max_factor * max(W) beyond rounding.  Besides its max and count
    passes, one stream of the grid by row blocks fills the points w_i and the
    constraints' grid indices, the only data held; the solver's passes and the
    re-check of C read them by point blocks.  The fit reads W / max(W) alone,
    so it does not depend on the grid's trace.
    """
    if not (np.isfinite(c_max_factor) and c_max_factor > 1.0):
        raise ValueError(f"c_max_factor must be finite and > 1, got {c_max_factor!r}")
    peak = w.values.max()
    if peak <= 0:
        raise ValueError("grid has no positive values to dominate")
    n_constraints = int(np.count_nonzero(w.values >= FIT_FLOOR * peak))
    xs, ps = w.x_axis.points, w.p_axis.points
    wpts, where, live = np.empty((n_constraints, 2)), np.empty(n_constraints, int), 0

    def points(at):  # z at flat grid indices
        return np.stack([xs[at // len(ps)], ps[at % len(ps)]], axis=1)

    for r0 in range(0, len(xs), _CHUNK_ROWS):
        block = w.values[r0:r0 + _CHUNK_ROWS].ravel()
        at = np.flatnonzero(block >= FIT_FLOOR * peak)
        budget = w.hbar * (np.log(c_max_factor) - np.log(block[at] / peak))
        at += r0 * len(ps)
        z = points(at)
        away = (z[:, 0] != 0) | (z[:, 1] != 0)
        if not away.all():  # the origin, at most one point: held last, for C alone
            where[-1:], at, z, budget = at[~away], at[away], z[away], budget[away]
        end = live + len(z)
        np.divide(z, np.sqrt(budget)[:, None], out=wpts[live:end])
        where[live:end], live = at, end
    wpts = wpts[:live]
    exchanges, gap = 0, None
    M, basis = _line_envelope(wpts, 2.0 * (1.0 + VERDICT_BAND))
    unbounded = M is not None
    if not unbounded:
        M, basis, exchanges = _lowner_john(wpts, basis[0])
        gap = _duality_gap(M, wpts[basis])
    converged = unbounded or (gap is not None and gap <= GAP_TOL)
    contacts = points(where[basis])
    del wpts
    if not converged:
        warnings.warn("dominating-Gaussian fit did not certify its optimum; returning best found")

    try:
        spectrum = symplectic_spectrum(M)
    except ValueError as exc:
        raise ValueError(f"dominating fit M: {exc}") from exc
    form = M[[0, 0, 1], [0, 1, 1]]
    C = float(_argmax(where, lambda at: np.take(w.values, at)
                      * np.exp(_forms(points(at)) @ form / w.hbar))[0])
    if C > c_max_factor * peak * (1.0 + DOMINATION_RTOL):
        raise ValueError(f"dominating fit needs C = {C:.6g} above the cap "
                         f"{c_max_factor:g} * max W = {c_max_factor * peak:.6g}")
    mu1 = float(spectrum[0])
    return DominationCertificate(
        M=M, C=C, spectrum=spectrum, mu1=mu1,
        verdict=domination_verdict(mu1), hbar=w.hbar,
        c_max_factor=c_max_factor, floor=FIT_FLOOR,
        n_constraints=n_constraints, converged=converged,
        n_evaluations=exchanges, contacts=contacts, duality_gap=gap,
        unbounded=unbounded,
    )


def compact_support_flag(w):
    """Detect genuinely compact support on the grid.

    True when all values above SUPPORT_THRESHOLD * peak sit inside a box
    MARGIN_CELLS inside the grid AND the values outside the box inflated by
    MARGIN_CELLS are numerically zero (below HARD_ZERO * peak).  Exponential tails cross
    the threshold smoothly and fail the second test.  Returns
    (flag, diagnostics).
    """
    v = w.values
    row_max, col_max = _abs_max(v, axis=1), _abs_max(v, axis=0)  # max |W| per row, column
    peak = row_max.max()
    diag = {"support_threshold": SUPPORT_THRESHOLD, "margin_cells": MARGIN_CELLS}
    if peak == 0:
        diag["reason"] = "grid is identically zero"
        return False, diag
    live_rows = np.flatnonzero(row_max > SUPPORT_THRESHOLD * peak)  # the peak's row at least
    live_cols = np.flatnonzero(col_max > SUPPORT_THRESHOLD * peak)
    i0, i1, j0, j1 = (int(e) for e in (live_rows[0], live_rows[-1], live_cols[0], live_cols[-1]))
    nx, np_ = v.shape
    diag["box"] = {"x": [i0, i1], "p": [j0, j1]}
    interior = (i0 >= MARGIN_CELLS and j0 >= MARGIN_CELLS
                and i1 < nx - MARGIN_CELLS and j1 < np_ - MARGIN_CELLS)
    if not interior:
        diag["reason"] = "support box touches the grid boundary"
        return False, diag
    a0, a1 = max(i0 - MARGIN_CELLS, 0), min(i1 + MARGIN_CELLS, nx - 1)
    b0, b1 = max(j0 - MARGIN_CELLS, 0), min(j1 + MARGIN_CELLS, np_ - 1)
    # outside the inflated box: the rows above and below it, the side strips of its rows
    outside = [row_max[:a0], row_max[a1 + 1:], v[a0:a1 + 1, :b0], v[a0:a1 + 1, b1 + 1:]]
    outer_max = max((float(_abs_max(part)) for part in outside if part.size), default=0.0)
    diag["outer_max_ratio"] = outer_max / peak
    flag = bool(outer_max <= HARD_ZERO * peak)
    if not flag:
        diag["reason"] = "tail does not vanish outside the support box"
    return flag, diag
