"""Reference constructions with known verdicts.

The quartic-transform family defined below satisfies every second-moment
uncertainty criterion once alpha*beta >= hbar^2/4, yet is never the Wigner
distribution of a state: its fourth momentum moment equals -24*beta^2 < 0,
which no positive operator can produce.  A hard-truncated phase-space bump
provides the compact-support regime.
"""

import warnings

import numpy as np

from .states import (_CHUNK_ROWS, TAIL_TOL, WignerGrid, _abs_max, _boundary_band_sum, _chirp_sum,
                     default_axis)

__all__ = [
    "narcowich_oconnell_grid",
    "moment_p4",
    "truncated_bump_grid",
]

# Default axis of the quartic-transform family: its second moments sit exactly
# on the uncertainty boundary for alpha*beta = hbar^2/4, so the tails must be
# resolved to ~1e-12 for the boundary verdicts to come out right; at
# alpha ~ 0.5, 768 points over a half-width of 28 achieve that.
NO_COUNT, NO_EXTENT = 768, 28.0
NO_SOURCE_COUNT = 4096  # samples of each 1-d profile before the chirp-z transform
NO_BOUNDARY_TOL = 1e-6  # largest |W| on the grid's frame, relative to its peak


def _inverse_transform_1d(profiles, source, axis):
    """(1/2pi) sum_s exp(-i t s) profile(s) ds at the points t of `axis`.

    `profiles` holds one profile per row on the uniform `source` grid; the
    sums are computed exactly by a chirp-z transform.
    """
    ds = source[1] - source[0]
    out = _chirp_sum(profiles, source[0], ds, axis.min, axis.spacing, axis.count, sign=-1)
    return out * ds / (2 * np.pi)


def narcowich_oconnell_grid(alpha=0.5, beta=0.5, x_axis=None, p_axis=None, hbar=1.0):
    """Phase-space function whose 2-d Fourier transform (kernel exp(i(xx'+pp')))
    equals (1 - alpha x^2/2 - beta p^2/2) exp(-(alpha^2 x^4 + beta^2 p^4)).

    The inverse transform with normalization (2 pi)^-2 gives a real grid of
    unit trace whose covariance matrix is exactly diag(alpha, beta).  It
    factors into 1-d transforms of the x and p profiles, each sampled on
    NO_SOURCE_COUNT points and summed onto the axes by a chirp-z transform.
    Raises when the grid cannot resolve the tails.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    if x_axis is None:
        x_axis = default_axis(count=NO_COUNT, extent=NO_EXTENT)
    if p_axis is None:
        p_axis = x_axis

    # source range where exp(-a^2 s^4) has decayed below 1e-20
    ext = 1.35 * (np.log(1e20) / min(alpha, beta) ** 2) ** 0.25
    source = np.linspace(-ext, ext, NO_SOURCE_COUNT)
    ax = np.exp(-alpha**2 * source**4)
    bp = np.exp(-beta**2 * source**4)

    fa, fa2 = _inverse_transform_1d(np.stack([ax, source**2 * ax]), source, x_axis)
    fb, fb2 = _inverse_transform_1d(np.stack([bp, source**2 * bp]), source, p_axis)

    # W = a @ b, a = (fa - alpha fa2 / 2, -beta fa / 2), b = (fb, fb2): real and
    # imaginary parts are real (n x 4) @ (4 x n) products, the imaginary one dropped first
    a, b = np.stack([fa - 0.5 * alpha * fa2, -0.5 * beta * fa], axis=1), np.stack([fb, fb2])
    imag_residual = float(_abs_max(np.hstack([a.real, a.imag]) @ np.vstack([b.imag, b.real])))
    vals = np.hstack([a.real, -a.imag]) @ np.vstack([b.real, b.imag])

    peak, frame = _abs_max(vals), max(_abs_max(vals[[0, -1]]), _abs_max(vals[:, [0, -1]]))
    if frame > NO_BOUNDARY_TOL * peak:
        raise ValueError(
            f"grid does not resolve the transform tails (boundary ratio {frame / peak:.2e}); "
            "widen the axes")
    return WignerGrid(x_axis, p_axis, vals, hbar, imag_residual)


def moment_p4(w):
    """Fourth momentum moment int p^4 W dx dp, a Riemann sum over the p-marginal.

    Warns when the boundary band carries more than TAIL_TOL of the
    integrand mass (the moment has not converged on this grid).
    """
    p4 = w.p_axis.points ** 4
    total = float(p4 @ w.values.sum(axis=0) * w.cell_area)
    band, weight = _boundary_band_sum(w.values, np.zeros(w.x_axis.count), p4)
    if band > TAIL_TOL * weight:
        warnings.warn("fourth moment may not have converged (heavy tail at the boundary)")
    return total


def truncated_bump_grid(x_axis, p_axis, hbar=1.0, radius=1.0, profile="cosine"):
    """Unit-trace bump supported on the disk |z| <= radius, zero outside.

    Such hard-truncated grids can never be Wigner distributions; they are
    used to exercise the compact-support detector and the domination fit.
    `profile` is "cosine" (smooth cos^2 cap) or "indicator" (flat top).
    """
    if profile not in ("cosine", "indicator"):
        raise ValueError(f"unknown profile: {profile}")
    xs, ps = x_axis.points, p_axis.points
    vals = np.zeros((x_axis.count, p_axis.count))
    for r0 in range(0, len(vals), _CHUNK_ROWS):  # by row blocks
        r = np.sqrt(xs[r0:r0 + _CHUNK_ROWS, None] ** 2 + ps**2)
        inside, block = r < radius, vals[r0:r0 + len(r)]
        block[inside] = (np.cos(0.5 * np.pi * r[inside] / radius) ** 2
                         if profile == "cosine" else 1.0)
    area = x_axis.spacing * p_axis.spacing
    total = vals.sum() * area  # over the whole array, as one pairwise sum
    if total <= 0:
        raise ValueError("bump radius too small for the grid resolution")
    vals /= total
    return WignerGrid(x_axis, p_axis, vals, hbar)
