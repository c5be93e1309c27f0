"""Grid-based quantum states for one degree of freedom.

Wavefunctions live on a uniform position grid whose points are
x_m = (m - n/2) * dx, so the origin is always a grid point and the grid
conjugate to it under the discrete Fourier transform has the same layout.
Wigner grids produced from pure states carry the momentum axis conjugate
to the position axis (dp = pi*hbar / (n*dx)); grids built from closed
forms may use any pair of axes.
"""

import json
import os
import warnings
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, partial
from itertools import chain
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .symplectic import symplectic_spectrum

__all__ = [
    "AxisGrid",
    "default_axis",
    "wigner_momentum_axis",
    "WaveFunctionGrid",
    "WignerGrid",
    "fock_state",
    "wigner_of_pure",
    "wigner_gaussian",
    "mixture_wigner",
    "trace",
    "rescale",
    "SymplecticFourier",
    "kernel_from_wigner",
    "operator_spectrum_oracle",
    "save_wigner_manifest",
    "load_wigner_manifest",
    "as_dict",
]

FOCK_BOUNDARY_TOL = 1e-12  # largest edge amplitude of a Fock state, relative to its peak
NORM_TOL = 1e-6  # largest deviation of a pure state's norm from 1
ALIASING_TOL = 1e-8  # largest Wigner amplitude on the outer momentum columns, relative
TAIL_TOL = 1e-6  # largest share of a moment's weight on the boundary band
_CHUNK_ROWS = 64  # grid rows per block of a streamed pass (the kernel: row pairs per chirp-z)
_ALIGN = 8  # SymplecticFourier's least rows and column multiple: OpenBLAS rounds by batch
_read_only = partial(as_strided, writeable=False)  # a read-only view of an array


@dataclass(frozen=True)
class AxisGrid:
    """Uniform 1-d grid with inclusive endpoints."""

    min: float
    max: float
    count: int

    def __post_init__(self):
        if not (np.isfinite(self.min) and np.isfinite(self.max) and self.min < self.max):
            raise ValueError(f"axis needs finite min < max, got {self.min!r}, {self.max!r}")
        if self.count < 16:
            raise ValueError("count must be >= 16")

    @property
    def spacing(self):
        return (self.max - self.min) / (self.count - 1)

    @property
    def points(self):
        return np.linspace(self.min, self.max, self.count)

    @classmethod
    def centered(cls, count, step):
        """Axis of the points (m - count/2) * step, m = 0 .. count-1, so the
        origin is a grid point; `count` must be even."""
        if count % 2 != 0:
            raise ValueError("count must be even")
        return cls(-(count // 2) * step, (count // 2 - 1) * step, count)

    @classmethod
    def from_dict(cls, d):
        count = d["count"]  # 16.0 is a count; a bool, a string or 16.9 is not
        if isinstance(count, bool) or not isinstance(count, (int, float)) or count % 1:
            raise ValueError(f"axis count must be an integer, got {count!r}")
        for key in ("min", "max"):  # float(True) would be 1.0, float("1") 1.0
            if isinstance(d[key], bool) or not isinstance(d[key], (int, float)):
                raise ValueError(f"axis {key} must be a number, got {d[key]!r}")
        return cls(float(d["min"]), float(d["max"]), int(count))


def default_axis(hbar=1.0, count=256, extent=8.0):
    """Centered position axis covering [-extent*sqrt(hbar), extent*sqrt(hbar))."""
    return AxisGrid.centered(count, 2.0 * extent * np.sqrt(hbar) / count)


def wigner_momentum_axis(axis, hbar=1.0):
    """Momentum axis conjugate to `axis` for the Wigner transform (dp = pi*hbar/(n*dx))."""
    return AxisGrid.centered(axis.count, np.pi * hbar / (axis.count * axis.spacing))


def _fast_len(n):
    """Smallest 11-smooth integer >= n: the sizes numpy's FFT (pocketfft)
    handles fastest."""
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _chirp_sum(v, s0, ds, t0, dt, m, sign=1, imag=None):
    """out[..., k] = sum_j v[..., j] exp(sign*i (t0 + k*dt)(s0 + j*ds)) for k < m,
    with v + i imag in place of v when `imag` is given (its rows padded with zeros).

    Exact for any pair of uniform grids (chirp-z transform): Bluestein's
    jk = (j^2 + k^2 - (k-j)^2)/2 turns the sum into a convolution with a
    chirp, done by FFT.  Indices are counted from the middle of each grid so
    the chirp phases, and their round-off, stay small.
    """
    v = np.asarray(v)
    n = v.shape[-1]
    jc, kc = n // 2, m // 2
    sc, tc = s0 + jc * ds, t0 + kc * dt
    a = sign * dt * ds
    j = np.arange(n) - jc
    k = np.arange(m) - kc
    q = np.arange(-(n - 1), m) - (kc - jc)
    size = _fast_len(n + max(m, 1) - 1)  # room for v even when m = 0
    pre = np.exp(1j * (sign * tc * ds * j + 0.5 * a * (j * j)))
    chirp = np.fft.fft(np.exp(-0.5j * a * (q * q)), size)
    conv = np.zeros(v.shape[:-1] + (size,), dtype=complex)  # the one work array, FFT'd in place
    head = conv[..., :n]
    head[...] = v
    if imag is not None:  # v + i imag, built in the work array
        head[:len(imag)].imag = imag
    head *= pre
    np.fft.fft(conv, axis=-1, out=conv)
    conv *= chirp
    np.fft.ifft(conv, axis=-1, out=conv)
    out = conv[..., n - 1:n - 1 + m]
    out *= np.exp(1j * (sign * (tc * sc + sc * dt * k) + 0.5 * a * (k * k)))
    return out


@dataclass
class WaveFunctionGrid:
    """Complex wavefunction samples on a position axis."""

    axis: AxisGrid
    values: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.axis.count,):
            raise ValueError("values must match the axis length")

    def norm_squared(self):
        return float(np.sum(np.abs(self.values) ** 2) * self.axis.spacing)


@dataclass(frozen=True)
class WignerGrid:
    """Real phase-space samples W[i, j] at (x_i, p_j); finite, with hbar > 0; a value."""

    x_axis: AxisGrid
    p_axis: AxisGrid
    values: np.ndarray
    hbar: float = 1.0
    imag_residual: float = 0.0

    def __post_init__(self):
        # read-only (not the caller's array); a copy of a strided view frees its parent
        object.__setattr__(self, "values", _read_only(np.ascontiguousarray(self.values, float)))
        if self.values.shape != (self.x_axis.count, self.p_axis.count):
            raise ValueError("values must have shape (len(x_axis), len(p_axis))")
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar!r}")
        if not np.isfinite(self.values).all():
            raise ValueError("Wigner values must be finite (found NaN, infinity or null)")

    @property
    def cell_area(self):
        return self.x_axis.spacing * self.p_axis.spacing

    # the whole-grid sums, each taken at most once, on first read, and read-only
    total = cached_property(lambda self: self.values.sum())  # sum W, the trace's
    row_sums = cached_property(lambda self: _read_only(self.values.sum(axis=1)))  # x marginal
    col_sums = cached_property(lambda self: _read_only(self.values.sum(axis=0)))  # p marginal
    row_p_sums = cached_property(lambda self: _read_only(self.values @ self.p_axis.points))  # W@p
    abs_sums = cached_property(lambda self: _abs_sums(self.values))  # of |W|: rows, columns
    abs_sum = property(lambda self: self.abs_sums[0].sum())  # sum|W| of every round-off bound


def _hermite_functions(n, xi):
    """Normalized Hermite functions h_0..h_n at points xi (stable recurrence)."""
    h = np.zeros((n + 1, xi.size))
    h[0] = np.pi ** -0.25 * np.exp(-0.5 * xi**2)
    if n >= 1:
        h[1] = np.sqrt(2.0) * xi * h[0]
    for k in range(2, n + 1):
        h[k] = np.sqrt(2.0 / k) * xi * h[k - 1] - np.sqrt((k - 1) / k) * h[k - 2]
    return h


def fock_state(n, axis=None, hbar=1.0):
    """n-th harmonic oscillator eigenfunction on the grid, Riemann-normalized.

    Raises when the grid is too narrow to hold the state (boundary amplitude
    above FOCK_BOUNDARY_TOL relative to the peak).
    """
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    if axis is None:
        axis = default_axis(hbar)
    # an edge inside the classical turning point sqrt((2n+1) hbar) fails the
    # boundary check below; saying so first spares building n+1 Hermite rows
    edge = max(min(-axis.min, axis.max), 0.0)
    if n > float((edge * edge / hbar - 1) / 2):  # a Python float compares with any int
        raise ValueError("grid too narrow: wavefunction does not vanish at the boundary")
    xs = axis.points
    vals = hbar ** -0.25 * _hermite_functions(n, xs / np.sqrt(hbar))[n]
    peak = np.abs(vals).max()
    if max(abs(vals[0]), abs(vals[-1])) > FOCK_BOUNDARY_TOL * peak:
        raise ValueError("grid too narrow: wavefunction does not vanish at the boundary")
    vals = vals / np.sqrt(np.sum(np.abs(vals) ** 2) * axis.spacing)
    return WaveFunctionGrid(axis, vals, hbar)


def wigner_of_pure(psi):
    """Wigner distribution of a normalized pure state: the mixture of one."""
    return mixture_wigner([(1.0, psi)])


def wigner_gaussian(mean, sigma, x_axis, p_axis, hbar=1.0):
    """Gaussian Wigner function with the given mean and covariance matrix.

    W(z) = (2 pi nu)^(-1) exp(-(z-mean)^T sigma^(-1) (z-mean)/2) with nu = det(sigma)^(1/2),
    the symplectic eigenvalue of sigma from the unit-free gate `symplectic.williamson`,
    whose refusals name the gaussian cov.
    """
    sigma = np.asarray(sigma, dtype=float)
    mean = np.asarray(mean, dtype=float)
    if sigma.shape != (2, 2) or mean.shape != (2,):
        raise ValueError("grid-based Gaussian states support one degree of freedom only")
    try:
        nu = symplectic_spectrum(sigma)[0]
    except ValueError as exc:
        raise ValueError(f"gaussian cov: {exc}") from exc
    inv = np.linalg.inv(sigma)
    xs, ps = x_axis.points - mean[0], p_axis.points - mean[1]
    xx, xp, pp = inv[0, 0] * xs * xs, 2 * inv[0, 1] * xs, inv[1, 1] * ps * ps
    vals = np.empty((x_axis.count, p_axis.count))
    for r0 in range(0, len(vals), _CHUNK_ROWS):  # the quadratic form, summed left to right
        rows = slice(r0, r0 + _CHUNK_ROWS)
        vals[rows] = np.exp(-0.5 * (xx[rows, None] + xp[rows, None] * ps + pp))
    vals /= 2 * np.pi * nu
    return WignerGrid(x_axis, p_axis, vals, hbar)


def mixture_wigner(components):
    """Wigner distribution of sum_i w_i |psi_i><psi_i| from (w_i, psi_i) pairs:
    positive weights summing to 1, normalized states on one axis and hbar.

    W(x, p) = (1/(pi*hbar)) int exp(-2 i p y / hbar) rho(x+y, x-y) dy with
    rho(x+y, x-y) = sum_i w_i psi_i(x+y) conj(psi_i(x-y)), by one centered DFT over
    y onto the conjugate momentum axis; the largest discarded imaginary part is kept.
    """
    components = list(components)
    if not components:
        raise ValueError("mixture needs at least one component")
    weights = np.array([w for w, _ in components], dtype=float)
    if np.any(weights <= 0):
        raise ValueError("mixture weights must be positive")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError("mixture weights must sum to 1")
    axis, hbar = components[0][1].axis, components[0][1].hbar
    n, lo = axis.count, axis.count - axis.count // 2
    kernels = []
    for weight, (_, psi) in zip(weights, components):
        if psi.axis != axis or psi.hbar != hbar:
            raise ValueError("mixture components live on incompatible grids")
        if abs(psi.norm_squared() - 1.0) > NORM_TOL:
            raise ValueError("wavefunction is not normalized")
        pad = np.concatenate([np.zeros(n, dtype=complex), psi.values, np.zeros(n, dtype=complex)])
        # psi(x_r + y) and psi(x_r - y) at offset y = (t - n//2) dx are [r, t] of these windows
        kernels.append((weight, sliding_window_view(pad, n)[lo:lo + n],
                        sliding_window_view(pad[::-1], n)[lo + n - 1:lo - 1:-1]))
    values, imag = np.empty((n, n)), []  # the real part, fftshifted back to centred columns
    work = np.empty((min(n, _CHUNK_ROWS), n), dtype=complex)  # one row block of the kernel
    term = np.empty_like(work) if len(kernels) > 1 else None  # a further component's block
    for r0 in range(0, n, _CHUNK_ROWS):
        rows = slice(r0, r0 + _CHUNK_ROWS)
        wc = work[:n - r0]
        for k, (weight, ahead, back) in enumerate(kernels):
            block = term[:n - r0] if k else wc
            # the products in ifftshifted column order: offsets 0 .. lo-1, then -(n//2) .. -1
            for dst, t in ((block[:, :lo], slice(n // 2, None)), (block[:, lo:], slice(0, n // 2))):
                np.multiply(ahead[rows, t], np.conjugate(back[rows, t], out=dst), out=dst)
            # the real and imaginary parts times a real weight: 1.0 leaves every bit
            np.multiply(block.view(float), weight, out=block.view(float))
            if k:
                wc += block
        np.fft.fft(wc, axis=1, out=wc)
        np.multiply(axis.spacing / (np.pi * hbar), wc, out=wc)
        values[rows, :n // 2], values[rows, n // 2:] = wc.real[:, lo:], wc.real[:, :lo]
        imag.append(_abs_max(wc.imag))
    w = WignerGrid(axis, wigner_momentum_axis(axis, hbar), values, hbar, float(max(imag)))
    edge, peak = _edge_and_peak(w.values)
    if edge > ALIASING_TOL * peak:
        warnings.warn(f"possible momentum aliasing: boundary amplitude ratio {edge / peak:.2e}")
    return w


def _boundary_band_sum(a, rw, cw, sums):
    """Sums of |a_ij| (rw_i + cw_j) over the outer two rows and columns of the
    2-d array `a`, each entry once, and over all of `a`: (band, whole).

    An array with at most four rows or columns is all band.  The whole sum
    comes from `sums`, the row and column sums of |a| (a grid's `abs_sums`,
    taken once), the band sum from its strips.
    """
    rows, cols = sums
    whole = float(rw @ rows + cw @ cols)
    n, m = a.shape
    ends = [(slice(0, min(2, k)), slice(max(2, k - 2), k)) for k in (n, m)]  # first, last two
    blocks = [(r, slice(None)) for r in ends[0]] + [(slice(2, n - 2), c) for c in ends[1]]
    band = sum(float((np.abs(a[r, c]) * (rw[r, None] + cw[c])).sum()) for r, c in blocks)
    return band, whole


def _abs_sums(a):
    """Row and column sums of |a|, by blocks of rows: no |a| copy.  Both are read-only."""
    rows, cols = np.empty(len(a)), np.zeros(a.shape[1])
    for r0 in range(0, len(a), _CHUNK_ROWS):
        mag = np.abs(a[r0:r0 + _CHUNK_ROWS])
        rows[r0:r0 + len(mag)] = mag.sum(axis=1)
        cols += mag.sum(axis=0)
    return _read_only(rows), _read_only(cols)


def _abs_max(a, axis=None):
    """max |a| along `axis` from two reductions, without an |a| copy."""
    return np.maximum(a.max(axis=axis), -a.min(axis=axis))


def _edge_and_peak(a):
    """max |a| on the outer two columns at either end, and over all of `a`."""
    return max(_abs_max(a[:, :2]), _abs_max(a[:, -2:])), _abs_max(a)


def trace(w):
    """Riemann-sum trace: sum of the grid values times the cell area."""
    return float(w.total * w.cell_area)


def _is_wigner_conjugate(w):  # dp = pi*hbar/(n*dx), on n points each
    area = w.p_axis.spacing * w.x_axis.count * w.x_axis.spacing
    return w.p_axis.count == w.x_axis.count and abs(area - np.pi * w.hbar) <= 1e-9 * np.pi * w.hbar


def rescale(w, lam):
    """W_lam(z) = lam^2 W(lam z), exactly: lam^2 times the values on the axes
    divided by lam, with the trace, hbar and imaginary residual kept.

    The kernel's momentum sum has period P = 2 pi hbar / dp in the separation,
    and P >= 2 L_x (L_x = n dx) keeps its alias copies off the kernel.  The
    relabel multiplies P / L_x by lam^2.  So for lam < 1 a DFT-conjugate grid
    (P = 2 L_x) is first resampled exactly at the momenta lam^2 p_k, and is
    refused if the state then reaches the outer two momentum columns (above
    ALIASING_TOL of the peak); any other grid is refused if lam^2 P < 2 L_x.
    """
    if lam <= 0:
        raise ValueError("rescale parameter must be positive")
    n, p_axis, values = w.x_axis.count, w.p_axis, w.values * lam**2
    if lam < 1 and _is_wigner_conjugate(w):
        # W[i, k] = sum_m c[i, m] exp(-2 i (p_k - p_0) (m*dx) / hbar) for the offsets
        # m = -(n//2) .. : the rows at the momenta lam^2 p_k, by row blocks
        dx, p_axis = w.x_axis.spacing, AxisGrid(lam**2 * p_axis.min, lam**2 * p_axis.max, n)
        for r0 in range(0, n, _CHUNK_ROWS):
            c = np.fft.fftshift(np.fft.ifft(values[r0:r0 + _CHUNK_ROWS], axis=1), axes=1)
            values[r0:r0 + len(c)] = _chirp_sum(
                c, -(n // 2) * dx, dx, 2 * (p_axis.min - w.p_axis.min) / w.hbar,
                2 * p_axis.spacing / w.hbar, n, sign=-1).real
        edge, peak = _edge_and_peak(values)
        if edge > ALIASING_TOL * peak:
            raise ValueError(f"rescale {lam:g}: the state does not fit the momentum axis "
                             f"shortened by lambda^2 to [{p_axis.min:.4g}, {p_axis.max:.4g}] "
                             f"(edge amplitude ratio {edge / peak:.2e}); more grid points "
                             f"lengthen it")
    elif lam < 1 and (need := w.p_axis.spacing * n * w.x_axis.spacing / (np.pi * w.hbar)) > lam**2:
        raise ValueError(f"rescale {lam:g} needs lambda >= {np.sqrt(need):.3g} on this grid: "
                         f"below it the relabelled axes have P < 2 L_x, and alias copies of "
                         f"the kernel's momentum sum reach the grid")
    axes = (AxisGrid(a.min / lam, a.max / lam, a.count) for a in (w.x_axis, p_axis))
    return WignerGrid(*axes, values, w.hbar, w.imag_residual)


def _fold_axis(a):
    """(s, c, offsets, once): pair a[n//2:] with a[::-1][s:] about c, a[n//2] if nearer 0 than
    the midpoint (a[0] then pairs with a zero); a centre point, paired with itself, counts once."""
    n, i, mid, pts = a.count, a.count // 2, 0.5 * (a.min + a.max), a.points
    if n % 2 or abs(pts[i]) >= abs(mid):  # the midpoint, a[n//2] itself for an odd count
        return i, mid, pts[i:] - mid, 1 - n % 2 / 2
    return i - 1, pts[i], np.append(pts[i:] - pts[i], pts[i] - pts[0]), 0.5


class SymplecticFourier:
    """Evaluator for F_sigma W(z) = int exp(i sigma(z, z')) W(z') dz'.

    A direct quadrature over the stored grid, so any z = (x, p) is admissible.  An axis
    folds about x_(n//2) if that is nearer 0 than its midpoint (any builder's axis), else
    about the midpoint; at the offsets u, v from the centres (x_c, p_c) the kernel is
    exp(i (p x_c - x p_c)) cos/sin(p u) cos/sin(x v), so a call is cos(p u) @ [W_ee | W_eo]
    and sin(p u) @ [W_oe | W_oo], a sum over v and the phase, in real arithmetic.  A
    quadrant with sum|Q| <= (n_x + n_p) eps sum|W| is not multiplied; the three it may drop
    add 3 (n_x + n_p) eps sum|W| dA at most, within klm._verify's fourfold round-off.  Fock
    states, their mixtures, centred Gaussians, N-O and the bump keep W_ee alone, a quarter
    of the unfolded work; a rotated squeezed Gaussian W_ee and W_oo.  The blocks take one
    grid, folded by row blocks.  F(-z) = conj F(z) exactly, no value depends on its batch
    (products span _ALIGN-multiple columns), `trace` is F(0); sum|W| is the grid's `abs_sum`.
    """

    def __init__(self, w):
        (s, self._xc, self._ox, x_once), (t, self._pc, self._op, p_once) = (
            _fold_axis(a) for a in (w.x_axis, w.p_axis))
        i, j, hx, hp = w.x_axis.count // 2, w.p_axis.count // 2, len(self._ox), len(self._op)
        mass = np.zeros((2, 2))  # sum|Q|
        self._blocks = np.zeros((2, hx, -(-2 * hp // _ALIGN) * _ALIGN))  # edge columns pair with 0
        v, f = w.values[:, j:], w.values[:, ::-1][:, t:]  # the upper and mirrored lower p halves
        lower = np.empty((min(hx, _CHUNK_ROWS), hp))  # the one temporary, a row block
        for op, block, q in zip((np.add, np.subtract), self._blocks, mass):  # [W_ee | W_eo], ..
            for r0 in range(0, hx, _CHUNK_ROWS):
                out, low = block[r0:r0 + _CHUNK_ROWS], lower[:hx - r0]
                up, lo = slice(i + r0, i + r0 + len(out)), slice(s + r0, s + r0 + len(out))
                k, m = len(w.values[up]), v.shape[1]  # the rows and columns with an upper partner
                for half, dst in ((f, low), (v, out[:, :m])):  # an edge row pairs with 0
                    op(half[up], half[::-1][lo][:k], out=dst[:k])
                    op(0.0, half[::-1][lo][k:], out=dst[k:])
                np.subtract(out[:, :hp], low, out=out[:, hp:2 * hp])
                out[:, :hp] += low
                out[0] *= x_once if r0 == 0 else 1.0
                out[:, 0] *= p_once
                q += [np.abs(out[:, c:c + hp], out=low).sum() for c in (0, hp)]
        self._kept = mass > (w.x_axis.count + w.p_axis.count) * np.finfo(float).eps * w.abs_sum
        # each x parity's product columns: [W_e | W_o], or its one kept quadrant's
        self._cols = [slice(0 if e else hp // _ALIGN * _ALIGN, self._blocks.shape[2] if o
                            else -(-hp // _ALIGN) * _ALIGN) for e, o in self._kept]
        self._area = w.cell_area
        self.trace = trace(w)

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        single = z.ndim == 1
        pts = np.atleast_2d(z)
        k, hp, kept = pts.shape[0], len(self._op), self._kept
        if 0 < k < _ALIGN:
            pts = np.concatenate([pts, np.zeros((_ALIGN - k, 2))])
        px = np.outer(pts[:, 1], self._ox)  # sin overwrites these angles; freed before xp is made
        c = np.cos(px) @ self._blocks[0, :, self._cols[0]] if kept[0].any() else None
        s = np.sin(px, out=px) @ self._blocks[1, :, self._cols[1]] if kept[1].any() else None
        del px
        xp = np.outer(pts[:, 0], self._op)
        cx = np.cos(xp) if kept[:, 0].any() else None
        sx = np.sin(xp, out=xp) if kept[:, 1].any() else None
        # sum over u, v of W(u, v) (cos pu + i sin pu)(cos xv - i sin xv), kept quadrants only
        terms = np.zeros((2, 2, len(pts)))
        for a, b in zip(*np.nonzero(kept)):
            col = b * hp - self._cols[a].start
            terms[a, b] = np.einsum("ij,ij->i", (c, s)[a][:, col:col + hp], (cx, sx)[b])
        re, im = terms[0, 0] + terms[1, 1], terms[1, 0] - terms[0, 1]
        theta = pts[:, 1] * self._xc - pts[:, 0] * self._pc
        out = _rotate(re * self._area, im * self._area, theta)[:k]
        return out[0] if single else out


def _rotate(re, im, theta):
    """(re + i im) exp(i theta) in real arithmetic, rounded alike at any array length."""
    c, s = np.cos(theta), np.sin(theta)
    return (re * c - im * s) + 1j * (re * s + im * c)


def _kernel_views(w, real_within=None, parity=False):
    """The two same-parity kernel blocks as read-only views of one transform
    b[r, m], grid row r at separation 2*m*dx, and the Weyl bound
    2dx sqrt(2) ||Im b||_F >= 2dx ||Im K||_F.  Entry (a, c), a >= c, of block
    `parity` is b[parity + a + c, a - c]: each entry of b is read once, as the
    lower triangle and the real diagonal; the upper triangle holds their
    conjugates.  Every read stays inside b.  A real row's chirp-z transform
    has T[-m] = conj T[m], so rows r and r + ceil(n/2) share one complex
    transform, _CHUNK_ROWS pairs at a time; each block adds its rows' sum of
    (Im b)^2 as it writes them.  With `real_within`, b holds only Re b (half
    a grid) while the bound stays within it; at the first block where it
    does not, the blocks are redone into a complex b.  With `parity` b is
    returned: rows 1 .. n/2 stand for their mirrors b[n - r] = conj b[r] (row
    n/2 made real; the bound counts each twice), row 0 for b[0, 0] = dp sum W[0]."""
    n, dp = w.x_axis.count, w.p_axis.spacing
    h = (n + 1) // 2  # rows of the even block; the odd one has n - h
    first, g, end = (1, (h + 1) // 2, h + 1) if parity else (0, h, n)  # r, r + g: one transform
    step = 2 * w.x_axis.spacing / w.hbar

    def write(b, r0):  # _CHUNK_ROWS rows of each half of rows first .. end; their sum of (Im b)^2
        lo = slice(first + r0, first + min(r0 + _CHUNK_ROWS, g))
        hi = slice(lo.start + g, min(lo.stop + g, end))  # an odd count's last row is alone
        low, high = b[lo], b[hi]
        t = _chirp_sum(w.values[lo], w.p_axis.min, dp, -(h - 1) * step, step, 2 * h - 1,
                       imag=w.values[hi])
        pos, neg = t[:, h - 1:], t[:, h - 1::-1]  # separations +-2*m*dx, m >= 0
        # a real b's rows pass through one complex block laid out as b's, so einsum sums alike
        work = None if b.dtype == complex else np.empty(low.shape, dtype=complex)
        sums = []
        for op, factor, rows in ((np.add, 0.5 * dp, low), (np.subtract, -0.5j * dp, high)):
            c = rows if work is None else work[:len(rows)]
            op(pos[:len(c)], np.conjugate(neg[:len(c)], out=c), out=c)
            c *= factor
            sums.append(float(np.einsum("ij,ij->", c.imag, c.imag)))
            rows.real[...] = c.real  # a real array is its own real part
        return sum(sums)

    b = np.zeros((h + h // 2 if parity else n, h), dtype=complex if real_within is None else float)
    imag_sq = 0.0
    for r0 in range(0, g, _CHUNK_ROWS):
        imag_sq += write(b, r0)
        bound = 2 * w.x_axis.spacing * np.sqrt((2 + 2 * parity) * imag_sq)
        if b.dtype == float and bound > real_within:
            del b  # Re b goes before the complex b is made
            return _kernel_views(w, parity=parity)
    if parity:
        b[0, 0], b[h] = dp * w.values[0].sum(), b[h].real
        return b, bound
    s = b.itemsize
    views = tuple(as_strided(b[p:], (size, size), ((h + 1) * s, (h - 1) * s), writeable=False)
                  for p, size in enumerate((h, n - h)))
    return views, bound


def kernel_from_wigner(w):
    """Operator kernel of a Wigner grid on its two same-parity sublattices.

    K(x_j, x_l) = sum_k W((x_j+x_l)/2, p_k) exp(i p_k (x_j-x_l) / hbar) dp.
    Returns the blocks (K[0::2, 0::2], K[1::2, 1::2]).  Their entries have
    j+l even, so the midpoint (x_j+x_l)/2 is grid row (j+l)/2 and nothing
    between grid rows enters.  Each block is the lower triangle of its
    `_kernel_views` view plus the conjugate transpose of the strict part,
    exactly Hermitian.  On DFT-conjugate axes this inverts the pure-state
    construction exactly.
    """
    views, _ = _kernel_views(w)
    return tuple(np.tril(view) + np.tril(view, -1).conj().T for view in views)


def operator_spectrum_oracle(w):
    """Ground-truth spectrum test: (even, odd), the eigenvalues of the two
    `kernel_from_wigner` blocks times 2dx, each in descending order.  By
    Cauchy interlacing a negative one is one of the whole kernel, so the grid
    is not a state; the mean of the two sums is the grid trace.  eigvalsh
    reads the lower triangles of the `_oracle_views` matrices.

    A grid mirror-symmetric in p has a real kernel; the computed one's imaginary
    part is round-off.  By Weyl's inequality dropping it moves each eigenvalue
    by at most ||Im K||_2 <= ||Im K||_F, so when 2dx times that is within the
    transform's round-off, eigvalsh solves the real parts, about twice as
    fast; any other grid keeps the complex Hermitian solve.  Where W[n - r, n - k] =
    W[r, k] and p_(n/2) = 0 (not on a manifest's [-9, 9]) the kernel commutes with
    parity: half the rows are transformed, half-size sectors solved."""
    scale = 2 * w.x_axis.spacing  # applied to the eigenvalues: no scaled copy of a block
    return tuple(np.sort(np.concatenate([np.linalg.eigvalsh(k, UPLO="L") for k in parts]))[::-1]
                 * scale for parts in _oracle_views(w)[0])


def _parity_defect(a):
    """The sum over rows r >= n/2, columns k >= 1 of |a[r, k] - a[n - r, n - k]|, plus
    sum|a[:, 0]|: the rows past n/2 less their mirrors, one half-grid difference."""
    n = len(a)
    diff = np.subtract(a[n // 2:, 1:], a[n - n // 2:0:-1, :0:-1])
    return float(np.abs(a[:, 0]).sum()) + float(np.abs(diff, out=diff).sum())


def _reversal_sectors(b, p, s):
    """Lower triangles of the even and odd sectors of M[a, c] = b[p + a + c, a - c],
    size s, on the vectors (e_a +- e_(s-1-a))/sqrt 2, a < t = s // 2, and e_t for odd s:
    A +- BJ, (BJ)[a, c] = conj M[s - 1 - c, a] = b[h - a + c, s - 1 - a - c], h = n/2."""
    t, h, size = s // 2, b.shape[1], b.itemsize
    even, odd = np.zeros((s - t, s - t), b.dtype), np.zeros((t, t), b.dtype)
    near = as_strided(b[p:], (t, t), ((h + 1) * size, (h - 1) * size), writeable=False)
    far = as_strided(b[h, s - 1:], (t, t), (-(h + 1) * size, (h - 1) * size), writeable=False)
    np.add(near, far, out=even[:t, :t])
    np.subtract(near, far, out=odd)
    if s % 2:  # the middle point is its own mirror: M[t, c] twice over sqrt 2
        even[t, :t] = np.sqrt(2) * as_strided(b[p + t, t:], (t,), ((h - 1) * size,))
        even[t, t] = b[p + s - 1, 0]
    return even, odd


def _oracle_views(w):
    """The matrices `operator_spectrum_oracle` solves per block, the Weyl bound on their
    eigenvalues' move from the blocks', and the round-off n eps sum|W| dA (the grid's
    `abs_sum`): the `_kernel_views` views, of Re b alone when 2dx ||Im K||_F is within it.
    x enters the kernel by row index alone, and with even counts and p_(n/2) = 0 to the bit
    p_(n-k) = -p_k: mirrored rows move an entry by at most dp times its midpoint row's share
    of the defect d (`_parity_defect`), and a column reads each row once: ||dK||_2 <= dp d.  While
    2 dA d, the real path's drop and 2dx ||K[0, 1:]||_2 for the even block's edge point
    fit within the round-off, the sectors are solved; else the whole even block, turned."""
    dx, dA, p = w.x_axis.spacing, w.cell_area, w.p_axis
    centred = w.x_axis.count % 2 == p.count % 2 == 0 and p.min + p.count // 2 * p.spacing == 0
    defect = _parity_defect(w.values) if centred else np.inf
    roundoff, moved = w.x_axis.count * np.finfo(float).eps * w.abs_sum * dA, 2 * dA * defect
    if not moved <= roundoff:
        views, bound = _kernel_views(w, roundoff)
        return tuple((view,) for view in views), bound, roundoff
    b, bound = _kernel_views(w, roundoff - moved, parity=True)
    bound = moved + (bound if b.dtype == float else 0.0)  # a complex b drops nothing
    h, s, t = b.shape[1], b.shape[1] - 1, (b.shape[1] - 1) // 2
    odd, (even, rest) = _reversal_sectors(b, 1, h), _reversal_sectors(b, 2, s)
    v, edge = b.ravel()[h + 1::h + 1][:s].conj(), b[:1, :1].copy()  # K[0, 1 + a], K[0, 0]
    del b  # the whole even block is made without it
    if bound + 2 * dx * np.linalg.norm(v) <= roundoff:
        return ((edge, even, rest), odd), bound + 2 * dx * np.linalg.norm(v), roundoff
    m = np.zeros((h, h), edge.dtype)  # the sectors, then the edge point's row
    m[:s - t, :s - t], m[s - t:s, s - t:s] = even, rest
    m[s] = np.concatenate([v[:t] + v[::-1][:t], np.sqrt(2) * v[t:s - t], v[:t] - v[::-1][:t],
                           np.sqrt(2) * edge[0]]) / np.sqrt(2)
    return ((m,), odd), bound, roundoff


def save_wigner_manifest(w, path, csv_path=None):
    """Write a Wigner grid as a JSON manifest, values inline or in a CSV file.

    The CSV is row-major with one row per x index.  Both are written by rows.
    """
    path = Path(path)
    manifest = {
        "x_axis": as_dict(w.x_axis),
        "p_axis": as_dict(w.p_axis),
        "hbar": w.hbar,
    }
    if csv_path is not None:
        csv_path = Path(csv_path)
        np.savetxt(csv_path, w.values, delimiter=",", fmt="%.17g")
        manifest["values_path"] = os.path.relpath(csv_path, path.parent)  # where the loader looks
    text = json.dumps(manifest)
    with open(path, "w") as fh:
        if csv_path is None:  # json.dumps({**manifest, "values": w.values.tolist()}), by blocks
            fh.write(text[:-1] + ', "values": [')
            for r0 in range(0, len(w.values), _CHUNK_ROWS):
                fh.write(", " if r0 else "")
                fh.write(json.dumps(w.values[r0:r0 + _CHUNK_ROWS].tolist())[1:-1])
            text = "]}"
        fh.write(text + "\n")


def load_wigner_manifest(path):
    """Load a Wigner grid from a JSON manifest written by `save_wigner_manifest`."""
    path = Path(path)
    with open(path) as fh:
        manifest = json.load(fh)
    for key in ("x_axis", "p_axis"):  # each error names its key in words, not by repr
        if not (isinstance(manifest, dict) and isinstance(a := manifest.get(key), dict)
                and a.keys() >= {"min", "max", "count"}):
            raise ValueError(f"manifest needs {key!r}, an object with 'min', 'max' and 'count'")
    x_axis, p_axis = (AxisGrid.from_dict(manifest[key]) for key in ("x_axis", "p_axis"))
    hbar = manifest.get("hbar", 1.0)
    if isinstance(hbar, bool) or not isinstance(hbar, (int, float)):  # float(True) would be 1.0
        raise ValueError(f"manifest hbar must be a number, got {hbar!r}")
    if "values" in manifest:
        rows = manifest["values"]
        try:  # which reads "1.5" as 1.5 and true as 1.0
            values = np.asarray(rows, dtype=float)
        except (TypeError, ValueError):  # ragged rows, or a string that is no number
            raise ValueError("manifest values must be rows of numbers, all of one length") from None
        if values.ndim == 2 and set(map(type, chain.from_iterable(rows))) - {int, float}:
            entry = next(v for v in chain.from_iterable(rows) if type(v) not in (int, float))
            raise ValueError(f"manifest values must be numbers, got {entry!r}")
    elif "values_path" in manifest:
        if not isinstance(vp := manifest["values_path"], str):
            raise ValueError(f"manifest values_path must be a path string, got {vp!r}")
        values = np.loadtxt(path.parent / vp, delimiter=",", ndmin=2)  # an absolute vp stays
    else:
        raise ValueError("manifest needs 'values' or 'values_path'")
    return WignerGrid(x_axis, p_axis, values, float(hbar))


def as_dict(obj):
    """JSON form of a result, as the reports carry it: a dataclass maps to
    {field: as_dict(value)}, a complex array field f to f_real and f_imag, lists,
    tuples and dicts element-wise, arrays and numpy scalars through `.tolist()`."""
    if is_dataclass(obj):
        out = {}
        for f in fields(obj):
            value = getattr(obj, f.name)
            if isinstance(value, np.ndarray) and np.iscomplexobj(value):
                out[f.name + "_real"] = value.real.tolist()
                out[f.name + "_imag"] = value.imag.tolist()
            else:
                out[f.name] = as_dict(value)
        return out
    if isinstance(obj, dict):
        return {key: as_dict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_dict(value) for value in obj]
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return obj
