"""Grid-based quantum states for one degree of freedom.

Wavefunctions live on a uniform position grid whose points are
x_m = (m - n/2) * dx, so the origin is always a grid point and the grid
conjugate to it under the discrete Fourier transform has the same layout.
Wigner grids produced from pure states carry the momentum axis conjugate
to the position axis (dp = pi*hbar / (n*dx)); grids built from closed
forms may use any pair of axes.
"""

import json
import warnings
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

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
MASS_TOL = 1e-5  # largest trace drift of `rescale`, relative to max(1, |trace|)
TAIL_TOL = 1e-6  # largest share of a moment's weight on the boundary band
_CHUNK_ROWS = 64  # grid rows per block of a streamed pass (the kernel: row pairs per chirp-z)
_ALIGN = 8  # SymplecticFourier's least rows and column multiple: OpenBLAS rounds by batch


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


@dataclass
class WignerGrid:
    """Real phase-space samples W[i, j] at (x_i, p_j); finite, with hbar > 0."""

    x_axis: AxisGrid
    p_axis: AxisGrid
    values: np.ndarray
    hbar: float = 1.0
    imag_residual: float = 0.0

    def __post_init__(self):
        # a strided view, such as the real part of a complex grid, keeps its parent alive
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != (self.x_axis.count, self.p_axis.count):
            raise ValueError("values must have shape (len(x_axis), len(p_axis))")
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar!r}")
        if not np.isfinite(self.values).all():
            raise ValueError("Wigner values must be finite (found NaN, infinity or null)")

    @property
    def cell_area(self):
        return self.x_axis.spacing * self.p_axis.spacing


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

    W(z) = (2 pi)^(-1) det(sigma)^(-1/2) exp(-(z-mean)^T sigma^(-1) (z-mean)/2).
    """
    sigma = np.asarray(sigma, dtype=float)
    mean = np.asarray(mean, dtype=float)
    if sigma.shape != (2, 2) or mean.shape != (2,):
        raise ValueError("grid-based Gaussian states support one degree of freedom only")
    det = np.linalg.det(sigma)
    if np.abs(sigma - sigma.T).max() > 1e-12 * max(1.0, np.abs(sigma).max()) or det <= 0:
        raise ValueError("sigma must be symmetric positive definite")
    inv = np.linalg.inv(sigma)
    xs, ps = x_axis.points - mean[0], p_axis.points - mean[1]
    xx, xp, pp = inv[0, 0] * xs * xs, 2 * inv[0, 1] * xs, inv[1, 1] * ps * ps
    vals = np.empty((x_axis.count, p_axis.count))
    for r0 in range(0, len(vals), _CHUNK_ROWS):  # the quadratic form, summed left to right
        rows = slice(r0, r0 + _CHUNK_ROWS)
        vals[rows] = np.exp(-0.5 * (xx[rows, None] + xp[rows, None] * ps + pp))
    vals /= 2 * np.pi * np.sqrt(det)
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
    edge = max(_abs_max(w.values[:, :2]), _abs_max(w.values[:, -2:]))
    if edge > ALIASING_TOL * _abs_max(w.values):
        warnings.warn(f"possible momentum aliasing: boundary amplitude ratio {edge:.2e}")
    return w


def _boundary_band_sum(a, rw, cw):
    """Sums of |a_ij| (rw_i + cw_j) over the outer two rows and columns of the
    2-d array `a`, each entry once, and over all of `a`: (band, whole).

    An array with at most four rows or columns is all band.  The whole sum
    comes from the row and column sums of |a|, the band sum from its strips.
    """
    rows, cols = _abs_sums(a)
    whole = float(rw @ rows + cw @ cols)
    n, m = a.shape
    ends = [(slice(0, min(2, k)), slice(max(2, k - 2), k)) for k in (n, m)]  # first, last two
    blocks = [(r, slice(None)) for r in ends[0]] + [(slice(2, n - 2), c) for c in ends[1]]
    band = sum(float((np.abs(a[r, c]) * (rw[r, None] + cw[c])).sum()) for r, c in blocks)
    return band, whole


def _abs_sums(a):
    """Row and column sums of |a|, by blocks of rows: no |a| copy."""
    rows, cols = np.empty(len(a)), np.zeros(a.shape[1])
    for r0 in range(0, len(a), _CHUNK_ROWS):
        mag = np.abs(a[r0:r0 + _CHUNK_ROWS])
        rows[r0:r0 + len(mag)] = mag.sum(axis=1)
        cols += mag.sum(axis=0)
    return rows, cols


def _abs_max(a, axis=None):
    """max |a| along `axis` from two reductions, without an |a| copy."""
    return np.maximum(a.max(axis=axis), -a.min(axis=axis))


def trace(w):
    """Riemann-sum trace: sum of the grid values times the cell area."""
    return float(w.values.sum() * w.cell_area)


def _is_wigner_conjugate(w):
    return abs(w.p_axis.spacing * w.x_axis.count * w.x_axis.spacing
               - np.pi * w.hbar) <= 1e-9 * np.pi * w.hbar


def _spline_slopes(xs, y):
    """Knot slopes of the not-a-knot cubic spline through the rows of `y`
    at the knots `xs` (at least four).

    Builds CubicSpline's tridiagonal slope system by row blocks, end rows
    included, and eliminates it in LAPACK gtsv's order without row swaps (it
    is diagonally dominant), so the slopes match CubicSpline's bit for bit.
    """
    dx = np.diff(xs)
    h = dx.tolist()

    def slopes(lo, hi):  # divided differences lo .. hi-1 of the rows of y
        d = np.subtract(y[lo + 1:hi + 1], y[lo:hi])
        d /= dx[lo:hi, None]
        return d

    d0, d1 = xs[2] - xs[0], xs[-1] - xs[-3]
    b = np.empty(y.shape)  # C order: the elimination below works row by row
    slope = slopes(0, 2)
    b[0] = ((h[0] + 2 * d0) * h[1] * slope[0] + h[0] * h[0] * slope[1]) / d0
    slope = slopes(len(h) - 2, len(h))
    b[-1] = (h[-1] * h[-1] * slope[-2] + (2 * d1 + h[-1]) * h[-2] * slope[-1]) / d1
    for r0 in range(1, len(h), _CHUNK_ROWS):  # row i: 3 (dx[i] slope[i-1] + dx[i-1] slope[i])
        r1 = min(r0 + _CHUNK_ROWS, len(h))
        slope = slopes(r0 - 1, r1)
        inner = np.multiply(dx[r0:r1, None], slope[:-1], out=b[r0:r1])
        inner += np.multiply(dx[r0 - 1:r1 - 1, None], slope[1:], out=slope[1:])
        inner *= 3
        del slope  # before the next block's differences
    diag = [h[1]] + [2 * (a + c) for a, c in zip(h[:-1], h[1:])] + [h[-2]]
    upper = [d0] + h[:-1]  # row i's coefficient of slope i+1
    lower = h[1:] + [d1]   # row i+1's coefficient of slope i
    rows = list(b)
    for i in range(len(h)):
        fact = lower[i] / diag[i]
        diag[i + 1] -= fact * upper[i]
        rows[i + 1] -= fact * rows[i]
    rows[-1] /= diag[-1]
    for i in range(len(h) - 1, -1, -1):
        rows[i] -= upper[i] * rows[i + 1]
        rows[i] /= diag[i]
    return b


def _spline_at(xs, y, t, out=None):
    """Not-a-knot cubic spline through the rows of `y` at the knots `xs`,
    evaluated at the points `t` inside [xs[0], xs[-1]], with CubicSpline's
    arithmetic: its Hermite coefficients and PPoly's power sum, each point
    on the interval that starts at or below it; by blocks of points, into
    `out` (a new array when None)."""
    s = _spline_slopes(xs, y)
    if out is None:
        out = np.empty((len(t),) + y.shape[1:])
    for r0 in range(0, len(t), _CHUNK_ROWS):
        at, dst = t[r0:r0 + _CHUNK_ROWS], out[r0:r0 + _CHUNK_ROWS]
        j = np.minimum(np.searchsorted(xs, at, side="right") - 1, len(xs) - 2)
        dx, h = (xs[j + 1] - xs[j])[:, None], (at - xs[j])[:, None]
        # y[j] + s[j] h + ((slope - s[j])/dx - excess) h^2 + excess/dx h^3 with slope =
        # (y[j+1] - y[j])/dx, excess = (s[j] + s[j+1] - 2 slope)/dx: in place, rounded alike
        slope = y[j + 1] - y[j]
        slope /= dx
        excess = s[j + 1]
        excess += s[j]
        excess -= np.multiply(slope, 2, out=dst)
        excess /= dx
        slope -= s[j]
        slope /= dx
        slope -= excess
        slope *= h * h
        np.multiply(s[j], h, out=dst)
        dst += y[j]
        dst += slope
        excess /= dx
        excess *= h * h * h
        dst += excess
        del slope, excess  # before the next block's gathers
    return out


def rescale(w, lam):
    """Mass-preserving rescaling: W_lam(z) = lam^2 W(lam*z) on the same axes.

    When the momentum axis is DFT-conjugate to the position axis the momentum
    resampling is done exactly through the band-limited trigonometric
    representation and positions by the not-a-knot cubic spline along x;
    otherwise by the bicubic not-a-knot spline, done as an x pass and then a
    p pass (the tensor-product spline of an s = 0 FITPACK fit).  Points that
    fall outside the source domain are treated as zero; a warning reports the
    mass deviation when it exceeds MASS_TOL.
    """
    if lam <= 0:
        raise ValueError("rescale parameter must be positive")
    xs, ps = w.x_axis.points, w.p_axis.points
    n = w.x_axis.count
    okx = (lam * xs >= xs[0]) & (lam * xs <= xs[-1])
    okp = (lam * ps >= ps[0]) & (lam * ps <= ps[-1])
    # each is one run, as lam > 0: the spline passes write into it as a slice
    xrun, prun = (slice(np.argmax(ok), np.argmax(ok) + ok.sum()) for ok in (okx, okp))
    if _is_wigner_conjugate(w) and n % 2 == 0:
        # W[i, k] = sum_m a[i, m] exp(-2 i p_k (m*dx) / hbar): resample p exactly,
        # from the offsets m*dx onto the contiguous run of targets lam*p_k
        dx = w.x_axis.spacing
        first, m = lam * ps[np.argmax(okp)], okp.sum()
        resampled = np.empty((n, m))
        for r0 in range(0, n, _CHUNK_ROWS):  # row blocks: no full-grid FFT work arrays
            a = np.fft.fftshift(np.fft.ifft(np.fft.ifftshift(
                w.values[r0:r0 + _CHUNK_ROWS], axes=1), axis=1), axes=1)
            resampled[r0:r0 + len(a)] = _chirp_sum(
                a, -(w.p_axis.count // 2) * dx, dx, 2 * first / w.hbar,
                2 * lam * w.p_axis.spacing / w.hbar, m, sign=-1).real
        del a
        out = np.zeros_like(w.values)  # after the first pass's work arrays are gone
        _spline_at(xs, resampled, lam * xs[okx], out=out[xrun, prun])
    else:
        rows = _spline_at(xs, w.values, lam * xs[okx])
        out = np.zeros_like(w.values)
        _spline_at(ps, rows.T, lam * ps[okp], out=out[xrun, prun].T)
    out *= lam**2
    res = WignerGrid(w.x_axis, w.p_axis, out, w.hbar, w.imag_residual)
    drift = abs(trace(res) - trace(w))
    if drift > MASS_TOL * max(1.0, abs(trace(w))):
        warnings.warn(f"rescale mass drift {drift:.3e} (tail outside the grid)")
    return res


class SymplecticFourier:
    """Evaluator for F_sigma W(z) = int exp(i sigma(z, z')) W(z') dz'.

    A direct quadrature over the stored grid, so any z = (x, p) is admissible.
    At the offsets u, v from the axis midpoints (x_c, p_c) the kernel
    exp(i (p x' - p' x)) is exp(i (p x_c - x p_c)) cos/sin(p u) cos/sin(x v),
    so a call is cos(p u) @ [W_ee | W_eo] and sin(p u) @ [W_oe | W_oo] on the
    grid's parity quadrants (u, v >= 0, an odd count's centre once), a sum over
    v and the phase, in real arithmetic: half the work of the unfolded grid.
    F(-z) = conj F(z) exactly, no value depends on its batch, and `trace` is F(0).
    """

    def __init__(self, w):
        # the upper half of an axis is a[n // 2:], its mirrored lower half a[::-1][n // 2:]
        i, j = w.x_axis.count // 2, w.p_axis.count // 2
        self._xc, self._pc = (0.5 * (a.min + a.max) for a in (w.x_axis, w.p_axis))
        self._ox, self._op = w.x_axis.points[i:] - self._xc, w.p_axis.points[j:] - self._pc
        hp = len(self._op)
        self._blocks = np.zeros((2, len(self._ox), -(-2 * hp // _ALIGN) * _ALIGN))
        v, f = w.values[:, j:], w.values[:, ::-1][:, j:]
        lower = np.empty((min(len(self._ox), _CHUNK_ROWS), hp))  # the one temporary, a row block
        for op, block in zip((np.add, np.subtract), self._blocks):  # [W_ee | W_eo], [W_oe | W_oo]
            for r0 in range(0, len(self._ox), _CHUNK_ROWS):
                rows, out = slice(i + r0, i + r0 + _CHUNK_ROWS), block[r0:r0 + _CHUNK_ROWS]
                low = op(f[rows], f[::-1][rows], out=lower[:len(out)])
                upper = op(v[rows], v[::-1][rows], out=out[:, :hp])
                np.subtract(upper, low, out=out[:, hp:2 * hp])
                upper += low
        self._blocks[0, 0] *= 1 - w.x_axis.count % 2 / 2  # an odd count's centre, added twice
        self._blocks[:, :, 0] *= 1 - w.p_axis.count % 2 / 2
        self._area = w.cell_area
        self.trace = trace(w)

    def __call__(self, z):
        z = np.asarray(z, dtype=float)
        single = z.ndim == 1
        pts = np.atleast_2d(z)
        k, hp = pts.shape[0], len(self._op)
        if 0 < k < _ALIGN:
            pts = np.concatenate([pts, np.zeros((_ALIGN - k, 2))])
        px, xp = np.outer(pts[:, 1], self._ox), np.outer(pts[:, 0], self._op)
        c, s = np.cos(px) @ self._blocks[0], np.sin(px) @ self._blocks[1]
        cx, sx = np.cos(xp), np.sin(xp)
        # sum over u, v of W(u, v) (cos pu + i sin pu)(cos xv - i sin xv)
        re = np.einsum("ij,ij->i", c[:, :hp], cx) + np.einsum("ij,ij->i", s[:, hp:2 * hp], sx)
        im = np.einsum("ij,ij->i", s[:, :hp], cx) - np.einsum("ij,ij->i", c[:, hp:2 * hp], sx)
        theta = pts[:, 1] * self._xc - pts[:, 0] * self._pc
        out = _rotate(re * self._area, im * self._area, theta)[:k]
        return out[0] if single else out


def _rotate(re, im, theta):
    """(re + i im) exp(i theta) in real arithmetic, rounded alike at any array length."""
    c, s = np.cos(theta), np.sin(theta)
    return (re * c - im * s) + 1j * (re * s + im * c)


def _kernel_views(w, real_within=None):
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
    does not, the blocks are redone into a complex b."""
    n, dp = w.x_axis.count, w.p_axis.spacing
    h = (n + 1) // 2  # rows of the even block; the odd one has n - h
    step = 2 * w.x_axis.spacing / w.hbar

    def write(b, r0):  # rows r0 .. r0 + _CHUNK_ROWS of each half of b; their sum of (Im b)^2
        low = b[r0:min(r0 + _CHUNK_ROWS, h)]
        high = b[r0 + h:r0 + h + len(low)]  # with n odd, row h-1 has no partner
        t = _chirp_sum(w.values[r0:r0 + len(low)], w.p_axis.min, dp, -(h - 1) * step, step,
                       2 * h - 1, imag=w.values[r0 + h:r0 + h + len(high)])
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

    b = np.empty((n, h), dtype=complex if real_within is None else float)
    imag_sq = 0.0
    for r0 in range(0, h, _CHUNK_ROWS):
        imag_sq += write(b, r0)
        bound = 2 * w.x_axis.spacing * np.sqrt(2 * imag_sq)
        if b.dtype == float and bound > real_within:
            del b  # Re b goes before the complex b is made
            return _kernel_views(w)
    s = b.itemsize
    views = tuple(as_strided(b[parity:], (size, size), ((h + 1) * s, (h - 1) * s), writeable=False)
                  for parity, size in enumerate((h, n - h)))
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
    reads the lower triangles of the `_kernel_views` views: no block copy.

    A grid mirror-symmetric in p has a real kernel; the computed one's imaginary
    part is round-off.  By Weyl's inequality dropping it moves each eigenvalue
    by at most ||Im K||_2 <= ||Im K||_F, so when 2dx times that is within the
    transform's round-off, eigvalsh solves the real parts (`_oracle_views`),
    about twice as fast; any other grid keeps the complex Hermitian solve."""
    scale = 2 * w.x_axis.spacing  # applied to the eigenvalues: no scaled copy of a block
    return tuple(np.linalg.eigvalsh(k, UPLO="L")[::-1] * scale for k in _oracle_views(w)[0])


def _oracle_views(w):
    """The views `operator_spectrum_oracle` solves, the Weyl bound 2dx ||Im K||_F
    on the eigenvalue move of dropping Im K, and the transform's round-off
    n eps sum|W| dA: views of Re b alone when the bound is within it."""
    roundoff = w.x_axis.count * np.finfo(float).eps * _abs_sums(w.values)[0].sum() * w.cell_area
    return (*_kernel_views(w, roundoff), roundoff)


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
        manifest["values_path"] = str(csv_path.name if csv_path.parent == path.parent else csv_path)
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
    x_axis = AxisGrid.from_dict(manifest["x_axis"])
    p_axis = AxisGrid.from_dict(manifest["p_axis"])
    hbar = manifest.get("hbar", 1.0)
    if isinstance(hbar, bool):  # float(True) would be 1.0
        raise ValueError(f"manifest hbar must be a number, got {hbar!r}")
    if "values" in manifest:
        values = np.asarray(manifest["values"], dtype=float)
    elif "values_path" in manifest:
        vp = Path(manifest["values_path"])
        if not vp.is_absolute():
            vp = path.parent / vp
        values = np.loadtxt(vp, delimiter=",", ndmin=2)
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
