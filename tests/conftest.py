import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from wigcheck import (AxisGrid, WaveFunctionGrid, default_axis, fock_state, mixture_wigner,
                      narcowich_oconnell_grid, operator_spectrum_oracle, symplectic_form,
                      symplectic_spectrum, wigner_gaussian, wigner_of_pure)
from wigcheck.fixtures import NO_COUNT, NO_EXTENT
from wigcheck.states import _ALIGN, _CHUNK_ROWS, _chirp_sum, _fold_axis, _is_wigner_conjugate
from wigcheck.uncertainty import BOUNDARY_BAND


def random_spd(rng, dim, lo=0.2, hi=2.0):
    """Random symmetric positive-definite matrix with log-uniform eigenvalues."""
    a = rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    eigs = np.exp(rng.uniform(np.log(lo), np.log(hi), size=dim))
    return (q * eigs) @ q.T


def check_williamson_criterion(sigma, hbar=1.0):
    """Smallest symplectic eigenvalue test; returns (nu_min >= hbar/2, nu_min)."""
    sigma = np.asarray(sigma, dtype=float)
    nu = symplectic_spectrum(sigma)
    norm = np.abs(np.linalg.eigvalsh(sigma)).max()
    nu_min = float(nu[-1])
    return bool(nu_min >= hbar / 2 - BOUNDARY_BAND * norm), nu_min


def oracle_min(w):
    """Smallest eigenvalue of the two same-parity kernel blocks."""
    return min(eigs[-1] for eigs in operator_spectrum_oracle(w))


def gaussian_wavepacket(rate=1.0, axis=None, hbar=1.0):
    """Real Gaussian psi(x) propto exp(-rate*x^2 / (2*hbar)), normalized."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    if axis is None:
        axis = default_axis(hbar)
    xs = axis.points
    vals = (rate / (np.pi * hbar)) ** 0.25 * np.exp(-rate * xs**2 / (2 * hbar))
    vals = vals / np.sqrt(np.sum(vals**2) * axis.spacing)
    return WaveFunctionGrid(axis, vals, hbar)


def fourier_wavefunction(psi):
    """Unitary hbar-scaled Fourier transform of a wavefunction.

    F psi(p) = (2 pi hbar)^(-1/2) int exp(-i p x / hbar) psi(x) dx, sampled
    on the conjugate momentum axis (dp = 2*pi*hbar/(n*dx)).
    """
    axis, hbar = psi.axis, psi.hbar
    out_axis = AxisGrid.centered(axis.count, 2.0 * np.pi * hbar / (axis.count * axis.spacing))
    # centred DFT: X[k] = sum_m a[m] exp(-2 pi i k m / n) with k, m in [-n/2, n/2)
    dft = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(psi.values)))
    vals = axis.spacing / np.sqrt(2 * np.pi * hbar) * dft
    return WaveFunctionGrid(out_axis, vals, hbar)


def p4_series_reference(alpha, beta):
    """Fourth momentum moment of the Narcowich-O'Connell function from the
    Taylor coefficient of its transform.

    The moment equals the fourth derivative at p = 0 of the momentum profile
    (1 - beta p^2/2) exp(-beta^2 p^4), i.e. 24 times its p^4 series
    coefficient.  Computed by truncated polynomial arithmetic; the result is
    -24*beta^2 and is independent of alpha.
    """
    deg = 4
    # series of exp(-beta^2 p^4) up to p^deg
    exp_series = np.zeros(deg + 1)
    term = 1.0
    for k in range(deg // 4 + 1):
        exp_series[4 * k] = term
        term *= -beta**2 / (k + 1)
    prefactor = np.zeros(deg + 1)
    prefactor[0] = 1.0
    prefactor[2] = -0.5 * beta
    product = np.polynomial.polynomial.polymul(prefactor, exp_series)[: deg + 1]
    return float(24.0 * product[4])


def random_symplectic(seed, ndof):
    """Deterministic pseudo-random symplectic matrix.

    Composes two Cayley transforms (I - A/2)^(-1) (I + A/2) of Hamiltonian
    matrices A = J H with random symmetric H; each is symplectic.
    """
    if ndof < 1:
        raise ValueError("ndof must be >= 1")
    rng = np.random.default_rng(seed)
    dim = 2 * ndof
    J = symplectic_form(ndof)
    eye = np.eye(dim)
    S = eye
    for _ in range(2):
        H = rng.normal(size=(dim, dim))
        H = 0.25 * (H + H.T) / np.sqrt(dim)
        A = J @ H
        S = S @ np.linalg.solve(eye - A / 2, eye + A / 2)
    return S


@pytest.fixture(scope="session")
def vacuum_psi():
    return fock_state(0)


@pytest.fixture(scope="session")
def fock1_psi():
    return fock_state(1)


@pytest.fixture(scope="session")
def vacuum_wigner(vacuum_psi):
    return wigner_of_pure(vacuum_psi)


@pytest.fixture(scope="session")
def fock1_wigner(fock1_psi):
    return wigner_of_pure(fock1_psi)


@pytest.fixture(scope="session")
def mixture_5050(vacuum_psi, fock1_psi):
    return mixture_wigner([(0.5, vacuum_psi), (0.5, fock1_psi)])


@pytest.fixture(scope="session")
def no_grid():
    axis = default_axis(count=NO_COUNT, extent=NO_EXTENT)
    return narcowich_oconnell_grid(0.5, 0.5, axis, axis)


@pytest.fixture(scope="session")
def odd_offcentre_grid():
    """A rotated squeezed Gaussian on 301 x 301 points, x in [-3, 11] and
    p in [-4, 6]: an odd count on axes not centred on the origin."""
    c, s = np.cos(0.6), np.sin(0.6)
    rot = np.array([[c, -s], [s, c]])
    return wigner_gaussian([4.0, 1.0], rot @ np.diag([1.8, 0.4]) @ rot.T,
                           AxisGrid(-3.0, 11.0, 301), AxisGrid(-4.0, 6.0, 301))


# --- whole-array builders: the reference the row-blocked builders match bit for bit ---

def _whole_products(psi):
    """psi(x+y) conj(psi(x-y)) on the whole grid, in ifftshifted column order."""
    n = psi.axis.count
    pad = np.concatenate([np.zeros(n, dtype=complex), psi.values, np.zeros(n, dtype=complex)])
    lo = n - n // 2
    ahead = sliding_window_view(pad, n)[lo:lo + n]
    back = sliding_window_view(pad[::-1], n)[lo + n - 1:lo - 1:-1]
    wc = np.empty((n, n), dtype=complex)
    for dst, t in ((wc[:, :lo], slice(n // 2, None)), (wc[:, lo:], slice(0, n // 2))):
        np.multiply(ahead[:, t], np.conjugate(back[:, t], out=dst), out=dst)
    return wc


def _whole_transform(wc, axis, hbar):
    """Row DFT of the products `wc`, in place, to (values, imag_residual)."""
    n, lo = axis.count, axis.count - axis.count // 2
    np.fft.fft(wc, axis=1, out=wc)
    np.multiply(axis.spacing / (np.pi * hbar), wc, out=wc)
    values = np.empty((n, n))
    values[:, :n // 2], values[:, n // 2:] = wc.real[:, lo:], wc.real[:, :lo]
    return values, float(np.maximum(wc.imag.max(), -wc.imag.min()))


def whole_wigner_of_pure(psi):
    """wigner_of_pure on the whole grid at once: (values, imag_residual)."""
    return _whole_transform(_whole_products(psi), psi.axis, psi.hbar)


def whole_mixture_wigner(components):
    """mixture_wigner as one whole-grid transform of the kernel sum_i w_i
    psi_i(x+y) conj(psi_i(x-y)), summed in order: (values, imag_residual)."""
    kernel = None
    for weight, psi in components:
        wc = _whole_products(psi)
        flat = wc.view(float)
        flat *= weight
        kernel = wc if kernel is None else np.add(kernel, wc, out=kernel)
    return _whole_transform(kernel, psi.axis, psi.hbar)


def whole_wigner_gaussian(mean, sigma, x_axis, p_axis):
    """wigner_gaussian's values on a meshgrid."""
    inv = np.linalg.inv(sigma)
    X, P = np.meshgrid(x_axis.points - mean[0], p_axis.points - mean[1], indexing="ij")
    quad = inv[0, 0] * X * X + 2 * inv[0, 1] * X * P + inv[1, 1] * P * P
    return np.exp(-0.5 * quad) / (2 * np.pi * np.sqrt(np.linalg.det(sigma)))


def whole_bump(x_axis, p_axis, radius, profile):
    """truncated_bump_grid's values on a meshgrid."""
    X, P = np.meshgrid(x_axis.points, p_axis.points, indexing="ij")
    r = np.sqrt(X**2 + P**2)
    inside = r < radius
    vals = np.zeros_like(r)
    vals[inside] = np.cos(0.5 * np.pi * r[inside] / radius) ** 2 if profile == "cosine" else 1.0
    return vals / (vals.sum() * (x_axis.spacing * p_axis.spacing))


def whole_rescale(w, lam):
    """rescale's values with the momentum pass of lam < 1 on the whole grid at once."""
    values = w.values * lam**2
    if lam < 1 and _is_wigner_conjugate(w):
        n, dx = w.x_axis.count, w.x_axis.spacing
        p_axis = AxisGrid(lam**2 * w.p_axis.min, lam**2 * w.p_axis.max, n)
        c = np.fft.fftshift(np.fft.ifft(values, axis=1), axes=1)
        values = _chirp_sum(c, -(n // 2) * dx, dx, 2 * (p_axis.min - w.p_axis.min) / w.hbar,
                            2 * p_axis.spacing / w.hbar, n, sign=-1).real
    return values


def whole_symplectic_blocks(w):
    """SymplecticFourier's parity blocks [W_ee | W_eo], [W_oe | W_oo], folded
    from whole views of the grid padded by a zero row and column, each axis
    about the centre `_fold_axis` picks: the edge point's partner is a zero."""
    (n, i, (s, _, ox, _)), (m, j, (t, _, op, _)) = ((a.count, a.count // 2, _fold_axis(a))
                                                    for a in (w.x_axis, w.p_axis))
    hx, hp = len(ox), len(op)
    pad = np.zeros((n + 1, m + 1))
    pad[:n, :m] = w.values
    blocks = np.zeros((2, hx, -(-2 * hp // _ALIGN) * _ALIGN))
    for op, block in zip((np.add, np.subtract), blocks):
        folded = op(pad[i:i + hx], pad[n - 1 - s::-1])
        upper, lower = folded[:, j:j + hp], folded[:, m - 1 - t::-1]
        block[:, hp:2 * hp] = upper - lower
        block[:, :hp] = upper + lower
    blocks[0, 0] *= 1 - (n % 2 or s < i) / 2  # a centre point, folded onto itself
    blocks[:, :, 0] *= 1 - (m % 2 or t < j) / 2
    return blocks
