import numpy as np
import pytest

from wigcheck import (AxisGrid, WaveFunctionGrid, default_axis, fock_state, mixture_wigner,
                      narcowich_oconnell_grid, operator_spectrum_oracle, symplectic_form,
                      symplectic_spectrum, wigner_gaussian, wigner_of_pure)
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
    return narcowich_oconnell_grid(alpha=0.5, beta=0.5)


@pytest.fixture(scope="session")
def odd_offcentre_grid():
    """A rotated squeezed Gaussian on 301 x 301 points, x in [-3, 11] and
    p in [-4, 6]: an odd count on axes not centred on the origin."""
    c, s = np.cos(0.6), np.sin(0.6)
    rot = np.array([[c, -s], [s, c]])
    return wigner_gaussian([4.0, 1.0], rot @ np.diag([1.8, 0.4]) @ rot.T,
                           AxisGrid(-3.0, 11.0, 301), AxisGrid(-4.0, 6.0, 301))
