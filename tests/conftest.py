import numpy as np
import pytest

from wigcheck import (AxisGrid, fock_state, mixture_wigner, narcowich_oconnell_grid,
                      operator_spectrum_oracle, symplectic_form, wigner_gaussian,
                      wigner_of_pure)


def random_spd(rng, dim, lo=0.2, hi=2.0):
    """Random symmetric positive-definite matrix with log-uniform eigenvalues."""
    a = rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    eigs = np.exp(rng.uniform(np.log(lo), np.log(hi), size=dim))
    return (q * eigs) @ q.T


def oracle_min(w):
    """Smallest eigenvalue of the two same-parity kernel blocks."""
    return min(eigs[-1] for eigs in operator_spectrum_oracle(w))


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
