import numpy as np
import pytest

from conftest import random_spd, random_symplectic
from wigcheck import is_symplectic, symplectic_form, symplectic_spectrum, williamson


def _reconstruct(fact):
    """S^T D S with D = diag(spectrum, spectrum)."""
    return fact.S.T @ np.diag(np.concatenate([fact.spectrum, fact.spectrum])) @ fact.S


def test_is_symplectic_examples():
    assert is_symplectic(np.eye(2))
    assert is_symplectic(np.eye(6))
    assert is_symplectic(np.diag([2.0, 0.5]))
    assert not is_symplectic(np.diag([2.0, 2.0]))


def test_is_symplectic_bad_shapes():
    with pytest.raises(ValueError):
        is_symplectic(np.ones((3, 3)))
    with pytest.raises(ValueError):
        is_symplectic(np.ones((2, 4)))


def test_spectrum_identity():
    assert np.allclose(symplectic_spectrum(np.eye(8)), 1.0)


def test_spectrum_diagonal_examples():
    assert symplectic_spectrum(np.diag([4.0, 1.0])) == pytest.approx([2.0])
    got = symplectic_spectrum(np.diag([9.0, 1.0, 1.0, 4.0]))
    assert got == pytest.approx([3.0, 2.0])


def test_spectrum_rejects_bad_input():
    with pytest.raises(ValueError):
        symplectic_spectrum(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        symplectic_spectrum(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_symmetry_is_judged_in_the_matrix_units():
    # |M_ij - M_ji| against 1e-10 sqrt(M_ii M_jj): no absolute floor lets a matrix in
    # small units through, and a squeeze of a symmetric matrix stays accepted
    with pytest.raises(ValueError, match="not symmetric"):
        williamson(np.array([[1e-11, 5e-11], [0.0, 1e-10]]))
    with pytest.raises(ValueError, match="not symmetric"):
        williamson(np.array([[1e-12, 1e-13 + 1e-20], [1e-13, 1e-12]]))
    for d in (1e-6, 1.0, 1e6):
        M = np.diag([d, 1 / d]) @ np.array([[2.0, 0.5], [0.5, 1.0]]) @ np.diag([d, 1 / d])
        assert williamson(M).spectrum[0] == pytest.approx(np.sqrt(1.75), rel=1e-12)


def test_spectrum_symplectic_invariance():
    rng = np.random.default_rng(2)
    for ndof in (1, 2, 3):
        M = random_spd(rng, 2 * ndof)
        S = random_symplectic(int(rng.integers(1 << 30)), ndof)
        assert np.allclose(symplectic_spectrum(S.T @ M @ S), symplectic_spectrum(M),
                           rtol=1e-10, atol=1e-12)


def test_spectrum_homogeneity():
    rng = np.random.default_rng(3)
    M = random_spd(rng, 4)
    lam = 1.7
    assert np.allclose(symplectic_spectrum(lam**2 * M), lam**2 * symplectic_spectrum(M))


def test_spectrum_inverse_reciprocal():
    rng = np.random.default_rng(4)
    M = random_spd(rng, 6)
    direct = symplectic_spectrum(np.linalg.inv(M))
    assert np.allclose(direct, (1.0 / symplectic_spectrum(M))[::-1], rtol=1e-9)


def test_spectrum_that_overflows_raises():
    # the Hermitian eigenproblem overflows and yields no finite positive values
    with pytest.raises(ValueError, match="not finite"):
        symplectic_spectrum(np.diag([1e308, 1e308]))


def test_williamson_diagonal_example():
    fact = williamson(np.diag([4.0, 1.0]))
    assert fact.spectrum == pytest.approx([2.0])
    assert np.allclose(_reconstruct(fact), np.diag([4.0, 1.0]), atol=1e-12)
    assert is_symplectic(fact.S, tol=1e-10)


@pytest.mark.parametrize("M", [[[4.0, 0.0], [0.0, 0.111]], [[2.0, 0.3], [0.3, 1.5]],
                               [[0.2, -0.15], [-0.15, 3.0]]])
def test_williamson_of_one_mode_is_the_scaled_root(M):
    # one degree of freedom: the pair (u, v) is the coordinate axes, so the balanced
    # B = D M D, D = diag(d, 1/d), d = (M_pp / M_xx)^(1/4), has S_B = B^(1/2) / det(M)^(1/4),
    # and S = S_B D^(-1); for an uncorrelated M that is M^(1/2) / det(M)^(1/4)
    M = np.array(M)
    d = (M[1, 1] / M[0, 0]) ** 0.25
    D = np.diag([d, 1 / d])
    w, V = np.linalg.eigh(D @ M @ D)
    root = (V * np.sqrt(w)) @ V.T
    fact = williamson(M)
    assert np.allclose(fact.S, root @ np.linalg.inv(D) / np.linalg.det(M) ** 0.25,
                       rtol=1e-14, atol=1e-15)
    if M[0, 1] == 0:
        assert np.allclose(fact.S, np.diag(np.sqrt(np.diag(M))) / np.linalg.det(M) ** 0.25,
                           rtol=1e-14, atol=0)
    assert fact.spectrum == pytest.approx([np.sqrt(np.linalg.det(M))], rel=1e-14)


def test_williamson_random_residuals():
    rng = np.random.default_rng(5)
    for ndof in (1, 2, 3):
        for _ in range(10):
            M = random_spd(rng, 2 * ndof, lo=0.1, hi=10.0)
            fact = williamson(M)
            assert fact.residual <= 1e-9
            assert fact.symplectic_residual <= 1e-9
            assert np.allclose(fact.spectrum, symplectic_spectrum(M), rtol=1e-9)


def test_williamson_of_symplectic_gram_is_unit():
    for seed in range(5):
        S0 = random_symplectic(seed, 2)
        fact = williamson(S0.T @ S0)
        assert np.allclose(fact.spectrum, 1.0, atol=1e-9)


def test_williamson_round_trip_spectrum():
    rng = np.random.default_rng(6)
    M = random_spd(rng, 4)
    fact = williamson(M)
    assert np.allclose(symplectic_spectrum(_reconstruct(fact)), fact.spectrum, rtol=1e-9)


def test_random_symplectic_contract():
    S = random_symplectic(0, 1)
    J = symplectic_form(1)
    assert np.abs(S.T @ J @ S - J).max() <= 1e-10


def test_random_symplectic_deterministic():
    assert np.array_equal(random_symplectic(42, 2), random_symplectic(42, 2))


def test_random_symplectic_determinant():
    for seed in range(100):
        S = random_symplectic(seed, 1)
        assert np.linalg.det(S) == pytest.approx(1.0, abs=1e-10)


def test_product_invariant_under_symplectic_maps():
    rng = np.random.default_rng(7)
    for ndof in (1, 2):
        S = random_symplectic(ndof, ndof)
        J = symplectic_form(ndof)
        for _ in range(10):
            z, z2 = rng.normal(size=(2, 2 * ndof))
            assert (S @ z2) @ J @ (S @ z) == pytest.approx(z2 @ J @ z, abs=1e-10)
