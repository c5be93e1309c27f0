import warnings

import numpy as np
import pytest

from conftest import random_spd, random_symplectic
from wigcheck import (capacity, find_contained_blob, is_admissible, quantum_blob, section_area,
                      symplectic_spectrum, uncertainty_report)


def test_capacity_examples():
    assert capacity(np.eye(2), 1.0) == pytest.approx(np.pi)
    assert capacity(np.diag([4.0, 1.0]), 1.0) == pytest.approx(np.pi / 2)
    assert capacity(np.eye(4), 2.0) == pytest.approx(2 * np.pi)


def test_capacity_symplectic_invariance():
    rng = np.random.default_rng(0)
    for i in range(50):
        ndof = int(rng.integers(1, 3))
        M = random_spd(rng, 2 * ndof, lo=0.3, hi=3.0)
        S = random_symplectic(i, ndof)
        assert abs(capacity(S.T @ M @ S) - capacity(M)) <= 1e-9


def test_capacity_homogeneity():
    rng = np.random.default_rng(1)
    M = random_spd(rng, 4)
    lam = 1.7
    assert capacity(lam**2 * M) == pytest.approx(capacity(M) / lam**2)


def test_admissibility_examples():
    assert is_admissible(np.eye(2))
    assert not is_admissible(2.0 * np.eye(2))
    assert is_admissible(np.diag([4.0, 1.0 / 9.0]))


def test_admissibility_matches_quantum_psd():
    rng = np.random.default_rng(2)
    hbar = 1.0
    for _ in range(300):
        ndof = int(rng.integers(1, 3))
        M = random_spd(rng, 2 * ndof, lo=0.3, hi=3.0)
        mu1 = symplectic_spectrum(M)[0]
        if abs(mu1 - 1.0) <= 1e-9:
            continue
        sigma = 0.5 * hbar * np.linalg.inv(M)
        psd_ok = uncertainty_report(sigma, hbar).psd_ok
        assert is_admissible(M, hbar) == psd_ok


def test_section_area_examples():
    assert section_area(np.eye(2), 0) == pytest.approx(np.pi)
    assert section_area(np.diag([4.0, 1.0]), 0) == pytest.approx(np.pi / 2)
    M = np.diag([9.0, 1.0, 1.0, 4.0])
    assert section_area(M, 0) == pytest.approx(np.pi / 3)
    assert section_area(M, 1) == pytest.approx(np.pi / 2)
    with pytest.raises(ValueError):
        section_area(M, 2)


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_section_area_neither_overflows_nor_underflows(scale):
    # det of the raw section would be 1e400 or 1e-340; its square root is what counts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert section_area(scale * np.eye(2), 0) == pytest.approx(np.pi / scale, rel=1e-15)
        M = scale * np.array([[4.0, 1.0], [1.0, 1.0]])
        assert section_area(M, 0) == pytest.approx(np.pi / (np.sqrt(3.0) * scale), rel=1e-15)
    with pytest.raises(ValueError, match="not positive definite"):
        section_area(scale * np.array([[1.0, 1.0], [1.0, 1.0]]), 0)


def test_admissible_sections_at_least_half_h_decoupled():
    # the coordinate-section bound is exact at one degree of freedom and for
    # admissible matrices without cross-mode coupling
    rng = np.random.default_rng(3)
    hbar = 1.0
    half_h = np.pi * hbar
    checked = 0
    for _ in range(400):
        ndof = int(rng.integers(1, 4))
        blocks = [random_spd(rng, 2, lo=0.3, hi=2.0) for _ in range(ndof)]
        M = np.zeros((2 * ndof, 2 * ndof))
        for j, blk in enumerate(blocks):
            idx = [j, ndof + j]
            M[np.ix_(idx, idx)] = blk
        if not is_admissible(M, hbar):
            continue
        checked += 1
        for j in range(ndof):
            assert section_area(M, j, hbar) >= half_h - 1e-9
    assert checked > 30


def test_admissible_sections_coupled_counterexamples_logged():
    # with cross-mode coupling the central coordinate sections of an
    # admissible ellipsoid can dip below half h; the capacity criterion is
    # the operative admissibility test, sections are a diagnostic
    rng = np.random.default_rng(5)
    hbar = 1.0
    half_h = np.pi * hbar
    admissible_count = 0
    below = []
    for _ in range(400):
        M = random_spd(rng, 4, lo=0.3, hi=2.0)
        if not is_admissible(M, hbar):
            continue
        admissible_count += 1
        areas = [section_area(M, j, hbar) for j in range(2)]
        if min(areas) < half_h - 1e-9:
            below.append(min(areas) / half_h)
    assert admissible_count > 30
    print(f"\ncoupled admissible matrices with a coordinate section below h/2: "
          f"{len(below)}/{admissible_count}"
          + (f", worst ratio {min(below):.4f}" if below else ""))


def test_quantum_blob_examples():
    blob = quantum_blob(np.eye(2))
    assert np.allclose(blob.matrix, np.eye(2))
    assert capacity(blob.matrix, blob.hbar) == pytest.approx(np.pi)

    blob = quantum_blob(np.diag([2.0, 0.5]))
    assert np.allclose(blob.matrix, np.diag([0.25, 4.0]))
    assert symplectic_spectrum(blob.matrix) == pytest.approx([1.0])


def test_quantum_blob_random_capacity():
    for seed in range(20):
        S = random_symplectic(seed, 2)
        blob = quantum_blob(S)
        assert np.allclose(symplectic_spectrum(blob.matrix), 1.0, atol=1e-9)
        assert abs(capacity(blob.matrix, blob.hbar) - np.pi) <= 1e-9


def test_quantum_blob_rejects_non_symplectic():
    with pytest.raises(ValueError):
        quantum_blob(np.diag([2.0, 2.0]))


def test_contained_blob_identity():
    blob, residual = find_contained_blob(np.eye(2))
    assert np.allclose(blob.S, np.eye(2), atol=1e-9)
    assert residual >= -1e-10


def test_contained_blob_example():
    M = np.diag([4.0, 1.0 / 9.0])
    blob, residual = find_contained_blob(M)
    assert residual >= -1e-10
    # the blob ellipsoid sits inside the given one
    gap = np.linalg.eigvalsh(np.linalg.inv(blob.S @ blob.S.T) - M)
    assert gap.min() >= -1e-10


def test_contained_blob_rejects_inadmissible():
    with pytest.raises(ValueError, match="admissible"):
        find_contained_blob(2.0 * np.eye(2))


def test_contained_blob_random_admissibles():
    rng = np.random.default_rng(4)
    count = 0
    while count < 20:
        M = random_spd(rng, 4, lo=0.2, hi=1.5)
        if not is_admissible(M):
            continue
        count += 1
        blob, residual = find_contained_blob(M)
        assert residual >= -1e-10 * np.abs(M).max()
        assert np.allclose(symplectic_spectrum(blob.matrix), 1.0, atol=1e-8)
