"""Diagonal Hamiltonians: the closed-form matrices, equivalence of the three
constructions, block spectra, and the q -> 1 limit."""

import math

import numpy as np
import pytest

from qdeform import (
    RealQ,
    RootOfUnity,
    build_hamiltonian,
    eigensolver_agreement,
    hamiltonian_diagonal,
    hamiltonian_equivalence_check,
    inverse_root_check,
    palindrome_check,
    sorted_eigenvalues,
    spectrum_report,
)

SQRT3 = math.sqrt(3)


def test_order_two_matrix():
    assert list(hamiltonian_diagonal(RootOfUnity(2, 1))) == [0.5, 0.5]


def test_order_three_matrix():
    assert list(hamiltonian_diagonal(RootOfUnity(3, 1))) == [0.5, 1.0, 0.5]


def test_order_six_fundamental_matrix():
    expected = [0.5 * v for v in (1, 1 + SQRT3, 2 + SQRT3, 2 + SQRT3, 1 + SQRT3, 1)]
    got = hamiltonian_diagonal(RootOfUnity(6, 1))
    assert np.max(np.abs(got - np.array(expected))) < 1e-12


def test_order_six_nonprimitive_matrices():
    third = hamiltonian_diagonal(RootOfUnity(6, 2))
    assert np.max(np.abs(third - 0.5 * np.array([1, 2, 1, 1, 2, 1]))) < 1e-12
    half = hamiltonian_diagonal(RootOfUnity(6, 3))
    assert np.array_equal(half, np.full(6, 0.5))


def test_undeformed_spectrum():
    got = hamiltonian_diagonal(RealQ(1.0), 4)
    assert np.array_equal(got, np.array([0.5, 1.5, 2.5, 3.5]))
    for n, value in enumerate(hamiltonian_diagonal(RealQ(1.0), 50)):
        assert value == n + 0.5


def test_real_param_requires_dimension():
    with pytest.raises(ValueError):
        hamiltonian_diagonal(RealQ(0.5))
    with pytest.raises(ValueError):
        hamiltonian_diagonal(RealQ(0.5), 0)


def test_equivalence_of_constructions():
    assert hamiltonian_equivalence_check(RootOfUnity(6, 1)) < 1e-12
    assert hamiltonian_equivalence_check(RealQ(0.5), 20) < 1e-12
    assert hamiltonian_equivalence_check(RealQ(1.0), 5) < 1e-12
    assert hamiltonian_equivalence_check(RealQ(2.5), 50) < 1e-12
    for m in range(2, 21):
        for j in range(1, m):
            assert hamiltonian_equivalence_check(RootOfUnity(m, j)) < 1e-12


def test_equivalence_fails_when_energies_overflow():
    # the top energy (|{2}_q| + |{3}_q|)/2 is inf at q = 1e200; the safe
    # window alone would agree exactly and report 0.0
    assert hamiltonian_equivalence_check(RealQ(1e200), 3) > 1e-10


def test_palindrome_symmetry_exact():
    for m in range(2, 41):
        for j in range(1, m):
            assert palindrome_check(RootOfUnity(m, j))


def test_positivity():
    for m in range(2, 31):
        for j in range(1, m):
            assert np.all(hamiltonian_diagonal(RootOfUnity(m, j)) > 0)


def test_block_repetition_exact():
    for m in range(2, 61):
        for j in range(1, m):
            report = spectrum_report(RootOfUnity(m, j))
            assert report.block_pattern_verified
            l = report.blocks.block_dim
            for n in range(m):
                assert report.diagonal[n] == report.diagonal[n % l]


def test_spectrum_report_fields():
    report = spectrum_report(RootOfUnity(6, 2))
    assert report.dim == 6
    assert report.blocks.block_count == 2
    assert report.blocks.block_dim == 3
    assert report.diagonal == tuple(0.5 * x for x in (1, 2, 1, 1, 2, 1))
    real_report = spectrum_report(RealQ(0.5), 8)
    assert real_report.blocks is None
    assert real_report.block_pattern_verified  # vacuous
    assert len(real_report.diagonal) == 8


def test_fundamental_root_drops_moduli():
    # at index 1 every bracket is nonnegative, so H is the plain bracket sum
    from qdeform import HalfRoot, q_bracket

    m = 9
    half = HalfRoot(RootOfUnity(m, 1))
    got = hamiltonian_diagonal(RootOfUnity(m, 1))
    expected = [0.5 * (q_bracket(n, half) + q_bracket(n + 1, half)) for n in range(m)]
    assert np.array_equal(got, np.array(expected))


def test_inverse_root_agreement():
    assert inverse_root_check(RootOfUnity(6, 2))
    assert inverse_root_check(RootOfUnity(6, 3))
    assert inverse_root_check(RootOfUnity(5, 1))
    for m in range(2, 31):
        for j in range(1, m):
            assert inverse_root_check(RootOfUnity(m, j))


def test_eigensolver_cross_check():
    assert eigensolver_agreement(RootOfUnity(6, 1)) < 1e-12
    assert eigensolver_agreement(RealQ(0.5), 30) < 1e-12
    h = build_hamiltonian(RootOfUnity(6, 2))
    assert np.max(np.abs(sorted_eigenvalues(h) - np.sort(np.diag(h).real))) < 1e-12
