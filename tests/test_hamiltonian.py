"""Diagonal Hamiltonians: the closed-form matrices, agreement of the ladder
products with the direct diagonal, block spectra, and the q -> 1 limit."""

import math

import numpy as np
import pytest

from qdeform import (
    RealQ,
    RootOfUnity,
    decompose,
    hamiltonian_diagonal,
    inverse_root_check,
    palindrome_check,
    q_numbers,
    verify_hamiltonian,
)
from qdeform.hamiltonian import BLOCK_PATTERN_TOL

from reference import unchecked_q_numbers

SQRT3 = math.sqrt(3)


def test_order_two_matrix():
    assert list(hamiltonian_diagonal(q_numbers(RootOfUnity(2, 1)))) == [0.5, 0.5]


def test_order_three_matrix():
    assert list(hamiltonian_diagonal(q_numbers(RootOfUnity(3, 1)))) == [0.5, 1.0, 0.5]


def test_order_six_fundamental_matrix():
    expected = [0.5 * v for v in (1, 1 + SQRT3, 2 + SQRT3, 2 + SQRT3, 1 + SQRT3, 1)]
    got = hamiltonian_diagonal(q_numbers(RootOfUnity(6, 1)))
    assert np.max(np.abs(got - np.array(expected))) < 1e-12


def test_order_six_nonprimitive_matrices():
    third = hamiltonian_diagonal(q_numbers(RootOfUnity(6, 2)))
    assert np.max(np.abs(third - 0.5 * np.array([1, 2, 1, 1, 2, 1]))) < 1e-12
    half = hamiltonian_diagonal(q_numbers(RootOfUnity(6, 3)))
    assert np.array_equal(half, np.full(6, 0.5))


def test_undeformed_spectrum():
    got = hamiltonian_diagonal(q_numbers(RealQ(1.0), 4))
    assert np.array_equal(got, np.array([0.5, 1.5, 2.5, 3.5]))
    for n, value in enumerate(hamiltonian_diagonal(q_numbers(RealQ(1.0), 50))):
        assert value == n + 0.5


def test_real_param_requires_dimension():
    with pytest.raises(ValueError):
        hamiltonian_diagonal(q_numbers(RealQ(0.5)))
    with pytest.raises(ValueError):
        hamiltonian_diagonal(q_numbers(RealQ(0.5), 0))


def residuals(numbers):
    return verify_hamiltonian(numbers, hamiltonian_diagonal(numbers))


def equivalence_gap(param, dim=None):
    return residuals(q_numbers(param, dim))["three_constructions_agree"]


def test_equivalence_of_constructions():
    assert equivalence_gap(RootOfUnity(6, 1)) < 1e-12
    assert equivalence_gap(RealQ(0.5), 20) < 1e-12
    assert equivalence_gap(RealQ(1.0), 5) < 1e-12
    assert equivalence_gap(RealQ(2.5), 50) < 1e-12
    for m in range(2, 21):
        for j in range(1, m):
            assert equivalence_gap(RootOfUnity(m, j)) < 1e-12


def test_equivalence_fails_when_energies_overflow():
    # the top energy (|{2}_q| + |{3}_q|)/2 is inf at q = 1e200; the safe
    # window alone would agree exactly and report 0.0
    assert residuals(unchecked_q_numbers(RealQ(1e200), 3))["three_constructions_agree"] > 1e-10


def test_palindrome_symmetry_exact():
    for m in range(2, 41):
        for j in range(1, m):
            assert palindrome_check(RootOfUnity(m, j)) == 0.0


def test_positivity():
    for m in range(2, 31):
        for j in range(1, m):
            assert min(hamiltonian_diagonal(q_numbers(RootOfUnity(m, j)))) > 0


def test_block_repetition_exact():
    for m in range(2, 61):
        for j in range(1, m):
            root = RootOfUnity(m, j)
            numbers = q_numbers(root)
            diagonal = hamiltonian_diagonal(numbers)
            assert verify_hamiltonian(numbers, diagonal)["block_pattern_repeats"] <= BLOCK_PATTERN_TOL
            l = decompose(root).block_dim
            for n in range(m):
                assert diagonal[n] == diagonal[n % l]


def test_spectrum_report_fields():
    numbers = q_numbers(RootOfUnity(6, 2))
    diagonal = hamiltonian_diagonal(numbers)
    assert len(diagonal) == 6
    assert decompose(RootOfUnity(6, 2)).block_count == 2
    assert decompose(RootOfUnity(6, 2)).block_dim == 3
    assert diagonal == tuple(0.5 * x for x in (1, 2, 1, 1, 2, 1))
    assert all(type(x) is float for x in diagonal)
    assert list(verify_hamiltonian(numbers, diagonal)) == [
        "three_constructions_agree", "block_pattern_repeats",
    ]
    real = q_numbers(RealQ(0.5), 8)
    real_diagonal = hamiltonian_diagonal(real)
    assert list(verify_hamiltonian(real, real_diagonal)) == ["three_constructions_agree"]  # no blocks
    assert len(real_diagonal) == 8


@pytest.mark.parametrize("param", [RealQ(0.5), RootOfUnity(6, 2)], ids=["q=0.5", "6:2"])
def test_a_moved_energy_fails_every_hamiltonian_check(param):
    # one energy off by a relative 1e-3, inside the truncation-safe window
    numbers = q_numbers(param, 8 if isinstance(param, RealQ) else None)
    diagonal = list(hamiltonian_diagonal(numbers))
    assert max(verify_hamiltonian(numbers, tuple(diagonal)).values()) <= 1e-15
    diagonal[4] *= 1 + 1e-3
    moved = verify_hamiltonian(numbers, tuple(diagonal))
    assert moved["three_constructions_agree"] > 1e-10
    if isinstance(param, RootOfUnity):
        assert moved["block_pattern_repeats"] > BLOCK_PATTERN_TOL


def test_fundamental_root_drops_moduli():
    # at index 1 every bracket is nonnegative, so H is the plain bracket sum
    from qdeform import q_bracket

    m = 9
    root = RootOfUnity(m, 1)
    got = hamiltonian_diagonal(q_numbers(root))
    expected = [0.5 * (q_bracket(n, root) + q_bracket(n + 1, root)) for n in range(m)]
    assert np.array_equal(got, np.array(expected))


def test_inverse_root_agreement():
    for m in range(2, 31):
        for j in range(1, m):
            assert inverse_root_check(RootOfUnity(m, j)) == 0.0
