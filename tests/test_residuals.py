"""The one worst-term rule: every check reduces its terms to one residual
with qdeform._worst, the largest |term|, and a non-finite operand or term
makes that residual inf, never nan, so no check passes over a nan.  A check
that two sequences agree takes their gap with qdeform._gap, that rule on
their differences, cut short only where they are equal and finite."""

import math
import struct
from operator import sub

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qdeform.brackets as brackets
import qdeform.ladder as ladder
import qdeform.relations as relations
from qdeform import (
    RealQ,
    RootOfUnity,
    _gap,
    _worst,
    decompose,
    hamiltonian_diagonal,
    q_numbers,
    verify_bracket_relations,
    verify_hamiltonian,
    verify_invariant_subspaces,
    verify_realization,
    verify_relations,
)
from qdeform.relations import verify_root_relations
from reference import unchecked_q_numbers

BAD = (math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.inf, 1.0))


def bits(x):
    return struct.pack("<d", x)


def test_the_worst_of_no_terms_is_zero():
    assert bits(_worst([])) == bits(0.0)
    assert bits(_worst(iter(()))) == bits(0.0)


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("at", [0, 2, 4])
def test_a_non_finite_term_anywhere_makes_the_worst_inf(bad, at):
    terms = [0.5, -3.0, 1e300, 2.0, 0.0]
    terms[at] = bad
    assert _worst(terms) == math.inf
    assert _worst(iter(terms)) == math.inf
    assert _worst([bad]) == math.inf


finite_floats = st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=50)
finite_complex = st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False)


@given(finite_floats)
def test_on_finite_floats_the_worst_is_max_abs(terms):
    assert bits(_worst(terms)) == bits(max(map(abs, terms)))


@given(st.lists(finite_complex, min_size=1, max_size=50))
def test_on_finite_complex_numbers_the_worst_is_max_abs(terms):
    assert bits(_worst(terms)) == bits(max(map(abs, terms)))


@given(finite_floats)
def test_on_numpy_arrays_the_worst_is_max_abs(terms):
    array = np.array(terms)
    assert bits(_worst(array)) == bits(max(map(abs, array)))
    array = array + 1j * array[::-1]
    assert bits(_worst(array)) == bits(max(map(abs, array)))


def test_the_gap_of_equal_finite_sequences_is_zero():
    for seq in ([], [0.5, -3.0, 1e300], (1.0 + 2.0j, -0.0j), [1e308, 1e308]):
        assert bits(_gap(seq, seq)) == bits(0.0)
        assert bits(_gap(seq, seq[::-1][::-1])) == bits(0.0)


@given(st.one_of(finite_floats, st.lists(finite_complex, min_size=1, max_size=50)),
       st.data())
def test_the_gap_is_the_worst_difference(a, data):
    # b is a copy of a with up to three drawn entries replaced by drawn values
    b = list(a)
    for at in data.draw(st.lists(st.integers(0, len(a) - 1), max_size=3)):
        b[at] = data.draw(st.sampled_from([a[at] * (1 + 1e-15), -a[at], 0.0, a[at] + 1e300]))
    for other in (a, b):
        assert bits(_gap(a, other)) == bits(_worst(map(sub, a, other)))


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("at", [0, 2])
def test_a_non_finite_entry_on_either_side_makes_the_gap_inf(bad, at):
    finite = [0.5, -3.0, 2.0]
    faulty = finite.copy()
    faulty[at] = bad
    assert _gap(faulty, finite) == math.inf
    assert _gap(finite, faulty) == math.inf
    # one object on both sides: list equality takes it as equal to itself
    assert faulty == faulty.copy()
    assert _gap(faulty, faulty.copy()) == math.inf
    assert _gap(tuple(faulty), tuple(faulty)) == math.inf


def test_a_nan_energy_breaks_the_block_pattern():
    # a running max from the first term skipped the nan at [4] (0.0), and
    # started from the nan at [0], which no later term replaced (nan)
    numbers = q_numbers(RootOfUnity(6, 2))
    for at in (4, 0):
        diagonal = list(hamiltonian_diagonal(numbers))
        diagonal[at] = math.nan
        assert verify_hamiltonian(numbers, tuple(diagonal))["block_pattern_repeats"] == math.inf


def test_a_realization_past_float64_fails_every_check():
    # {1031}_q overflows at q = 2: the per-entry checks measured 5.6e-16 and
    # 3.3e-16 on the finite entries alone
    residuals = verify_realization(unchecked_q_numbers(RealQ(2.0), 1030))
    assert residuals == dict.fromkeys(residuals, math.inf)


def with_nan(numbers, field, index):
    entries = list(getattr(numbers, field))
    entries[index] *= math.nan  # nan in both parts of a complex entry
    return ladder.QNumbers(**{**vars(numbers), field: tuple(entries)})


FAMILIES = {
    "relations": verify_relations,
    "hamiltonian": lambda numbers: verify_hamiltonian(numbers, hamiltonian_diagonal(numbers)),
    "realization": verify_realization,
}
PARAMS = [(RealQ(0.5), 8), (RealQ(2.0), 8), (RootOfUnity(6, 1), 6), (RootOfUnity(6, 2), 6)]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize(("param", "dim"), PARAMS, ids=repr)
def test_no_family_returns_nan(family, param, dim):
    numbers = q_numbers(param, dim)
    for field in ("values", "moduli", "amplitudes"):
        for index in range(len(getattr(numbers, field))):
            faulty = with_nan(numbers, field, index)
            residuals = FAMILIES[family](faulty)
            if isinstance(param, RootOfUnity):
                residuals.update(verify_invariant_subspaces(faulty, decompose(param)))
            assert not any(map(math.isnan, residuals.values())), (field, index)


# each entry [0..m] of the fundamental row of orders 5 and 6; [3] at order 6
# is the middle entry that both halves of the complement comparison share
NAN_BRACKETS = [(5, at) for at in range(6)] + [(6, at) for at in range(7)]


@pytest.mark.parametrize(("faulty_order", "at"), NAN_BRACKETS,
                         ids=[str(at) if m == 5 else f"order6-{at}" for m, at in NAN_BRACKETS])
def test_a_nan_bracket_fails_every_bracket_identity(monkeypatch, faulty_order, at):
    # [at] at the fundamental root of the faulty order, in the one row the sweep reads
    exact = brackets.sine_ratio_rows

    def faulty(order, indices, count):
        rows = exact(order, indices, count)
        if order == faulty_order:
            rows[list(indices).index(1)][at] = math.nan
        return rows

    monkeypatch.setattr(brackets, "sine_ratio_rows", faulty)
    residuals = verify_bracket_relations(8)
    assert residuals == dict.fromkeys(residuals, math.inf)


def assert_a_nan_at_5_2_fails_its_root_and_every_multiple(monkeypatch, grid):
    """{2}_q at 5:2 made nan in one grid the sweep reads at order 5 (0: the
    ratios, whose moduli the products read; 1: the values, whose square
    roots are the amplitudes) fails 5:2, its conjugate 5:3 and their
    multiples on every check, and no other root to order 15."""
    exact = relations.q_value_rows

    def faulty(m, indices, count):
        rows = exact(m, indices, count)
        if m == 5:
            rows[grid][list(indices).index(2)][2] *= math.nan
        return rows

    monkeypatch.setattr(relations, "q_value_rows", faulty)
    failed = {(5, 2), (5, 3), (10, 4), (10, 6), (15, 6), (15, 9)}
    for root, residuals in verify_root_relations(15):
        if root in failed:
            assert residuals == dict.fromkeys(residuals, math.inf), root
        else:
            assert all(map(math.isfinite, residuals.values())), root


def test_a_nan_in_the_sweep_fails_its_root_and_every_multiple(monkeypatch):
    # the number commutators of 10:4 and 15:6 come from 5:2's amplitudes repeated
    assert_a_nan_at_5_2_fails_its_root_and_every_multiple(monkeypatch, 1)


def test_a_nan_modulus_in_the_sweep_fails_its_root_and_every_multiple(monkeypatch):
    # no loop reads a modulus into the multiples' number commutators: they
    # fail by the operand test of 5:2's own call
    assert_a_nan_at_5_2_fails_its_root_and_every_multiple(monkeypatch, 0)
