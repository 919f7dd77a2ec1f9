"""Ladder matrices and the deformed-algebra relation residuals."""

import math
import struct

import numpy as np
import pytest

import qdeform.relations as relations
from qdeform import (
    DimensionTooSmallError,
    RealQ,
    RootOfUnity,
    hamiltonian_diagonal,
    matrix_mismatch,
    q_number_value,
    q_numbers,
    scaled_residual,
    truncation_safe_dim,
    verify_hamiltonian,
    verify_realization,
    verify_relations,
)

from qdeform.brackets import verify_bracket_relations
from qdeform.relations import verify_root_relations
from reference import abs_q_number, build_ladder, unchecked_q_numbers


def residual_by_name(param, dim):
    return verify_relations(q_numbers(param, dim))


# --- construction ------------------------------------------------------------

def test_undeformed_ladder_at_q_one():
    raising, lowering = build_ladder(RealQ(1.0), 4)
    for n in range(3):
        assert raising[n + 1, n] == math.sqrt(n + 1)
        assert lowering[n, n + 1] == math.sqrt(n + 1)
    assert np.count_nonzero(raising) == 3
    assert np.count_nonzero(lowering) == 3


def test_order_two_root_ladder():
    raising, lowering = build_ladder(RootOfUnity(2, 1), 2)
    assert raising[1, 0] == 1.0
    assert lowering[0, 1] == 1.0
    # {2}_q = 0 at q = -1: the raising operator kills the top state
    top = np.zeros(2)
    top[1] = 1.0
    assert np.all(raising @ top == 0)


def test_real_half_ladder_entry():
    raising, _ = build_ladder(RealQ(0.5), 3)
    assert raising[2, 1] == math.sqrt(1.5)


def test_dense_ladder_carries_the_amplitude_vector():
    for param in (RealQ(0.5), RootOfUnity(6, 1), RootOfUnity(5, 2)):
        amps = q_numbers(param, 6).amplitudes[:5]
        raising, lowering = build_ladder(param, 6)
        assert np.array_equal(np.diag(raising, -1), amps)
        assert np.array_equal(np.diag(lowering, 1), amps)
        assert np.count_nonzero(raising) == np.count_nonzero(amps)


def test_real_q_lowering_adjoint_is_raising():
    for q in (0.3, 1.0, 2.5):
        raising, lowering = build_ladder(RealQ(q), 12)
        assert np.array_equal(lowering.conj().T, raising)


def test_root_adjoint_entry():
    _, lowering = build_ladder(RootOfUnity(6, 1), 3)
    lowering_dag = lowering.conj().T
    expected = np.conj(np.sqrt(complex(q_number_value(2, RootOfUnity(6, 1)))))
    assert lowering_dag[2, 1] == expected


def test_bad_dimension_rejected():
    with pytest.raises(ValueError):
        build_ladder(RealQ(1.0), 0)
    with pytest.raises(DimensionTooSmallError):
        verify_relations(q_numbers(RealQ(1.0), 1))


# --- diagonal products ----------------------------------------------------------

@pytest.mark.parametrize(
    "param", [RealQ(0.5), RealQ(1.0), RealQ(2.5), RootOfUnity(6, 1), RootOfUnity(5, 2)]
)
def test_products_reproduce_qnumbers(param):
    dim = 8
    raising, lowering = build_ladder(param, dim)
    down_up = lowering @ raising
    up_down = raising @ lowering
    for n in range(dim - 1):
        expected_up = complex(q_number_value(n + 1, param))
        expected_down = complex(q_number_value(n, param))
        scale = max(1.0, abs(expected_up))
        assert abs(down_up[n, n] - expected_up) <= 1e-14 * scale
        assert abs(up_down[n, n] - expected_down) <= 1e-14 * scale


@pytest.mark.parametrize(
    "param", [RealQ(0.5), RealQ(2.5), RootOfUnity(6, 1), RootOfUnity(6, 2)]
)
def test_adjoint_products_give_moduli(param):
    dim = 8
    raising, lowering = build_ladder(param, dim)
    down_norm = lowering.conj().T @ lowering
    up_norm = raising.conj().T @ raising
    for n in range(dim - 1):
        target_down = abs_q_number(n, param)
        target_up = abs_q_number(n + 1, param)
        assert abs(down_norm[n, n] - target_down) <= 1e-12 * max(1.0, target_down)
        assert abs(up_norm[n, n] - target_up) <= 1e-12 * max(1.0, target_up)


def test_abs_q_values():
    # q_numbers(param, dim).moduli holds |{n}_q| for n = 0..dim+1
    assert q_numbers(RealQ(2.0), 1).moduli == (0.0, 1.0, 3.0)
    root = RootOfUnity(6, 1)
    expected = [0.0, 1.0, math.sqrt(3), 2.0, math.sqrt(3), 1.0]
    got = q_numbers(root, 4).moduli
    assert np.max(np.abs(np.array(got) - expected)) < 1e-12
    for param in (RealQ(0.3), RealQ(2.5), root, RootOfUnity(6, 4)):
        assert list(q_numbers(param, 38).moduli) == [abs_q_number(n, param) for n in range(40)]


# --- safe subspace ----------------------------------------------------------------

def test_truncation_safe_dim():
    assert truncation_safe_dim(RealQ(0.5), 10) == 9
    assert truncation_safe_dim(RootOfUnity(6, 1), 6) == 6
    assert truncation_safe_dim(RootOfUnity(6, 1), 5) == 4
    assert truncation_safe_dim(RootOfUnity(6, 1), 12) == 12
    # {3}_q vanishes for the (6, 2) root, so dim 3 already closes
    assert truncation_safe_dim(RootOfUnity(6, 2), 3) == 3


# --- relation residuals -------------------------------------------------------------

COMMON = [
    "deformed_commutator",
    "deformed_commutator_conjugate",
    "product_updag_up",
    "product_up_updag",
]
NUMBER = ["number_commutator_up", "number_commutator_down"]
REAL_PAIR = ["real_q_adjoint_commutator_down", "real_q_adjoint_commutator_up"]
BM_PAIR = ["biedenharn_macfarlane_down", "biedenharn_macfarlane_up"]


def test_every_relation_check_returns_a_name_to_float_dict_in_order():
    def shape(residuals):
        assert type(residuals) is dict
        assert all(type(name) is str and type(value) is float for name, value in residuals.items())
        return list(residuals)

    brackets = ["complement", "complement_fundamental", "inverse_parity", "inverse_complement"]
    assert shape(verify_bracket_relations(8)) == brackets
    assert shape(residual_by_name(RealQ(0.5), 8)) == COMMON + REAL_PAIR + NUMBER
    assert shape(residual_by_name(RootOfUnity(8, 1), 8)) == COMMON + BM_PAIR + NUMBER
    assert shape(residual_by_name(RootOfUnity(8, 3), 8)) == COMMON + NUMBER
    # the sweep's seven dicts of order 8 by j, non-primitive roots among them
    by_root = dict(verify_root_relations(8))
    rows = [by_root[8, j] for j in range(1, 8)]
    assert [shape(row) for row in rows] == [COMMON + BM_PAIR + NUMBER] + [COMMON + NUMBER] * 6
    # the realization and Hamiltonian checks, in the order the CLI lists them
    realization = ["realization_matches_direct", "scaling_recurrence",
                   "scaling_product_is_qnumber", "unitary_for_real_q"]
    hamiltonian = ["three_constructions_agree", "block_pattern_repeats"]
    for param, blocks in ((RealQ(0.5), 0), (RootOfUnity(8, 1), 1), (RootOfUnity(8, 2), 1)):
        numbers = q_numbers(param, 8)
        assert shape(verify_realization(numbers)) == realization
        diagonal = hamiltonian_diagonal(numbers)
        assert shape(verify_hamiltonian(numbers, diagonal)) == hamiltonian[: 1 + blocks]


def test_relations_close_on_roots():
    for m in range(2, 13):
        for j in range(1, m):
            root = RootOfUnity(m, j)
            assert truncation_safe_dim(root, m) == m  # the full space is checked
            for name, value in residual_by_name(root, m).items():
                assert value < 1e-12, (m, j, name)


def test_relations_real_q():
    assert truncation_safe_dim(RealQ(0.5), 50) == 49
    for q in (0.3, 0.9, 1.0, 2.5):
        by_name = residual_by_name(RealQ(q), 50)
        assert truncation_safe_dim(RealQ(q), 50) == 49
        assert "real_q_adjoint_commutator_down" in by_name
        assert "real_q_adjoint_commutator_up" in by_name
        assert "biedenharn_macfarlane_down" not in by_name
        for name, value in by_name.items():
            assert value < 1e-12, (q, name)


def test_order_sweep_rows_are_the_one_root_calls():
    # each root exactly once, and bit for bit the one-root call: the residuals
    # are packed, so -0.0 and 0.0 would differ.  At 34 non-primitive roots of
    # order <= 300, the first 140:35, the worst residual is a number
    # commutator, whose entries grow past the first period: the multiples
    # check the values read at the end of later periods
    keyed = list(verify_root_relations(140))
    roots = sorted(root for root, _ in keyed)
    assert roots == [(m, j) for m in range(2, 141) for j in range(1, m)]
    for (m, j), row in keyed:
        one = verify_relations(q_numbers(RootOfUnity(m, j), m))
        # at dim = m every relation is checked on all m states
        assert truncation_safe_dim(RootOfUnity(m, j), m) == m, (m, j)
        assert list(row) == list(one)
        residuals, expected = list(row.values()), list(one.values())
        assert struct.pack(f"<{len(residuals)}d", *residuals) == struct.pack(
            f"<{len(expected)}d", *expected
        ), (m, j)


def packed(values):
    """The type and the IEEE-754 bytes of both parts of each entry, so that
    -0.0 and 0.0 differ, and a float from a complex number."""
    return [(type(v), struct.pack("<2d", v.real, v.imag)) for v in values]


def test_the_sweep_checks_each_primitive_root_on_its_one_root_q_numbers(monkeypatch):
    # the algebra sweep builds each primitive root's QNumbers from its grid row
    # with q_numbers' own builder, so the value the relation function reads is
    # the one-root value, every field bit for bit
    seen = []
    exact = relations._verify

    def recording(numbers, periods):
        seen.append(numbers)
        return exact(numbers, periods)

    monkeypatch.setattr(relations, "_verify", recording)
    for _ in verify_root_relations(48):
        pass
    assert len(seen) == 356
    for numbers in seen:
        one = q_numbers(RootOfUnity(numbers.param.order, numbers.param.index))
        assert (numbers.param, numbers.dim) == (one.param, one.dim)
        for field in ("values", "moduli", "amplitudes"):
            assert packed(getattr(numbers, field)) == packed(getattr(one, field)), (one.param, field)


def test_biedenharn_macfarlane_only_for_fundamental():
    fundamental = residual_by_name(RootOfUnity(8, 1), 8)
    assert "biedenharn_macfarlane_down" in fundamental
    assert "biedenharn_macfarlane_up" in fundamental
    assert fundamental["biedenharn_macfarlane_down"] < 1e-12
    other = residual_by_name(RootOfUnity(8, 3), 8)
    assert "biedenharn_macfarlane_down" not in other


def test_biedenharn_macfarlane_fails_beyond_one_period():
    # the relation belongs to the m-dimensional module; at dim = 2m the
    # verifier must report the failure instead of restricting the window
    by_name = residual_by_name(RootOfUnity(4, 1), 8)
    assert by_name["deformed_commutator"] < 1e-12
    assert by_name["biedenharn_macfarlane_down"] > 0.1


def test_number_commutators_structural():
    # structural identity of single-off-diagonal matrices; residual is pure
    # matmul rounding, (n+1)*r - n*r - r
    for param in (RealQ(0.5), RootOfUnity(6, 1)):
        by_name = residual_by_name(param, 6)
        assert by_name["number_commutator_up"] < 1e-14
        assert by_name["number_commutator_down"] < 1e-14


def test_residuals_do_not_grow_with_dimension():
    # n * a[n] rounds like n * eps; scaled by the N a operand, the number
    # commutators stay at eps however large the truncation
    for name, value in verify_relations(q_numbers(RealQ(0.5), 100_000)).items():
        assert value <= 1e-12, name


def test_matrix_mismatch_scaling():
    a = [1e19, 0.0, 0.0, 1.0]  # a diagonal 2 x 2 matrix, entry by entry
    b = [x * (1 + 1e-16) for x in a]
    assert matrix_mismatch(a, b) < 1e-12  # relative, not absolute
    assert matrix_mismatch(a, a) == 0.0


def test_an_empty_delta_has_zero_residual():
    assert scaled_residual([]) == 0.0
    assert scaled_residual([], [1e300, 2.0]) == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf on purpose
def test_non_finite_operands_never_pass():
    finite = np.array([1.0, 2.0])
    for bad in (math.inf, -math.inf, math.nan):
        assert scaled_residual(np.array([0.0, bad]), finite) == math.inf
        assert scaled_residual(finite * 0, np.array([bad, 1.0])) == math.inf
        assert matrix_mismatch(np.array([bad]), np.array([bad])) == math.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # q * {n}_q overflows on purpose
def test_relations_fail_when_qnumbers_overflow():
    # {3}_q overflows float64 at q = 1e200; the in-window arithmetic alone
    # would report 1e-200 or 0.0
    for name, value in verify_relations(unchecked_q_numbers(RealQ(1e200), 3)).items():
        assert value > 1e-10, name


def test_q_numbers_refuse_a_real_sum_past_float64():
    # {1748}_q is the last finite value at q = 1.5; q_numbers reads up to {dim+1}_q
    assert all(map(math.isfinite, q_numbers(RealQ(1.5), 1747).values))
    for param, dim in ((RealQ(1.5), 1748), (RealQ(1e200), 3)):
        with pytest.raises(OverflowError, match=rf"\{{{dim + 1}\}}_q is not finite"):
            q_numbers(param, dim)
