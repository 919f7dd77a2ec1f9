"""Ladder matrices and the deformed-algebra relation residuals."""

import math

import numpy as np
import pytest

from qdeform import (
    DimensionTooSmallError,
    RealQ,
    RootOfUnity,
    abs_q_number,
    abs_q_values,
    amplitudes,
    build_ladder,
    matrix_mismatch,
    q_number_value,
    scaled_residual,
    truncation_safe_dim,
    verify_relations,
)


def residual_by_name(param, dim):
    return {r.relation: r for r in verify_relations(param, dim)}


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
        amps = amplitudes(param, 6)
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
        verify_relations(RealQ(1.0), 1)


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
    assert abs_q_values(RealQ(2.0), 3) == [0.0, 1.0, 3.0]
    root = RootOfUnity(6, 1)
    expected = [0.0, 1.0, math.sqrt(3), 2.0, math.sqrt(3), 1.0]
    got = abs_q_values(root, 6)
    assert np.max(np.abs(np.array(got) - expected)) < 1e-12
    for param in (RealQ(0.3), RealQ(2.5), root, RootOfUnity(6, 4)):
        assert abs_q_values(param, 40) == [abs_q_number(n, param) for n in range(40)]


# --- safe subspace ----------------------------------------------------------------

def test_truncation_safe_dim():
    assert truncation_safe_dim(RealQ(0.5), 10) == 9
    assert truncation_safe_dim(RootOfUnity(6, 1), 6) == 6
    assert truncation_safe_dim(RootOfUnity(6, 1), 5) == 4
    assert truncation_safe_dim(RootOfUnity(6, 1), 12) == 12
    # {3}_q vanishes for the (6, 2) root, so dim 3 already closes
    assert truncation_safe_dim(RootOfUnity(6, 2), 3) == 3


# --- relation residuals -------------------------------------------------------------

def test_relations_close_on_roots():
    for m in range(2, 13):
        for j in range(1, m):
            by_name = residual_by_name(RootOfUnity(m, j), m)
            assert by_name["deformed_commutator"].checked_subspace == range(m)
            for name, record in by_name.items():
                assert record.max_abs_residual < 1e-12, (m, j, name)


def test_relations_real_q():
    for q in (0.3, 0.9, 1.0, 2.5):
        by_name = residual_by_name(RealQ(q), 50)
        assert by_name["deformed_commutator"].checked_subspace == range(49)
        assert "real_q_adjoint_commutator_down" in by_name
        assert "real_q_adjoint_commutator_up" in by_name
        assert "biedenharn_macfarlane_down" not in by_name
        for name, record in by_name.items():
            assert record.max_abs_residual < 1e-12, (q, name)


def test_biedenharn_macfarlane_only_for_fundamental():
    fundamental = residual_by_name(RootOfUnity(8, 1), 8)
    assert "biedenharn_macfarlane_down" in fundamental
    assert "biedenharn_macfarlane_up" in fundamental
    assert fundamental["biedenharn_macfarlane_down"].max_abs_residual < 1e-12
    other = residual_by_name(RootOfUnity(8, 3), 8)
    assert "biedenharn_macfarlane_down" not in other


def test_biedenharn_macfarlane_fails_beyond_one_period():
    # the relation belongs to the m-dimensional module; at dim = 2m the
    # verifier must report the failure instead of restricting the window
    by_name = residual_by_name(RootOfUnity(4, 1), 8)
    assert by_name["deformed_commutator"].max_abs_residual < 1e-12
    assert by_name["biedenharn_macfarlane_down"].max_abs_residual > 0.1


def test_number_commutators_structural():
    # structural identity of single-off-diagonal matrices; residual is pure
    # matmul rounding, (n+1)*r - n*r - r
    for param in (RealQ(0.5), RootOfUnity(6, 1)):
        by_name = residual_by_name(param, 6)
        assert by_name["number_commutator_up"].max_abs_residual < 1e-14
        assert by_name["number_commutator_down"].max_abs_residual < 1e-14


def test_matrix_mismatch_scaling():
    a = np.array([[1e19, 0.0], [0.0, 1.0]])
    b = a * (1 + 1e-16)
    assert matrix_mismatch(a, b) < 1e-12  # relative, not absolute
    assert matrix_mismatch(a, a) == 0.0


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
    for record in verify_relations(RealQ(1e200), 3):
        assert record.max_abs_residual > 1e-10, record.relation
