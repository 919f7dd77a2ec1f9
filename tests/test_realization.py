"""Scaling-function realization: equivalence with the direct ladder,
the product recurrence, and unitarity."""

import math

import numpy as np
import pytest

from qdeform import (
    DimensionTooSmallError,
    RealQ,
    RootOfUnity,
    q_numbers,
    scaled_residual,
    truncation_safe_dim,
    u_minus,
    u_plus,
    verify_realization,
    verify_relations,
)
from qdeform.realization import UNITARITY_TOL


def rescaled_pair(param, dim):
    """(a_minus, a_plus) as dense products U_minus(N) a and U_plus(N) a_dag."""
    plain = np.sqrt(np.arange(1, dim, dtype=float))
    a_minus = np.diag([u_minus(param, n) for n in range(dim)]) @ np.diag(plain, 1)
    a_plus = np.diag([u_plus(param, n) for n in range(dim)]) @ np.diag(plain, -1)
    return a_minus, a_plus


def test_q_one_reduces_to_undeformed():
    plain = np.sqrt(np.arange(1, 8, dtype=float))
    a_minus, a_plus = rescaled_pair(RealQ(1.0), 8)
    assert np.array_equal(a_minus, np.diag(plain, 1))
    assert np.array_equal(a_plus, np.diag(plain, -1))
    residuals = verify_realization(q_numbers(RealQ(1.0), 8))
    assert residuals["realization_matches_direct"] == 0.0
    assert residuals["unitary_for_real_q"] == 0.0


def test_half_q_entries():
    a_minus, _ = rescaled_pair(RealQ(0.5), 3)
    assert a_minus[0, 1] == 1.0
    # sqrt(2) * sqrt({2}_0.5 / 2) = sqrt(1.5)
    assert abs(a_minus[1, 2] - math.sqrt(1.5)) < 1e-15


def test_singular_points_fixed_to_one():
    for param in (RealQ(0.5), RootOfUnity(5, 2)):
        assert u_plus(param, 0) == 1.0 + 0j
        assert u_minus(param, -1) == 1.0 + 0j


def test_matches_direct_construction_for_real_q():
    for q in (0.3, 0.9, 2.5):
        assert verify_realization(q_numbers(RealQ(q), 50))["realization_matches_direct"] < 1e-12


def test_matches_direct_construction_in_modulus_for_roots():
    for root in (RootOfUnity(3, 1), RootOfUnity(6, 1), RootOfUnity(5, 2), RootOfUnity(6, 2)):
        residuals = verify_realization(q_numbers(root, root.order))
        assert residuals["realization_matches_direct"] < 1e-12


def test_recurrence_values_for_q_two():
    # F(2, n) = 2**n - 1, the geometric sum
    param = RealQ(2.0)
    for n in range(1, 21):
        f = u_plus(param, n) * u_minus(param, n - 1) * n
        assert abs(f - (2.0**n - 1.0)) <= 1e-12 * (2.0**n)


def test_recurrence_vanishes_at_root_order():
    param = RootOfUnity(4, 1)
    f4 = u_plus(param, 4) * u_minus(param, 3) * 4
    assert abs(f4) < 1e-15


def test_scaling_recurrence_report():
    for param in (RealQ(0.3), RealQ(1.0), RealQ(2.5), RootOfUnity(4, 1), RootOfUnity(5, 2)):
        residuals = verify_realization(q_numbers(param, 50))
        assert residuals["scaling_recurrence"] < 1e-12, param
        assert residuals["scaling_product_is_qnumber"] < 1e-12, param


def test_realized_pair_satisfies_deformed_commutator():
    for param in (RealQ(0.9), RealQ(2.5), RootOfUnity(6, 1)):
        dim = 30 if isinstance(param, RealQ) else param.order
        a_minus, a_plus = rescaled_pair(param, dim)
        q = param.value
        upto = truncation_safe_dim(param, dim)
        window = (slice(0, upto), slice(0, upto))
        down_up = a_minus @ a_plus
        up_down = a_plus @ a_minus
        delta = down_up - q * up_down - np.eye(dim)
        realized = scaled_residual(*(a[window].ravel() for a in (delta, down_up, up_down)))
        direct = verify_relations(q_numbers(param, dim))["deformed_commutator"]
        assert abs(realized - direct) < 1e-12


def unitarity_gap(param, dim):
    return verify_realization(q_numbers(param, dim))["unitary_for_real_q"]


def test_unitarity():
    for q in (0.3, 1.0, 2.5):
        assert unitarity_gap(RealQ(q), 20) <= UNITARITY_TOL
    assert unitarity_gap(RootOfUnity(5, 2), 5) > UNITARITY_TOL
    assert unitarity_gap(RootOfUnity(6, 1), 6) > UNITARITY_TOL
    # the order-2 root has all-real deformed integers, the one unitary root case
    assert unitarity_gap(RootOfUnity(2, 1), 2) <= UNITARITY_TOL


def test_unitarity_mismatch_is_measured():
    for q in (0.3, 1.0, 2.5):
        assert unitarity_gap(RealQ(q), 20) == 0.0
    assert unitarity_gap(RootOfUnity(2, 1), 2) == 0.0
    assert unitarity_gap(RootOfUnity(5, 2), 5) > 0.1


def test_dimension_validation():
    for dim in (1, 0):
        with pytest.raises(DimensionTooSmallError):
            verify_realization(q_numbers(RealQ(1.0), dim))
