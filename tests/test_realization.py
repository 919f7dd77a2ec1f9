"""Scaling-function realization: equivalence with the direct ladder,
the product recurrence, and unitarity."""

import math

import numpy as np
import pytest

from qdeform import (
    RealQ,
    RootOfUnity,
    realization_mismatch,
    realize_deformed,
    scaled_residual,
    truncation_safe_dim,
    u_minus,
    u_plus,
    undeformed_ladder,
    unitarity_check,
    unitarity_mismatch,
    verify_relations,
    verify_scaling_recurrence,
)


def test_q_one_reduces_to_undeformed():
    a_minus, a_plus = realize_deformed(RealQ(1.0), 8)
    raising, lowering = undeformed_ladder(8)
    assert np.array_equal(a_minus, lowering)
    assert np.array_equal(a_plus, raising)


def test_half_q_entries():
    a_minus, _ = realize_deformed(RealQ(0.5), 3)
    assert a_minus[0, 1] == 1.0
    # sqrt(2) * sqrt({2}_0.5 / 2) = sqrt(1.5)
    assert abs(a_minus[1, 2] - math.sqrt(1.5)) < 1e-15


def test_singular_points_fixed_to_one():
    for param in (RealQ(0.5), RootOfUnity(5, 2)):
        assert u_plus(param, 0) == 1.0 + 0j
        assert u_minus(param, -1) == 1.0 + 0j


def test_matches_direct_construction_for_real_q():
    for q in (0.3, 0.9, 2.5):
        assert realization_mismatch(RealQ(q), 50) < 1e-12


def test_matches_direct_construction_in_modulus_for_roots():
    for root in (RootOfUnity(3, 1), RootOfUnity(6, 1), RootOfUnity(5, 2), RootOfUnity(6, 2)):
        assert realization_mismatch(root, root.order) < 1e-12


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
        report = verify_scaling_recurrence(param, 50)
        assert report.max_recurrence_residual < 1e-12, param
        assert report.max_qnumber_mismatch < 1e-12, param
    with pytest.raises(ValueError):
        verify_scaling_recurrence(RealQ(1.0), 0)


def test_realized_pair_satisfies_deformed_commutator():
    for param in (RealQ(0.9), RealQ(2.5), RootOfUnity(6, 1)):
        dim = 30 if isinstance(param, RealQ) else param.order
        a_minus, a_plus = realize_deformed(param, dim)
        q = param.value
        upto = truncation_safe_dim(param, dim)
        window = (slice(0, upto), slice(0, upto))
        down_up = a_minus @ a_plus
        up_down = a_plus @ a_minus
        delta = down_up - q * up_down - np.eye(dim)
        realized = scaled_residual(delta[window], down_up[window], up_down[window])
        direct = next(
            r.max_abs_residual
            for r in verify_relations(param, dim)
            if r.relation == "deformed_commutator"
        )
        assert abs(realized - direct) < 1e-12


def test_unitarity():
    for q in (0.3, 1.0, 2.5):
        assert unitarity_check(RealQ(q), 20)
    assert not unitarity_check(RootOfUnity(5, 2), 5)
    assert not unitarity_check(RootOfUnity(6, 1), 6)
    # the order-2 root has all-real deformed integers, the one unitary root case
    assert unitarity_check(RootOfUnity(2, 1), 2)


def test_unitarity_mismatch_is_measured():
    for q in (0.3, 1.0, 2.5):
        assert unitarity_mismatch(RealQ(q), 20) == 0.0
    assert unitarity_mismatch(RootOfUnity(2, 1), 2) == 0.0
    assert unitarity_mismatch(RootOfUnity(5, 2), 5) > 0.1


def test_dimension_validation():
    with pytest.raises(ValueError):
        realize_deformed(RealQ(1.0), 1)
