"""Root-of-unity arithmetic: exact predicates, reduced-angle trig, brackets."""

import cmath
import math

import pytest

from qdeform import (
    DegenerateRootError,
    HalfRoot,
    QPoly,
    RealQ,
    RootOfUnity,
    abs_q_number,
    cos_pi_times,
    eval_at_root,
    q_bracket,
    q_number,
    q_number_is_zero,
    q_number_value,
    sin_pi_times,
    verify_bracket_relations,
)


# --- reduced-angle trig --------------------------------------------------------

def test_sin_pi_times_special_points():
    assert sin_pi_times(0, 5) == 0.0
    assert sin_pi_times(5, 5) == 0.0
    assert sin_pi_times(12, 6) == 0.0
    assert sin_pi_times(1, 2) == 1.0
    assert sin_pi_times(3, 2) == -1.0
    assert sin_pi_times(-1, 2) == -1.0
    assert cos_pi_times(0, 7) == 1.0
    assert cos_pi_times(7, 7) == -1.0
    assert cos_pi_times(1, 2) == 0.0


def test_sin_pi_times_equal_angles_bit_identical():
    # same rational angle, different representations
    assert sin_pi_times(2, 6) == sin_pi_times(1, 3)
    assert sin_pi_times(10, 6) == -sin_pi_times(1, 3)
    assert sin_pi_times(4, 6) == sin_pi_times(2, 6)  # sin(2pi/3) = sin(pi/3)


def test_sin_pi_times_rejects_bad_denominator():
    with pytest.raises(ValueError):
        sin_pi_times(1, 0)


# --- root construction and reduction --------------------------------------------

def test_canonical_reduce_examples():
    assert RootOfUnity(6, 2).canonical_reduce() == (3, 1)
    assert RootOfUnity(5, 2).canonical_reduce() == (5, 2)
    assert RootOfUnity(6, 3).canonical_reduce() == (2, 1)


def test_canonical_reduce_idempotent():
    for m in range(2, 21):
        for j in range(1, m):
            reduced = RootOfUnity(m, j).reduced()
            assert reduced.reduced() == reduced
            assert math.gcd(reduced.index, reduced.order) == 1


def test_primitivity():
    assert RootOfUnity(6, 1).is_primitive
    assert not RootOfUnity(6, 4).is_primitive
    assert RootOfUnity(7, 3).is_primitive
    for m in (2, 3, 5, 7, 11, 13):
        assert all(RootOfUnity(m, j).is_primitive for j in range(1, m))


def test_invalid_roots_rejected():
    for order, index in [(6, 0), (6, 6), (6, 7), (1, 1), (0, 0)]:
        with pytest.raises(ValueError):
            RootOfUnity(order, index)


def test_root_value_and_inverse():
    assert RootOfUnity(4, 1).value == 1j
    assert RootOfUnity(2, 1).value == -1.0
    r = RootOfUnity(6, 2)
    assert r.inverse() == RootOfUnity(6, 4)
    assert abs(r.value * r.inverse().value - 1) < 1e-15


def test_half_root_branch():
    h = HalfRoot(RootOfUnity(2, 1))
    assert h.value == 1j
    assert h.squared() == RootOfUnity(2, 1)
    h6 = HalfRoot(RootOfUnity(6, 1))
    assert abs(h6.value - cmath.exp(1j * math.pi / 6)) < 1e-15


def test_real_param_validation():
    assert RealQ(0.5).value == 0.5
    assert RootOfUnity(4, 1).value == 1j
    for bad in (0.0, -1.0, -0.5, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            RealQ(bad)


# --- polynomial evaluation at roots ----------------------------------------------

def test_eval_at_root_vanishing():
    for m in range(2, 13):
        for j in range(1, m):
            assert abs(eval_at_root(q_number(m), RootOfUnity(m, j))) < 1e-12


def test_eval_at_root_basics():
    root = RootOfUnity(3, 1)
    assert eval_at_root(QPoly.one(), root) == 1.0
    assert abs(eval_at_root(q_number(3), root)) < 1e-12
    # exponent reduction: q^5 at a cube root equals q^2
    assert eval_at_root(QPoly.monomial(5), root) == eval_at_root(QPoly.monomial(2), root)


# --- exact vanishing predicate ----------------------------------------------------

def test_q_number_is_zero_examples():
    assert q_number_is_zero(3, RootOfUnity(6, 2))
    assert q_number_is_zero(6, RootOfUnity(6, 1))
    assert not q_number_is_zero(1, RootOfUnity(6, 5))
    assert q_number_is_zero(0, RootOfUnity(6, 1))  # the empty sum is zero


def test_q_number_is_zero_matches_float_eval():
    for m in range(2, 41):
        for j in range(1, m):
            root = RootOfUnity(m, j)
            for n in range(2 * m + 1):
                near_zero = abs(eval_at_root(q_number(n), root)) < 1e-9
                assert q_number_is_zero(n, root) == near_zero


# --- numeric deformed integers -----------------------------------------------------

def test_q_number_value_real():
    assert q_number_value(2, RealQ(0.5)) == 1.5
    assert q_number_value(0, RealQ(2.0)) == 0.0
    assert q_number_value(4, RealQ(1.0)) == 4.0
    assert q_number_value(3, RealQ(2.0)) == 7.0


def test_q_number_value_root():
    root = RootOfUnity(6, 1)
    assert q_number_value(1, root) == 1 + 0j
    assert q_number_value(6, root) == 0j
    expected = 1 + cmath.exp(1j * math.pi / 3)
    assert abs(q_number_value(2, root) - expected) < 1e-14


def test_q_number_value_matches_polynomial_eval():
    for m in range(2, 21):
        for j in range(1, m):
            root = RootOfUnity(m, j)
            for n in range(m + 2):
                direct = q_number_value(n, root)
                summed = eval_at_root(q_number(n), root)
                assert abs(direct - summed) < 1e-11


def test_abs_q_number_matches_modulus():
    for m in range(2, 21):
        for j in range(1, m):
            root = RootOfUnity(m, j)
            for n in range(m + 1):
                assert abs(abs_q_number(n, root) - abs(q_number_value(n, root))) < 1e-13


# --- brackets -------------------------------------------------------------------------

def test_bracket_values():
    fundamental6 = HalfRoot(RootOfUnity(6, 1))
    assert q_bracket(1, fundamental6) == 1.0
    assert abs(q_bracket(2, fundamental6) - math.sqrt(3)) < 1e-12
    cube = HalfRoot(RootOfUnity(6, 2))
    assert q_bracket(3, cube) == 0.0
    assert q_bracket(5, cube) == -1.0


def test_bracket_modulus_equals_qnumber_modulus():
    for m in range(2, 31):
        for j in range(1, m):
            root = RootOfUnity(m, j)
            half = HalfRoot(root)
            for n in range(m + 1):
                assert abs(abs_q_number(n, root) - abs(q_bracket(n, half))) == 0.0


def test_fundamental_brackets_nonnegative():
    for m in range(2, 41):
        half = HalfRoot(RootOfUnity(m, 1))
        for n in range(m + 1):
            value = q_bracket(n, half)
            assert value >= 0.0
            assert value == abs_q_number(n, RootOfUnity(m, 1))


def test_degenerate_half_root():
    # constructor validation makes this unreachable; bypass it to pin the guard
    root = RootOfUnity(6, 1)
    object.__setattr__(root, "index", 6)
    with pytest.raises(DegenerateRootError):
        q_bracket(1, HalfRoot(root))


def test_bracket_relation_sweep():
    residuals = verify_bracket_relations(12)
    assert set(residuals) == {
        "complement",
        "complement_fundamental",
        "inverse_parity",
        "inverse_complement",
    }
    assert all(value < 1e-12 for value in residuals.values())
    with pytest.raises(ValueError):
        verify_bracket_relations(1)


def test_complement_spot_values():
    # m=2, j=1, k=1: the self-complementary point [1] = [1]
    half2 = HalfRoot(RootOfUnity(2, 1))
    assert q_bracket(1, half2) == q_bracket(2 - 1, half2)
    # m=6, j=2, k=1: [5] = -[1]
    cube = HalfRoot(RootOfUnity(6, 2))
    assert q_bracket(5, cube) == -q_bracket(1, cube)
