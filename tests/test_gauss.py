"""Exact polynomial layer: ring behavior, the generating-function identities,
and the coefficient/partition duality against the brute-force oracle."""

import copy
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qdeform.gauss as gauss
from qdeform import (
    NotDivisibleError,
    QPoly,
    gauss_binomial,
    gauss_generating,
    partition_count,
    q_number,
)

from reference import divide_exact

coeff_lists = st.lists(st.integers(-40, 40), max_size=8)


# --- ring axioms ------------------------------------------------------------

@given(coeff_lists, coeff_lists)
def test_add_commutes(a, b):
    assert QPoly(a) + QPoly(b) == QPoly(b) + QPoly(a)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_add_associates(a, b, c):
    assert (QPoly(a) + QPoly(b)) + QPoly(c) == QPoly(a) + (QPoly(b) + QPoly(c))


@given(coeff_lists)
def test_additive_identity_and_inverse(a):
    p = QPoly(a)
    assert p + QPoly.zero() == p
    assert p + (-p) == QPoly.zero()


@given(coeff_lists, coeff_lists)
def test_mul_commutes(a, b):
    assert QPoly(a) * QPoly(b) == QPoly(b) * QPoly(a)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_mul_associates_and_distributes(a, b, c):
    pa, pb, pc = QPoly(a), QPoly(b), QPoly(c)
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * (pb + pc) == pa * pb + pa * pc


@given(coeff_lists)
def test_multiplicative_identity(a):
    assert QPoly(a) * QPoly.one() == QPoly(a)


@given(coeff_lists, coeff_lists.filter(lambda cs: any(cs)))
def test_divide_exact_inverts_multiplication(a, b):
    pa, pb = QPoly(a), QPoly(b)
    assert divide_exact(pa * pb, pb) == pa


# --- canonical form and basic ops -------------------------------------------

def test_trailing_zeros_trimmed():
    assert QPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert QPoly([0, 0]).is_zero()
    assert not QPoly([0, 0]) and QPoly([0, 1])
    assert QPoly().degree == -1
    assert QPoly([1, 2]).coefficient(1) == 2
    assert QPoly([1, 2]).coefficient(2) == 0


def test_str_and_repr():
    # the class docstring's example
    assert repr(QPoly([1, 2, 1]) * QPoly([1])) == "QPoly('1 + 2q + q^2')"
    assert str(QPoly([-1, 0, -3, 1])) == "-1 - 3q^2 + q^3"
    assert str(QPoly([0, -1])) == "-q"
    assert str(QPoly.zero()) == "0"


def test_equality_and_hash_follow_the_canonical_coefficients():
    assert QPoly([1, 0]) == QPoly([1])
    assert hash(QPoly([1, 0])) == hash(QPoly([1]))
    # a QPoly equals only a QPoly, not its coefficient tuple
    assert (QPoly([1]) == (1,)) is False
    assert QPoly([1]) != (1,)


def test_qpoly_is_immutable():
    p = QPoly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    with pytest.raises(AttributeError):
        del p.coeffs
    with pytest.raises(AttributeError):
        p.other = 1
    assert p.coeffs == (1, 2)


@pytest.mark.parametrize(
    "duplicate", [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))]
)
def test_copies_and_pickles_are_equal(duplicate):
    p = QPoly([1, 2, 1])
    twin = duplicate(p)
    assert twin == p and twin.coeffs == (1, 2, 1)
    assert hash(twin) == hash(p)


def test_hand_examples():
    one_plus_q = QPoly([1, 1])
    assert one_plus_q + QPoly([0, 1]) == QPoly([1, 2])
    assert one_plus_q + QPoly([-1, -1]) == QPoly.zero()
    assert one_plus_q * one_plus_q == QPoly([1, 2, 1])
    assert 3 * one_plus_q == one_plus_q * 3 == QPoly([3, 3])
    assert QPoly.monomial(2, -4) == QPoly([0, 0, -4])
    with pytest.raises(ValueError):
        QPoly.monomial(-1)
    # hand convolution: (1+q^2)(1+q+q^2) = 1+q+2q^2+q^3+q^4
    assert QPoly([1, 0, 1]) * QPoly([1, 1, 1]) == QPoly([1, 1, 2, 1, 1])


def test_divide_exact_examples():
    # (1-q^2)/(1-q) = 1+q
    assert divide_exact(QPoly([1, 0, -1]), QPoly([1, -1])) == QPoly([1, 1])
    # (1-q^4)(1-q^3) / ((1-q)(1-q^2)) is the (4, 2) q-binomial
    num = QPoly([1, 0, 0, 0, -1]) * QPoly([1, 0, 0, -1])
    den = QPoly([1, -1]) * QPoly([1, 0, -1])
    assert divide_exact(num, den) == gauss_binomial(4, 2)


def test_divide_not_exact_raises():
    with pytest.raises(NotDivisibleError):
        divide_exact(QPoly([1, 1]), QPoly([1, -1]))
    with pytest.raises(ZeroDivisionError):
        divide_exact(QPoly([1, 1]), QPoly.zero())


def test_evaluation():
    p = QPoly([1, 1, 2, 1, 1])
    assert p(1) == 6
    assert p(0) == 1
    assert p(2) == 1 + 2 + 8 + 8 + 16


# --- partition oracle --------------------------------------------------------

def test_partition_count_enumerates():
    # partitions of 2 into <=2 parts each <=2: {2}, {1,1}
    assert partition_count(2, 2, 2) == 2
    assert partition_count(0, 5, 5) == 1
    assert partition_count(5, 2, 2) == 0  # max reachable is 4
    # partitions of 4 into <=2 parts each <=3: {3,1}, {2,2}
    assert partition_count(4, 2, 3) == 2


def test_partition_count_rejects_negative():
    with pytest.raises(ValueError):
        partition_count(-1, 2, 2)


# --- generating polynomials ---------------------------------------------------

def test_generating_box_examples():
    assert gauss_generating(2, 2) == QPoly([1, 1, 2, 1, 1])
    assert gauss_generating(5, 0) == QPoly.one()
    assert gauss_generating(0, 7) == QPoly.one()
    with pytest.raises(ValueError):
        gauss_generating(2, -1)


def product_quotient(n, m):
    """The generating polynomial as both full products and one long division."""
    numerator = QPoly.one()
    denominator = QPoly.one()
    for k in range(1, n + 1):
        # the sparse factor on the left, where QPoly.__mul__ skips zeros
        numerator = (QPoly.one() - QPoly.monomial(m + k)) * numerator
        denominator = (QPoly.one() - QPoly.monomial(k)) * denominator
    return divide_exact(numerator, denominator)


def test_generating_matches_the_product_quotient():
    for n in range(31):
        for m in range(31):
            assert gauss_generating(n, m) == product_quotient(n, m), (n, m)
    assert gauss_generating(40, 40) == product_quotient(40, 40)


def test_division_step_checks_its_remainder():
    # (1 + q)(1 - q^2) = 1 + q - q^2 - q^3
    assert gauss._divide_by_one_minus_q_pow([1, 1, -1, -1], 2) == [1, 1]
    assert gauss._divide_by_one_minus_q_pow([], 3) == []
    for coeffs, i in (([1, 1, -1, 0], 2), ([1, 1], 1), ([1], 3), ([0, 0, 0, 1], 3)):
        with pytest.raises(NotDivisibleError):
            gauss._divide_by_one_minus_q_pow(coeffs, i)


def test_generating_needs_no_polynomial_product_or_long_division(monkeypatch):
    # long division lives only in the tests' reference module; the product
    # is still a QPoly method, so it is patched to fail
    def quartic(*args):
        raise AssertionError("the full products came back")

    monkeypatch.setattr(QPoly, "__mul__", quartic)
    poly = gauss_binomial(100, 50)
    assert poly.degree == 2500
    assert sum(poly.coeffs) == math.comb(100, 50)


def test_binomial_boundaries():
    assert gauss_binomial(4, 2) == QPoly([1, 1, 2, 1, 1])
    for n in range(8):
        assert gauss_binomial(n, 0) == QPoly.one()
        assert gauss_binomial(n, n) == QPoly.one()
    assert gauss_binomial(3, 5) == QPoly.zero()
    assert gauss_binomial(3, -1) == QPoly.zero()
    with pytest.raises(ValueError):
        gauss_binomial(-1, 0)


def test_coefficients_count_partitions():
    # duality: coefficient of q^N in the (n, m) q-binomial counts partitions
    # of N into at most m parts each <= n-m (acceptance sweeps n <= 12)
    for n in range(9):
        for m in range(n + 1):
            poly = gauss_binomial(n, m)
            for target in range(m * (n - m) + 1):
                assert poly.coefficient(target) == partition_count(target, m, n - m)


def test_symmetry():
    # q -> 1/q: the coefficients of [n, m]_q read the same backwards
    for n in range(21):
        for m in range(n + 1):
            coeffs = gauss_binomial(n, m).coeffs
            assert coeffs == coeffs[::-1], (n, m)


def test_recurrences():
    for n in range(2, 21):
        for m in range(1, n):
            this = gauss_binomial(n, m)
            assert this == gauss_binomial(n - 1, m) + QPoly.monomial(n - m) * gauss_binomial(n - 1, m - 1)
            assert this == gauss_binomial(n - 1, m - 1) + QPoly.monomial(m) * gauss_binomial(n - 1, m)


def test_binomial_limit_at_one():
    for n in range(21):
        for m in range(n + 1):
            assert gauss_binomial(n, m)(1) == math.comb(n, m)


def test_degree_and_positivity():
    for n in range(15):
        for m in range(n + 1):
            poly = gauss_binomial(n, m)
            assert poly.degree == m * (n - m)
            assert all(c > 0 for c in poly.coeffs)


# --- deformed integers --------------------------------------------------------

def test_q_number_basics():
    assert q_number(3) == QPoly([1, 1, 1])
    assert q_number(0) == QPoly.zero()
    assert q_number(5)(1) == 5
    with pytest.raises(ValueError):
        q_number(-1)


def test_q_number_recurrence():
    q = QPoly([0, 1])
    for n in range(51):
        assert q_number(n + 1) == QPoly.one() + q * q_number(n)


def test_q_number_is_binomial_column():
    for n in range(1, 20):
        assert q_number(n) == gauss_binomial(n, 1)
