"""Root-of-unity arithmetic: exact predicates, reduced-angle trig, brackets."""

import cmath
import itertools
import math
import struct
import tracemalloc
from decimal import Decimal
from operator import sub

import numpy as np
import pytest

import qdeform.brackets as brackets
import qdeform.roots as roots
from qdeform import (
    QPoly,
    RealQ,
    RootOfUnity,
    cos_pi_times,
    eval_at_root,
    gauss_binomial,
    q_bracket,
    q_number,
    q_number_is_zero,
    q_number_value,
    q_numbers,
    q_values,
    sin_pi_times,
    verify_bracket_relations,
)

from reference import abs_q_number, decimal_sin_pi_times, eval_at_root_all_buckets


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


def test_sin_pi_times_near_a_decimal_series_on_every_quarter_turn():
    # sin(pi t / 2m) for 0 < t < m, every order m = 2..300, against a 48-digit
    # decimal series that shares no code with math.sin.  The worst is 2.14 ulp,
    # at sin(88 pi / 534): the angle is rounded twice before math.sin.  ROADMAP
    # item 18 makes every value the nearest double and tightens this to 0.5 ulp.
    def ulps(t, den):
        value = sin_pi_times(t, den)
        return abs(Decimal(value) - decimal_sin_pi_times(t, den)) / Decimal(math.ulp(value))

    worst = max((ulps(t, 2 * m), t, 2 * m) for m in range(2, 301) for t in range(1, m))
    assert worst[0] <= Decimal("2.5"), worst


# --- root construction and reduction --------------------------------------------

def test_canonical_reduce_examples():
    assert RootOfUnity(6, 2).canonical_reduce() == (3, 1)
    assert RootOfUnity(5, 2).canonical_reduce() == (5, 2)
    assert RootOfUnity(6, 3).canonical_reduce() == (2, 1)


def test_canonical_reduce_idempotent():
    for m in range(2, 21):
        for j in range(1, m):
            reduced = RootOfUnity(*RootOfUnity(m, j).canonical_reduce())
            assert reduced.canonical_reduce() == (reduced.order, reduced.index)
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
    assert RootOfUnity(2, 1).half_value == 1j
    h6 = RootOfUnity(6, 1).half_value
    assert abs(h6 - cmath.exp(1j * math.pi / 6)) < 1e-15
    # the branch in the upper half-plane, a square root of the root itself
    for m in range(2, 25):
        for j in range(1, m):
            root = RootOfUnity(m, j)
            assert root.half_value.imag > 0
            assert abs(root.half_value**2 - root.value) < 1e-15


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


def test_eval_at_root_matches_one_bucket_per_power_bit_for_bit():
    # the buckets past the coefficients hold 0 and are skipped, so sizing them
    # by the polynomial changes no value
    for m in range(2, 41):
        polys = [q_number(n) for n in range(3 * m + 1)]
        for j in range(1, m):
            root = RootOfUnity(m, j)
            got = [eval_at_root(p, root) for p in polys]
            assert packed(got) == packed(eval_at_root_all_buckets(p, root) for p in polys)


def fixed_subsets(n, k, shift):
    """k-subsets of Z_n that rotation by `shift` maps onto themselves, by brute force."""
    return sum(
        1
        for subset in map(frozenset, itertools.combinations(range(n), k))
        if {(x + shift) % n for x in subset} == subset
    )


def test_gauss_at_roots_counts_rotation_fixed_subsets():
    # cyclic sieving (Reiner-Stanton-White): [n, k] at exp(2 pi i j / n)
    # counts the k-subsets of Z_n fixed by rotation by j
    for n in range(2, 11):
        for j in range(1, n):
            for k in range(n + 1):
                value = eval_at_root(gauss_binomial(n, k), RootOfUnity(n, j))
                assert abs(value - fixed_subsets(n, k, j)) < 1e-12


def test_gauss_at_primitive_roots_obeys_q_lucas():
    # q-Lucas (Olive; Desarmenien): at a primitive d-th root z,
    # [n, k]_z = C(n // d, k // d) * [n mod d, k mod d]_z
    for d in range(2, 9):
        for root in (RootOfUnity(d, j) for j in range(1, d) if math.gcd(j, d) == 1):
            for n in range(30):
                for k in range(n + 1):
                    value = eval_at_root(gauss_binomial(n, k), root)
                    small = eval_at_root(gauss_binomial(n % d, k % d), root)
                    lucas = math.comb(n // d, k // d) * small
                    assert abs(value - lucas) <= 1e-12 * math.comb(n, k)


# --- exact vanishing predicate ----------------------------------------------------

def test_q_number_is_zero_examples():
    assert q_number_is_zero(3, RootOfUnity(6, 2))
    assert q_number_is_zero(6, RootOfUnity(6, 1))
    assert not q_number_is_zero(1, RootOfUnity(6, 5))
    assert q_number_is_zero(0, RootOfUnity(6, 1))  # the empty sum is zero
    with pytest.raises(ValueError):
        q_number_is_zero(-1, RootOfUnity(6, 1))


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


def test_real_q_number_value_is_the_listed_term_read_without_a_list():
    for q in (0.3, 0.5, 1.0, 1.1, 2.5):
        param = RealQ(q)
        listed = q_values(param, 2001)
        assert packed(q_number_value(n, param) for n in range(2001)) == packed(listed), q
    tracemalloc.start()
    try:
        assert q_number_value(200_000, RealQ(0.5)) == 2.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_q_number_value_root():
    root = RootOfUnity(6, 1)
    assert q_number_value(1, root) == 1 + 0j
    assert q_number_value(6, root) == 0j
    with pytest.raises(ValueError):
        q_number_value(-1, root)
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


def packed(values):
    """The type of each entry of a sequence of floats or complex numbers and
    the IEEE-754 bytes of every real and imaginary part, so that a comparison
    tells a complex entry from a float and -0.0 from 0.0, which picks the
    branch of a later sqrt.  Both are C-level passes: numpy copies each part
    into a complex128 array as it is (a float's imaginary part as +0.0)."""
    values = list(values)
    return tuple(map(type, values)), np.array(values, dtype=complex).tobytes()


def test_grid_values_are_bit_identical_to_the_scalar_values():
    # past one period (count 2m + 3), at every root of order up to 200; the
    # one-root q_values and the fields of q_numbers (at dim 2m + 1) are the
    # one-row case of the same grid
    for m in range(2, 201):
        count, ns = 2 * m + 3, range(2 * m + 3)
        ratios, values = roots.q_value_rows(m, range(1, m), count)
        brackets = roots.sine_ratio_rows(m, range(1, m), count)
        assert packed(itertools.chain(*ratios)) == packed(itertools.chain(*brackets))
        for j in range(1, m):
            root = RootOfUnity(m, j)
            scalar = [q_bracket(n, root) for n in ns]
            moduli = list(map(abs, ratios[j - 1]))
            assert packed(values[j - 1]) == packed([q_number_value(n, root) for n in ns]), root
            # abs_q_number at a root is the absolute value of the bracket
            assert packed(moduli) == packed(map(abs, scalar)), root
            assert packed(brackets[j - 1]) == packed(scalar), root
            if m <= 60:
                assert packed(q_values(root, count)) == packed(values[j - 1]), root
                numbers = q_numbers(root, count - 2)
                assert packed(numbers.values) == packed(values[j - 1]), root
                assert packed(numbers.moduli) == packed(moduli), root
                # the principal root as numpy's csqrt takes it, bit for bit
                amplitudes = np.sqrt(np.array(values[j - 1][1 : count - 1]))
                assert packed(numbers.amplitudes) == packed(amplitudes.tolist()), root


def counted_trig_calls(monkeypatch, call):
    """The number of sin_pi_times calls that call() makes."""
    calls = []
    exact = roots.sin_pi_times

    def counting(num, den):
        calls.append((num, den))
        return exact(num, den)

    with monkeypatch.context() as patch:
        patch.setattr(roots, "sin_pi_times", counting)
        call()
    return len(calls)


@pytest.mark.parametrize(
    "root, count",
    [(RootOfUnity(2, 1), 1), (RootOfUnity(6, 2), 2), (RootOfUnity(7, 3), 30), (RootOfUnity(12, 5), 13)],
)
def test_grid_reads_no_more_angles_than_the_scalar_values(monkeypatch, root, count):
    ns = range(count)
    for grid, scalar in (
        (lambda: q_values(root, count), lambda: [q_number_value(n, root) for n in ns]),
        (
            lambda: roots.sine_ratio_rows(root.order, [root.index], count),
            lambda: [abs_q_number(n, root) for n in ns],
        ),
    ):
        assert counted_trig_calls(monkeypatch, grid) <= counted_trig_calls(monkeypatch, scalar)


def test_grid_cost_follows_the_count_not_the_order():
    # two values at order 10**6 read three angles, not a table of the order's 4 * 10**6
    root = RootOfUnity(10**6, 1)
    q_values(root, 2)
    tracemalloc.start()
    try:
        assert q_values(root, 2) == [0j, 1 + 0j]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize(
    "order, index, count",
    [(2000, 1999, 2002), (5000, 3, 12001)],
    ids=["short_runs", "runs_over_the_table"],
)
def test_one_row_is_bit_identical_to_the_scalar_values_past_the_window(order, index, count):
    # the two reads the grid sweep above never takes: runs of a few entries
    # at an index next to the order, and runs over a table longer than the
    # 8,192-entry window, wrapping at its end
    root, ns = RootOfUnity(order, index), range(count)
    _, (values,) = roots.q_value_rows(order, [index], count)
    (brackets,) = roots.sine_ratio_rows(order, [index], count)
    assert packed(values) == packed([q_number_value(n, root) for n in ns])
    assert packed(brackets) == packed([q_bracket(n, root) for n in ns])


@pytest.mark.parametrize("rows", [roots.q_value_rows, roots.sine_ratio_rows])
def test_one_row_at_a_large_index_repeats_no_table(rows):
    # repeated as far as index 1999 reaches, the order-2000 tables would hold
    # 1999 * 2002 entries, about 32 MB of pointers; no copy outgrows 64 KiB
    rows(2000, [1999], 2002)
    tracemalloc.start()
    try:
        rows(2000, [1999], 2002)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 1024 * 1024


def test_grid_takes_orders_past_int64():
    root = RootOfUnity(10**21 + 1, 7)
    ns = range(5)
    assert packed(q_values(root, 5)) == packed([q_number_value(n, root) for n in ns])
    assert packed(q_numbers(root, 3).moduli) == packed([abs_q_number(n, root) for n in ns])


def packed_floats(row):
    """The IEEE-754 bytes of a row of floats, in one C call, as one bytes
    value, which the sweep-premise test tiles and compares over 9 M entries."""
    return struct.pack(f"<{len(row)}d", *row)


def test_rows_repeat_their_reduced_root_and_conjugate_at_the_inverse_root():
    # The algebra sweep builds no row for a root j > m/2 and the bracket
    # sweep none for a non-primitive root.  What they read instead rests on these
    # identities, pinned at every order m <= 300 over the m + 1 entries a
    # sweep reads, each row built once, grouped by the reduced order l:
    # * row (m, j), g = gcd(m, j), is row (l, j/g) over one period repeated,
    #   the ratios negated ([n + l] = (-1)**(j/g) [n]) on each further period;
    # * row m - j is row j conjugated, [n] at m - j = (-1)**(n-1) [n].
    # A negated ratio is 0.0 - v, as the sine tables take it, so a vanishing
    # one stays +0.0.
    # Ratios compare bit for bit.  Values compare with ==, up to the sign of a
    # zero part: {5}_q at 8:2 is 1-0j and {1}_q is 1+0j.  The relation
    # residuals read a value through the square, the modulus or a hypot of
    # terms odd in its principal root, so no zero's sign reaches one (the
    # order-sweep test in test_ladder.py pins them bit for bit).
    for l in range(2, 301):
        primitive = [s for s in range(1, l) if math.gcd(s, l) == 1]
        for g in range(1, 300 // l + 1):
            m, count = g * l, g * l + 1
            indices = [g * s for s in primitive]
            ratios, values = roots.q_value_rows(m, indices, count)
            # a primitive row is its own reduced row
            brackets = roots.sine_ratio_rows(m, indices, count) if g > 1 else ratios
            if g == 1:  # one period of each primitive row, as it is and negated
                periods = [
                    (packed_floats(r[:l]), packed_floats([0.0 - v for v in r[:l]]), row[:l])
                    for r, row in zip(ratios, values)
                ]
            rows = zip(primitive, ratios, values, brackets, periods, reversed(ratios), reversed(values))
            for s, ratio_row, row, bracket_row, (same, negated, period), inverse_ratios, inverse in rows:
                root = (m, g * s)
                tiled = ((same + negated if s % 2 else same) * (g + 1))[: 8 * count]
                assert packed_floats(ratio_row) == tiled, root
                assert packed_floats(bracket_row) == tiled, root
                assert row == (period * (g + 1))[:count], root
                assert inverse == list(map(complex.conjugate, row)), root
                assert packed_floats(inverse_ratios[1::2]) == packed_floats(ratio_row[1::2]), root
                negated_even = list(map(sub, itertools.repeat(0.0), ratio_row[::2]))
                assert packed_floats(inverse_ratios[::2]) == packed_floats(negated_even), root


def test_abs_q_number_matches_modulus():
    for m in range(2, 21):
        for j in range(1, m):
            root = RootOfUnity(m, j)
            for n in range(m + 1):
                assert abs(abs_q_number(n, root) - abs(q_number_value(n, root))) < 1e-13


# --- brackets -------------------------------------------------------------------------

def test_bracket_values():
    fundamental6 = RootOfUnity(6, 1)
    assert q_bracket(1, fundamental6) == 1.0
    assert abs(q_bracket(2, fundamental6) - math.sqrt(3)) < 1e-12
    cube = RootOfUnity(6, 2)
    assert q_bracket(3, cube) == 0.0
    assert q_bracket(5, cube) == -1.0


def test_bracket_modulus_equals_qnumber_modulus():
    for m in range(2, 31):
        for j in range(1, m):
            root = RootOfUnity(m, j)
            for n in range(m + 1):
                assert abs(abs_q_number(n, root) - abs(q_bracket(n, root))) == 0.0


def test_fundamental_brackets_nonnegative():
    for m in range(2, 41):
        fundamental = RootOfUnity(m, 1)
        for n in range(m + 1):
            value = q_bracket(n, fundamental)
            assert value >= 0.0
            assert value == abs_q_number(n, RootOfUnity(m, 1))


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
    square = RootOfUnity(2, 1)
    assert q_bracket(1, square) == q_bracket(2 - 1, square)
    # m=6, j=2, k=1: [5] = -[1]
    cube = RootOfUnity(6, 2)
    assert q_bracket(5, cube) == -q_bracket(1, cube)


def four_call_bracket_relations(m_max):
    """The bracket sweep written out directly: four brackets per (m, j, k), each
    looked up on the module, so a patched q_bracket reaches it too."""
    worst = dict.fromkeys(
        ("complement", "complement_fundamental", "inverse_parity", "inverse_complement"), 0.0
    )
    for m in range(2, m_max + 1):
        for j in range(1, m):
            root = RootOfUnity(m, j)
            inverse = RootOfUnity(m, m - j)
            for k in range(m + 1):
                bracket_k = roots.q_bracket(k, root)
                bracket_mk = roots.q_bracket(m - k, root)
                complement = abs(bracket_mk - (-1.0) ** (j - 1) * bracket_k)
                worst["complement"] = max(worst["complement"], complement)
                if j == 1:
                    fundamental = abs(bracket_mk - bracket_k)
                    worst["complement_fundamental"] = max(worst["complement_fundamental"], fundamental)
                parity = abs(roots.q_bracket(k, inverse) - (-1.0) ** (k - 1) * bracket_k)
                worst["inverse_parity"] = max(worst["inverse_parity"], parity)
                inverse_mk = roots.q_bracket(m - k, inverse)
                complement_of_inverse = abs(inverse_mk - (-1.0) ** (m - k - 1) * bracket_mk)
                worst["inverse_complement"] = max(worst["inverse_complement"], complement_of_inverse)
    return worst


def test_bracket_sweep_matches_the_four_call_sweep_under_faults(monkeypatch):
    # every residual is exactly 0.0 on correct brackets, so only wrong ones can
    # tell a correct fold of the twin identities from a wrong one
    faults = {(2, 1, 5): 1e-3, (3, 2, 7): 4e-3, (1, 5, 9): 2e-3, (7, 3, 10): 5e-4}
    # a pair that keeps [9-k] = -[k] at (9, 2) but breaks the inverse parity
    faults.update({(2, 2, 9): 6e-3, (7, 2, 9): -6e-3})
    # a conjugate row past m/2 alone, its mirror row (3, 11) correct, which
    # sets the complement residual; and the one self-paired primitive row,
    # the order-2 root, which sets the inverse parity (twice its fault) and
    # the fundamental complement
    faults.update({(4, 8, 11): 5e-3, (2, 1, 2): 4.5e-3})
    # the oracle reads each bracket from q_bracket, the sweep each order's rows
    # from sine_ratio_rows: both get the same faults.  Each fault sits on a
    # primitive root: the sweep reads a non-primitive root off its reduced
    # root, whose row it repeats (pinned above), so it reads no such row
    exact_bracket, exact_rows = roots.q_bracket, brackets.sine_ratio_rows

    def faulty_bracket(x, root):
        return exact_bracket(x, root) + faults.get((x, root.index, root.order), 0.0)

    def faulty_rows(order, indices, count):
        rows = exact_rows(order, indices, count)
        for row, j in enumerate(indices):
            for x in range(count):
                rows[row][x] += faults.get((x, j, order), 0.0)
        return rows

    monkeypatch.setattr(roots, "q_bracket", faulty_bracket)
    monkeypatch.setattr(brackets, "sine_ratio_rows", faulty_rows)
    folded = verify_bracket_relations(12)
    assert list(folded.items()) == list(four_call_bracket_relations(12).items())
    # the j = 1 faults sit at m = 2 and m = 5, so the fundamental residual is a
    # max over the orders, and it stays below the complement's
    assert 0.0 < folded["complement_fundamental"] < folded["complement"]
    assert folded["complement"] < folded["inverse_parity"]
