"""Exact integer-coefficient polynomials in the deformation variable q.

Everything downstream (vanishing predicates, ladder matrices, spectra) rests
on this layer being exact: coefficients are Python ints, equality is
structural, and the partition generating function is built one factor at a
time by exact division by (1 - q^i) instead of evaluating a ratio at a
numeric q.  In the polynomial form q = 1 is an ordinary point, so the
classical binomial limit is just "sum the coefficients".
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub

from . import _Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable


class NotDivisibleError(ArithmeticError):
    """Exact polynomial division left a nonzero remainder.

    Raised only on a bug or invalid input; never a rounding artifact, since
    all arithmetic here is over the integers.
    """


class QPoly(_Record):
    """Polynomial in q with integer coefficients; ``coeffs[k]`` multiplies q**k.

    Canonical form carries no trailing zero coefficients, so two polynomials
    are equal iff their coefficient tuples are equal.  The zero polynomial is
    the empty tuple.  Instances are immutable and hashable.

    >>> QPoly([1, 2, 1]) * QPoly([1])
    QPoly('1 + 2q + q^2')
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.__dict__["coeffs"] = tuple(cs)

    @classmethod
    def zero(cls) -> QPoly:
        return cls()

    @classmethod
    def one(cls) -> QPoly:
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> QPoly:
        """coeff * q**power."""
        if power < 0:
            raise ValueError(f"monomial power must be nonnegative, got {power}")
        return cls((0,) * power + (coeff,))

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coefficient(self, power: int) -> int:
        """Coefficient of q**power (0 beyond the stored degree)."""
        if 0 <= power < len(self.coeffs):
            return self.coeffs[power]
        return 0

    def __add__(self, other: QPoly) -> QPoly:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        summed = list(a)
        for i, c in enumerate(b):
            summed[i] += c
        return QPoly(summed)

    def __neg__(self) -> QPoly:
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: QPoly) -> QPoly:
        return self + (-other)

    def __mul__(self, other: QPoly | int) -> QPoly:
        if isinstance(other, int):
            return QPoly(tuple(other * c for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return QPoly()
        prod = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                prod[i + j] += a * b
        return QPoly(prod)

    __rmul__ = __mul__

    def __call__(self, x):
        """Evaluate at a numeric point (int stays exact, float/complex allowed)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            power = "" if k == 0 else ("q" if k == 1 else f"q^{k}")
            mag = str(abs(c)) if (abs(c) != 1 or not power) else ""
            term = mag + power
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QPoly('{self}')"


def _divide_by_one_minus_q_pow(coeffs: list[int], i: int) -> list[int]:
    """Exact quotient of sum(coeffs[k] q^k) by (1 - q^i), i >= 1.

    The quotient satisfies quot[k] = coeffs[k] + quot[k - i], a running sum
    over each residue class of k mod i.  The i top coefficients are the
    remainder check: each must equal -quot[k - i] (0 when k < i), so every
    running sum must end at zero.  Raises NotDivisibleError if one does not.
    """
    quot = [0] * max(len(coeffs) - i, 0)
    for r in range(i):
        column = list(accumulate(coeffs[r::i]))
        if column and column[-1]:
            raise NotDivisibleError(
                f"1 - q^{i} does not divide: residue {r} leaves {column[-1]}"
            )
        quot[r::i] = column[:-1]
    return quot


def gauss_generating(n: int, m: int) -> QPoly:
    """Generating polynomial of partitions into at most m parts, each <= n.

    The coefficient of q**N counts such partitions of N.  It equals
    prod_{i=1..s}(1 - q^{t+i}) / (1 - q^i) with s = min(n, m), t = max(n, m)
    (a box and its transpose hold the same partitions), built one factor at
    a time by exact division by (1 - q^i): step i multiplies the running
    coefficient list by (1 - q^{t+i}), then divides it exactly, so each step
    is linear in the degree and checks its own remainder.  The result has
    degree n*m; n = 0 or m = 0 gives the constant polynomial 1 (only the
    empty partition).
    """
    if n < 0 or m < 0:
        raise ValueError(f"arguments must be nonnegative, got ({n}, {m})")
    small, large = sorted((n, m))
    coeffs = [1]
    for i in range(1, small + 1):
        shift = large + i
        # times (1 - q^shift): subtract the list shifted up by `shift`
        product = coeffs + [0] * shift
        product[shift:] = map(sub, product[shift:], coeffs)
        coeffs = _divide_by_one_minus_q_pow(product, i)
    return QPoly(coeffs)


def gauss_binomial(n: int, m: int) -> QPoly:
    """q-analogue of the binomial coefficient, a polynomial of degree m*(n-m).

    Zero for m outside 0..n.  Summing the coefficients (evaluating at q = 1)
    recovers the ordinary binomial coefficient.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if m < 0 or m > n:
        return QPoly.zero()
    return gauss_generating(n - m, m)


def q_number(n: int) -> QPoly:
    """The q-extension of the integer n: 1 + q + ... + q**(n-1); zero for n = 0."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return QPoly((1,) * n)


def partition_count(target: int, max_parts: int, max_part_size: int) -> int:
    """Count partitions of ``target`` into at most ``max_parts`` parts, each
    at most ``max_part_size``, by exhaustive enumeration.

    Parts are generated in non-increasing order so each partition is counted
    once.  Deliberately the dumbest correct implementation -- this is the
    independent oracle for the generating-polynomial coefficients -- so keep
    targets small (<= ~60).
    """
    if target < 0 or max_parts < 0 or max_part_size < 0:
        raise ValueError("all arguments must be nonnegative")

    def count(remaining: int, parts_left: int, cap: int) -> int:
        if remaining == 0:
            return 1
        if parts_left == 0 or cap == 0:
            return 0
        total = 0
        for part in range(min(cap, remaining), 0, -1):
            total += count(remaining - part, parts_left - 1, part)
        return total

    return count(target, max_parts, max_part_size)
