"""Roots of unity, primitivity, and exact rational-angle trigonometry.

Angles are kept as integer multiples of pi/denominator and reduced in exact
integer arithmetic before the single final sin/cos call.  Consequences the
rest of the package relies on:

* values that vanish for number-theoretic reasons come out as exactly 0.0,
  never a small float;
* equal angles produce bit-identical floats, so palindrome symmetry, block
  repetition and inverse-root agreement hold to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gauss import QPoly


class DegenerateRootError(ZeroDivisionError):
    """Half-root angle collapsed onto a multiple of pi, so the bracket
    denominator sin vanishes.  Unreachable through validated constructors."""


def sin_pi_times(num: int, den: int) -> float:
    """sin(pi * num / den) for integers, reduced exactly before evaluation.

    Multiples of pi return exactly 0.0; odd multiples of pi/2 return exactly
    +-1.0; angles equal as rationals return bit-identical floats.
    """
    if den <= 0:
        raise ValueError(f"denominator must be positive, got {den}")
    t = num % (2 * den)
    sign = 1.0
    if t >= den:          # sin(pi + x) = -sin(x)
        t -= den
        sign = -1.0
    if 2 * t > den:       # sin(pi - x) = sin(x)
        t = den - t
    if t == 0:
        return 0.0
    if 2 * t == den:
        return sign
    return sign * math.sin(math.pi * (t / den))


def cos_pi_times(num: int, den: int) -> float:
    """cos(pi * num / den), via the quarter-turn shift of sin_pi_times."""
    return sin_pi_times(2 * num + den, 2 * den)


@dataclass(frozen=True)
class RootOfUnity:
    """The root of unity exp(2*pi*i * index / order), 1 <= index <= order - 1."""

    order: int
    index: int

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError(f"order must be at least 2, got {self.order}")
        if not 1 <= self.index <= self.order - 1:
            raise ValueError(
                f"index must lie in 1..{self.order - 1}, got {self.index}"
            )

    @property
    def is_primitive(self) -> bool:
        """True iff no smaller power hits 1, i.e. gcd(index, order) == 1."""
        return math.gcd(self.index, self.order) == 1

    def canonical_reduce(self) -> tuple[int, int]:
        """(l, s) with the same value exp(2*pi*i*s/l) and gcd(s, l) == 1."""
        g = math.gcd(self.index, self.order)
        return self.order // g, self.index // g

    def reduced(self) -> RootOfUnity:
        """The same complex number presented as a primitive root."""
        l, s = self.canonical_reduce()
        return RootOfUnity(l, s)

    def inverse(self) -> RootOfUnity:
        """The complex inverse, exp(-2*pi*i*index/order) = exp(2*pi*i*(order-index)/order)."""
        return RootOfUnity(self.order, self.order - self.index)

    @property
    def value(self) -> complex:
        return complex(
            cos_pi_times(2 * self.index, self.order),
            sin_pi_times(2 * self.index, self.order),
        )

    def half(self) -> HalfRoot:
        return HalfRoot(self)


@dataclass(frozen=True)
class HalfRoot:
    """Fixed square-root branch exp(i*pi*index/order) of a root of unity.

    All bracket formulas in this package use this branch and never the other;
    squaring returns the base root exactly (the angle doubles in exact integer
    arithmetic).
    """

    base: RootOfUnity

    @property
    def value(self) -> complex:
        return complex(
            cos_pi_times(self.base.index, self.base.order),
            sin_pi_times(self.base.index, self.base.order),
        )

    def squared(self) -> RootOfUnity:
        return self.base


@dataclass(frozen=True)
class RealQ:
    """Real deformation value, restricted to q > 0.

    Negative real q would push sqrt({n}_q) out of the reals for some n and is
    left unsupported on purpose.
    """

    value: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value > 0):
            raise ValueError(f"real q must be positive and finite, got {self.value}")


DeformParam = RealQ | RootOfUnity
"""The two supported deformation regimes: positive real q, or a root of unity."""


def eval_at_root(p: QPoly, root: RootOfUnity) -> complex:
    """Numeric value of an integer polynomial at a root of unity.

    Exponents are reduced mod the order first (coefficients summed into
    residue buckets, exactly, as Python ints), then one complex dot product
    against the m root powers is taken in double precision.
    """
    m = root.order
    buckets = [0] * m
    for k, c in enumerate(p.coeffs):
        buckets[k % m] += c
    total = 0j
    for r, b in enumerate(buckets):
        if b == 0:
            continue
        t = 2 * root.index * r
        total += b * complex(cos_pi_times(t, m), sin_pi_times(t, m))
    return total


def q_number_is_zero(n: int, root: RootOfUnity) -> bool:
    """Exact predicate for {n}_q = 0 at a root of unity: no floats involved.

    For n >= 1, {n}_q = (1 - q^n)/(1 - q) vanishes iff q^n = 1, i.e. iff the
    order divides n*index; {0}_q is the empty sum and vanishes identically.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return (n * root.index) % root.order == 0


def q_values(param: DeformParam, count: int) -> list[float] | list[complex]:
    """{n}_q for n = 0..count-1: one running sum for real q (the only
    definition of that sum), the closed form per n at a root of unity."""
    if isinstance(param, RootOfUnity):
        return [q_number_value(n, param) for n in range(count)]
    values = []
    total, power = 0.0, 1.0
    for _ in range(count):
        values.append(total)
        total += power
        power *= param.value
    return values


def q_number_value(n: int, param: DeformParam) -> float | complex:
    """Numeric value of the deformed integer {n}_q = 1 + q + ... + q**(n-1).

    Real q gives a float (positive for n >= 1) from q_values; a root of unity
    gives a complex number from the closed form
    {n}_q = [sin(pi j n / m) / sin(pi j / m)] * exp(i pi j (n-1) / m),
    whose sine factor is exactly 0.0 whenever q_number_is_zero holds.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if isinstance(param, RealQ):
        return q_values(param, n + 1)[n]
    m, j = param.order, param.index
    ratio = sin_pi_times(j * n, m) / sin_pi_times(j, m)
    if ratio == 0.0:
        return 0j
    t = j * (n - 1)
    return ratio * complex(cos_pi_times(t, m), sin_pi_times(t, m))


def abs_q_number(n: int, param: DeformParam) -> float:
    """|{n}_q| as a float, computed from the signed sine ratio directly.

    Avoiding the complex modulus keeps equal magnitudes bit-identical, which
    is what makes spectra of equivalent blocks agree exactly.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if isinstance(param, RealQ):
        return q_values(param, n + 1)[n]
    m, j = param.order, param.index
    return abs(sin_pi_times(j * n, m)) / abs(sin_pi_times(j, m))


def abs_q_values(param: DeformParam, count: int) -> list[float]:
    """|{n}_q| for n = 0..count-1, each bit-identical to abs_q_number."""
    if isinstance(param, RealQ):
        return q_values(param, count)
    return [abs_q_number(n, param) for n in range(count)]


def q_bracket(x: int, half: HalfRoot) -> float:
    """The symmetric bracket (h^x - h^-x)/(h - h^-1) at a half root h.

    Real by construction, sin(pi j x / m)/sin(pi j / m); may be negative.
    """
    m, j = half.base.order, half.base.index
    if j % m == 0:
        raise DegenerateRootError(f"half-root angle {j}*pi/{m} is a multiple of pi")
    return sin_pi_times(j * x, m) / sin_pi_times(j, m)


def verify_bracket_relations(m_max: int) -> dict[str, float]:
    """Max absolute residuals of the four complement/inversion bracket identities.

    Sweeps every order 2 <= m <= m_max, every index j, every 0 <= k <= m, and
    checks, at the fixed half-root branch:

    * complement:              [m-k] = (-1)**(j-1) [k]
    * complement_fundamental:  [m-k] = [k] at j = 1
    * inverse_parity:          [k] at the inverse root's half = (-1)**(k-1) [k]
    * inverse_complement:      [m-k] at the inverse root's half
                               = (-1)**(m-k-1) [m-k]

    Returns the per-identity max residual; with exact angle reduction these
    come out as exactly 0.0.
    """
    if m_max < 2:
        raise ValueError(f"m_max must be at least 2, got {m_max}")
    worst = {
        "complement": 0.0,
        "complement_fundamental": 0.0,
        "inverse_parity": 0.0,
        "inverse_complement": 0.0,
    }
    for m in range(2, m_max + 1):
        for j in range(1, m):
            half = HalfRoot(RootOfUnity(m, j))
            inverse_half = HalfRoot(RootOfUnity(m, j).inverse())
            for k in range(m + 1):
                bracket_k = q_bracket(k, half)
                bracket_mk = q_bracket(m - k, half)
                worst["complement"] = max(
                    worst["complement"],
                    abs(bracket_mk - (-1.0) ** (j - 1) * bracket_k),
                )
                if j == 1:
                    worst["complement_fundamental"] = max(
                        worst["complement_fundamental"], abs(bracket_mk - bracket_k)
                    )
                worst["inverse_parity"] = max(
                    worst["inverse_parity"],
                    abs(q_bracket(k, inverse_half) - (-1.0) ** (k - 1) * bracket_k),
                )
                worst["inverse_complement"] = max(
                    worst["inverse_complement"],
                    abs(q_bracket(m - k, inverse_half) - (-1.0) ** (m - k - 1) * bracket_mk),
                )
    return worst
