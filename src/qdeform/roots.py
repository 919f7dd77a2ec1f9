"""Roots of unity, primitivity, and exact rational-angle trigonometry.

Angles are kept as integer multiples of pi/denominator and reduced in exact
integer arithmetic before the single final sin/cos call.  Consequences the
rest of the package relies on:

* values that vanish for number-theoretic reasons come out as exactly 0.0,
  never a small float;
* equal angles produce bit-identical floats, so palindrome symmetry, block
  repetition and inverse-root agreement hold to the last bit.

Every angle the roots of order m need is a multiple of pi/(2m).  The row
builders (q_value_rows, sine_ratio_rows, and through them q_values and the
bracket sweep) read each sine and phase off one turn of sines per order, in
which each distinct reduced angle is evaluated once with sin_pi_times, and take
every quotient and product in CPython floats, as the scalar functions do.
So every entry is bit-identical to its scalar counterpart (q_number_value,
q_bracket) by construction.  A row at index j reads every j-th turn, so it
is taken as strided slices of the table repeated as far as the rows reach,
up to a fixed 64 KiB of pointers: one slice where the row fits, else runs
that each start again at their turn, so no read copies more than that.

The root sweeps (verify_bracket_relations here, order by order, and
ladder.verify_root_relations, primitive root by primitive root) build rows
for primitive roots only and read every other root off its reduced root.  A
non-primitive root j of order m, g = gcd(j, m), is the primitive root j/g of
order l = m/g, and every angle of its row reduces to that root's: its
q-numbers repeat with period l and its sine ratios too, negated on each
further period when j/g is odd.  The root m - j is the inverse of the root j:
its q-numbers are row j's conjugates and its sine ratios row j's times
(-1)**(n-1).  Both hold entry by entry, the sign of a zero part aside, and
tests/test_roots.py pins them at every order up to the sweeps' cap.  The
bracket identities that these give are exact, so the bracket sweep compares
the two sides of each and measures a gap only where they differ.

The symmetric bracket [x] lives at the half root q^(1/2);
RootOfUnity.half_value fixes its branch to exp(i*pi*index/order).
"""

from __future__ import annotations

import math
from itertools import chain, islice, repeat
from operator import add, mul, neg, sub, truediv

from . import _Record

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator

    from .gauss import QPoly


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


def exp_i_pi_times(num: int, den: int) -> complex:
    """exp(i * pi * num / den), both parts from the exactly reduced angle."""
    return complex(cos_pi_times(num, den), sin_pi_times(num, den))


class RootOfUnity(_Record):
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

    def inverse(self) -> RootOfUnity:
        """The complex inverse, exp(-2*pi*i*index/order) = exp(2*pi*i*(order-index)/order)."""
        return RootOfUnity(self.order, self.order - self.index)

    @property
    def value(self) -> complex:
        return exp_i_pi_times(2 * self.index, self.order)

    @property
    def half_value(self) -> complex:
        """The half root q^(1/2) = exp(i*pi*index/order).

        All bracket formulas in this package use this branch and never the
        other; doubling its angle in exact integer arithmetic gives value.
        """
        return exp_i_pi_times(self.index, self.order)


class RealQ(_Record):
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
    against the root powers with a nonzero bucket is taken in double
    precision.  There are min(m, len(coeffs)) buckets, so a huge order costs
    no more than the coefficients do.
    """
    m = root.order
    buckets = [0] * min(m, len(p.coeffs))
    for k, c in enumerate(p.coeffs):
        buckets[k % m] += c
    total = 0j
    for r, b in enumerate(buckets):
        if b == 0:
            continue
        total += b * exp_i_pi_times(2 * root.index * r, m)
    return total


def q_number_is_zero(n: int, root: RootOfUnity) -> bool:
    """Exact predicate for {n}_q = 0 at a root of unity: no floats involved.

    For n >= 1, {n}_q = (1 - q^n)/(1 - q) vanishes iff q^n = 1, i.e. iff the
    order divides n*index; {0}_q is the empty sum and vanishes identically.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return (n * root.index) % root.order == 0


def _turn(order: int) -> list[float]:
    """sin_pi_times(x, 2m) for x = 0..4m-1 at order m, read off the quarter
    turn x <= m by the reflections sin_pi_times applies (negation as 0.0 - v,
    which keeps its +0.0).  Its even entries are sin_pi_times(k, m), and those
    of the turn rotated by m are cos_pi_times(k, m), for k = 0..2m-1."""
    m = order
    quarter = [sin_pi_times(t, 2 * m) for t in range(m + 1)]
    half = quarter + quarter[m - 1 : 0 : -1]
    return half + [0.0 - v for v in half]


# The longest repeated table, in entries: 64 KiB of pointers, half of glibc's
# default mmap threshold.  Freeing a larger block raises that threshold, so
# later frees stay on the heap and a long sweep ends with a higher peak RSS.
_WINDOW = 8192


def _read_rows(table: list, indices, count: int, shift: int) -> Iterator[list]:
    """table[j (n - shift) mod 2m] for n = 0..count-1, one row per index j < 2m,
    from a table of one period 2m; each row is made as it is taken.

    The table is repeated as far as the rows reach, up to _WINDOW entries
    (or taken as it is, when longer).  Each row is read as C-level strided
    slices of that, ext[t : t + j c : j] for the c entries still to take from
    the turn t: one slice where the row fits, else runs, each cut off at the
    copy's end and the next starting again at its turn mod 2m.
    """
    period = len(table)
    repeats = min(_WINDOW // period, 1 - (-max(indices) * count // period))  # past the last turn
    ext = table * repeats if repeats > 1 else table
    for j in indices:
        s = -shift * j % period
        row = ext[s : s + j * count : j]
        while len(row) < count:
            t = (s + j * len(row)) % period
            row += ext[t : t + j * (count - len(row)) : j]
        yield row


def _ratio_rows(sines: list[float], indices, count: int) -> list[list[float]]:
    # sin(pi j n / m) / sin(pi j / m), each read off the sines as q_bracket divides
    rows = _read_rows(sines, indices, count, 0)
    return [list(map(truediv, row, repeat(sines[j]))) for j, row in zip(indices, rows)]


def sine_ratio_rows(order: int, indices, count: int) -> list[list[float]]:
    """sin(pi j n / m) / sin(pi j / m) for n = 0..count-1, one row per index j
    at order m: the bracket [n] at each root, and |{n}_q| in modulus.

    Row by row bit-identical to q_bracket.  With at most half as many entries
    as the order, each is q_bracket's own quotient and no table is built.
    Otherwise each row is read off the order's sines as strided slices
    (_read_rows has the size rule) and divided by sin(pi j / m).
    """
    if 2 * len(indices) * count <= order:
        roots = map(RootOfUnity, repeat(order), indices)
        return [[q_bracket(n, root) for n in range(count)] for root in roots]
    return _ratio_rows(_turn(order)[::2], indices, count)


def q_value_rows(order: int, indices, count: int) -> tuple[list[list[float]], list[list[complex]]]:
    """(sine_ratio_rows(order, indices, count), {n}_q for the same entries).

    Each value is q_number_value's closed form, the float ratio times the phase
    exp(i pi j (n-1) / m) in one CPython product, bit-identical to
    q_number_value with its signed zeros; a vanishing ratio gives 0j.  The
    ratios and the phases are read off the order's tables as strided slices
    by the same _read_rows, the phases from the turn 2m - j.
    """
    if 2 * len(indices) * count <= order:  # each phase evaluated as q_number_value does
        ratios = sine_ratio_rows(order, indices, count)
        phases = [[exp_i_pi_times(j * (n - 1), order) if r else 0j for n, r in enumerate(row)]
                  for j, row in zip(indices, ratios)]
    else:
        turn = _turn(order)
        sines = turn[::2]
        table = list(map(complex, (turn[order:] + turn[:order])[::2], sines))  # exp_i_pi_times(k, m)
        ratios, phases = _ratio_rows(sines, indices, count), _read_rows(table, indices, count, 1)
    values = [list(map(mul, row, zs)) for row, zs in zip(ratios, phases)]
    for j, row in zip(indices, values):  # 0.0 z is not 0j: the ratio vanishes where m divides j n
        block = order // math.gcd(j, order)
        row[::block] = [0j] * len(row[::block])
    return ratios, values


def _running_sums(q: float) -> Iterator[float]:
    """{n}_q for n = 0, 1, 2, ... at real q: one running sum of the powers of
    q, the only definition of that sum."""
    total, power = 0.0, 1.0
    while True:
        yield total
        total += power
        power *= q


def q_values(param: DeformParam, count: int) -> list[float] | list[complex]:
    """{n}_q for n = 0..count-1: the running sum listed for real q, the closed
    form per n at a root of unity, each value bit-identical to q_number_value."""
    if isinstance(param, RootOfUnity):
        return q_value_rows(param.order, [param.index], count)[1][0]
    return list(islice(_running_sums(param.value), count))


def q_number_value(n: int, param: DeformParam) -> float | complex:
    """Numeric value of the deformed integer {n}_q = 1 + q + ... + q**(n-1).

    Real q gives a float (positive for n >= 1), term n of the running sum
    q_values lists; a root of unity gives a complex number from the closed form
    {n}_q = [sin(pi j n / m) / sin(pi j / m)] * exp(i pi j (n-1) / m),
    whose sine factor is exactly 0.0 whenever q_number_is_zero holds.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if isinstance(param, RealQ):
        return next(islice(_running_sums(param.value), n, None))
    ratio = q_bracket(n, param)
    if ratio == 0.0:
        return 0j
    return ratio * exp_i_pi_times(param.index * (n - 1), param.order)


def q_bracket(x: int, root: RootOfUnity) -> float:
    """The symmetric bracket (h^x - h^-x)/(h - h^-1) at h = root.half_value.

    Real by construction, sin(pi j x / m)/sin(pi j / m); may be negative.
    """
    return sin_pi_times(root.index * x, root.order) / sin_pi_times(root.index, root.order)


def _complement(row: list[float], j: int) -> float:
    """max |[m-k] - (-1)**(j-1) [k]| over a bracket row [0..m] at index j, read
    for k <= m/2, since the residual is symmetric in k <-> m-k: exactly 0.0
    where the two halves compare equal, else the measured gap."""
    half = (len(row) + 1) // 2
    mirror, ends = row[: -half - 1 : -1], row[:half]  # [m-k] and [k]
    if mirror == (ends if j % 2 else list(map(neg, ends))):
        return 0.0
    return max(map(abs, map(sub if j % 2 else add, mirror, ends)))


def _inverse_parity(inv: list[float], row: list[float]) -> float:
    """max |[k] at m - j - (-1)**(k-1) [k]| over the bracket rows of m - j and
    j: exactly 0.0 where the rows compare equal up to that sign, else the
    measured gap."""
    if inv[1::2] == row[1::2] and inv[::2] == list(map(neg, row[::2])):
        return 0.0
    # a - (-b) is a + b
    return max(map(abs, chain(map(add, inv[::2], row[::2]), map(sub, inv[1::2], row[1::2]))))


def _order_bracket_residuals(m: int) -> tuple[float, float, float]:
    """(complement, complement_fundamental, inverse_parity) over the primitive
    roots of order m, from one array of bracket rows that is released on
    return."""
    primitive = [j for j in range(1, m) if math.gcd(j, m) == 1]  # j and m - j together
    rows = sine_ratio_rows(m, primitive, m + 1)  # rows[i][k] = [k] at index primitive[i]
    worst = fundamental = inverse_parity = 0.0
    for j, row, inv in zip(primitive, rows, reversed(rows)):
        if 2 * j > m:
            break
        parity, complement = _inverse_parity(inv, row), _complement(row, j)
        if j == 1:
            fundamental = complement
        if m - j != j and parity != 0.0:  # row m - j is not row j's mirror
            complement = max(complement, _complement(inv, m - j))
        worst, inverse_parity = max(worst, complement), max(inverse_parity, parity)
    return worst, fundamental, inverse_parity


def verify_bracket_relations(m_max: int) -> dict[str, float]:
    """Max absolute residuals of the four complement/inversion bracket identities.

    Sweeps every order 2 <= m <= m_max, every index j, every 0 <= k <= m, and
    checks, at the fixed half-root branch:

    * complement:              [m-k] = (-1)**(j-1) [k]
    * complement_fundamental:  [m-k] = [k] at j = 1
    * inverse_parity:          [k] at the inverse root's half = (-1)**(k-1) [k]
    * inverse_complement:      [m-k] at the inverse root's half
                               = (-1)**(m-k-1) [m-k]

    Only primitive indices are read.  A non-primitive root j, g = gcd(j, m),
    has the bracket row of the primitive root j/g of order m/g repeated, with
    the sign (-1)**(j/g) on each further period, so each of its residuals is
    one of that root's up to an exact sign, and the sweep took those at order
    m/g: every maximum is the one over all indices.  Each order is one array
    of bracket rows [0..m], one row per primitive index, from sine_ratio_rows;
    the inverse root's row is the row of index m - j, primitive too, not
    evaluated again.  Each conjugate pair (j, m - j) is visited once, for
    j <= m/2: the inverse parity of (m - j, j) is that of (j, m - j) up to an
    exact sign.  Where that residual is exactly 0.0, row m - j is row j's
    exact mirror, [k] at m - j = (-1)**(k-1) [k], so its complement residual
    is row j's; otherwise it is taken on its own.  Each residual is 0.0
    where the two sides of its identity compare equal, and the max-abs gap
    between them where they do not.
    complement_fundamental is complement at j = 1 and inverse_complement is
    inverse_parity with k relabelled m-k, so each is read off its twin and
    reported under its own name.

    Returns the per-identity max residual; with exact angle reduction these
    come out as exactly 0.0.
    """
    if m_max < 2:
        raise ValueError(f"m_max must be at least 2, got {m_max}")
    per_order = [_order_bracket_residuals(m) for m in range(2, m_max + 1)]
    complement, fundamental, parity = map(max, zip(*per_order))
    return {
        "complement": complement,
        "complement_fundamental": fundamental,
        "inverse_parity": parity,
        "inverse_complement": parity,
    }
