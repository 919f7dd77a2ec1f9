"""The q-number sequence on a truncated number basis, built once per
parameter and dimension as the QNumbers value every check of the package
reads, and residual checks for every relation the deformed algebra satisfies.

Raising and lowering are bidiagonal, so the whole representation is the
amplitude vector a[n] = sqrt({n+1}_q), the transition n -> n+1.  Every product
a relation needs is diagonal and every commutator with N sits on one
off-diagonal, so each check is an O(dim) identity over that vector, scaled
once for all its names.  verify_root_relations gives one {relation: residual}
dict per root up to an order, checking each primitive root once and reading
every other root off its reduced root or its conjugate.  The dense matrices
carry a on the subdiagonal (raising) and the superdiagonal (lowering); only
the tests build them, as an independent oracle.
"""

from __future__ import annotations

import cmath
import math
from itertools import compress, repeat
from math import hypot
from operator import attrgetter, mul, not_, sub

from . import _Record
from .roots import (
    DeformParam,
    RealQ,
    RootOfUnity,
    exp_i_pi_times,
    q_number_is_zero,
    q_value_rows,
    q_values,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator


class DimensionTooSmallError(ValueError):
    """Relation checks need at least a 2-dimensional space."""


def _scaled(worst: float, *scales: float) -> float:
    # worst over the largest scale once that exceeds 1; inf unless all are finite
    if not all(map(math.isfinite, (worst, *scales))):
        return math.inf
    return worst / max((1.0, *scales))


def scaled_residual(delta, *references) -> float:
    """Max-abs entry of delta, divided by the largest reference entry once
    that exceeds 1.

    For root-of-unity and q <= 1 regimes every operand is O(1) and this is
    just the absolute residual.  For real q > 1 matrix entries grow like q**n
    (1e19 at q = 2.5, n = 50) where doubles cannot carry absolute 1e-12, so
    the residual is measured relative to the operands instead.  A non-finite
    entry in delta or in a reference gives inf, so an overflowed operand can
    never pass by dividing by an infinite scale.
    """
    if len(delta) == 0:
        return 0.0
    # the largest |entry| of each; a sum of sizes is nan only through a nan, which max skips
    sizes = ((max(map(abs, a)), sum(map(abs, a))) for a in (delta, *references) if len(a))
    return _scaled(*(peak if not math.isnan(total) else math.nan for peak, total in sizes))


def matrix_mismatch(a, b) -> float:
    """Scaled entrywise gap between two sequences (0.0 means identical)."""
    return scaled_residual(list(map(sub, a, b)), a, b)


def _principal_roots(values) -> list[complex]:
    """The principal square root of each value: cmath.sqrt, except that a
    purely imaginary iy gets sqrt(|y|/2) in both parts, as C's csqrt gives it
    (cmath.sqrt's imaginary part |y|/(2 sqrt(|y|/2)) can be an ulp off)."""
    roots = list(map(cmath.sqrt, values))
    for n in compress(range(len(values)), map(not_, map(attrgetter("real"), values))):
        if values[n].imag:
            roots[n] = complex(roots[n].real, math.copysign(roots[n].real, values[n].imag))
    return roots


class QNumbers(_Record):
    """{n}_q (values) and |{n}_q| (moduli) for n = 0..dim+1, and the principal
    a[n] = sqrt({n+1}_q) (amplitudes) for n = 0..dim-1, whose last entry is
    the transition out of the space.  Each is its own tuple, so a fault can
    move one without the others."""

    param: DeformParam
    dim: int
    values: tuple[float, ...] | tuple[complex, ...]
    moduli: tuple[float, ...]
    amplitudes: tuple[complex, ...]


def q_numbers(param: DeformParam, dim: int | None = None) -> QNumbers:
    """The q-numbers of param on dim states; dim defaults to the order of a root.

    At a root the moduli are the sine ratios of one q_value_rows grid, which
    keeps equal magnitudes bit-identical.  For real q both are the one running
    sum of q_values, refused with OverflowError when its largest value
    {dim+1}_q overflows float64."""
    if dim is None:
        if isinstance(param, RealQ):
            raise ValueError("real q needs an explicit truncation dimension")
        dim = param.order
    if dim < 1:
        raise DimensionTooSmallError(f"dimension must be positive, got {dim}")
    if isinstance(param, RealQ):
        values = moduli = tuple(q_values(param, dim + 2))
        if not math.isfinite(values[-1]):  # the largest value
            raise OverflowError(f"{{{dim + 1}}}_q is not finite")
    else:
        (ratios,), (values,) = q_value_rows(param.order, [param.index], dim + 2)
        values, moduli = tuple(values), tuple(map(abs, ratios))
    amplitudes = tuple(_principal_roots(values[1 : dim + 1]))
    return QNumbers(param, dim, values, moduli, amplitudes)


def truncation_safe_dim(param: DeformParam, dim: int) -> int:
    """Size of the leading subspace on which truncated products are artifact-free.

    The top state couples to the lost |dim> transition, so its row/column is
    excluded -- unless {dim}_q = 0 (a root of unity at a multiple of the block
    size), where the algebra closes and the full space is safe.
    """
    if isinstance(param, RootOfUnity) and q_number_is_zero(dim, param):
        return dim
    return dim - 1


def verify_relations(numbers: QNumbers) -> dict[str, float]:
    """The scaled max-abs residual of each deformed-oscillator relation on
    the first truncation_safe_dim(param, dim) states, by relation name in the
    order listed here, except that the number commutators come last.

    Checked for every parameter:

    * deformed_commutator:            lowering raising - q raising lowering = 1
    * deformed_commutator_conjugate:  the conjugate-transposed counterpart,
      raising_dag lowering_dag - conj(q) lowering_dag raising_dag = 1
    * product_updag_up:               raising_dag raising = diag |{N+1}_q|
    * product_up_updag:               raising raising_dag = diag |{N}_q|
    * number_commutator_up/down:      [N, raising] = raising, [N, lowering] = -lowering

    Additionally for real q (where |{n}_q| = {n}_q):

    * real_q_adjoint_commutator_down: lowering lowering_dag - q lowering_dag lowering = 1
    * real_q_adjoint_commutator_up:   raising_dag raising - q raising raising_dag = 1

    and for the fundamental root (index 1), the Biedenharn-MacFarlane pair
    with h = exp(i pi / m):

    * biedenharn_macfarlane_down:     lowering lowering_dag - h lowering_dag lowering = h^-N
    * biedenharn_macfarlane_up:       raising_dag raising - h raising raising_dag = h^-N

    Each product is read off the amplitudes into and out of state n: for
    example (lowering raising)_nn = a[n]**2 and (raising lowering)_nn =
    a[n-1]**2.  In this basis each twin relation (a commutator and its
    conjugate, the two number commutators, each adjoint pair) is one
    identity, computed once and reported under both names.  The
    Biedenharn-MacFarlane pair holds on the first m states only; at dim > m
    the residual honestly reports the failure rather than silently
    restricting the subspace.  If some |{n}_q|, n <= dim, overflows float64,
    the truncated operators cannot be represented and every residual is inf.
    """
    param, dim = numbers.param, numbers.dim
    if dim < 2:
        raise DimensionTooSmallError(f"need dim >= 2, got {dim}")
    if isinstance(param, RealQ):
        adjoint_pair = ("real_q_adjoint_commutator_down", "real_q_adjoint_commutator_up")
        pair = (adjoint_pair, param.value, repeat(1))
    elif param.index == 1:
        pair = _biedenharn_macfarlane(param, dim)
    else:
        pair = None
    upto = truncation_safe_dim(param, dim)
    states = [*numbers.amplitudes[: dim - 1], 0j][:upto]  # a[n] out of each checked state n
    (number,) = _number_commutators(states[: upto - 1])
    return _relations(param.value, states, numbers.moduli[: dim + 1], pair, number)


def verify_root_relations(max_m: int) -> Iterator[dict[str, float]]:
    """verify_relations(q_numbers(RootOfUnity(m, j))) for every root of order
    m = 2..max_m, j = 1..m-1, in that order, each dict made as it is taken.
    Only the primitive roots j <= m/2 are checked, from one q_value_rows grid
    per order; the paper's reducibility scheme gives every other root.

    Each checked root is run by the same code as the one-root call, so each
    dict is that call's, names and residuals bit for bit.  Two identities of
    the q-numbers give the roots that are not checked:

    * a root j with g = gcd(j, m) > 1 is the primitive root s = j/g of order
      l = m/g, and {n + l}_q = {n}_q: its row is that root's period of l
      states repeated g times, and every period ends in the vanishing
      transition {l}_q = 0, as the space ends in {m}_q = 0.  So every relation
      but the number commutators, whose entries grow with n, is the reduced
      root's, less the Biedenharn-MacFarlane pair of a fundamental root.  The
      number commutators of all max_m/l multiples (k l, k s) come from one
      pass over the reduced root's amplitudes repeated, read at the end of
      each period, and wait as one float each until order k l;
    * the root m - j is the complex conjugate of the root j, and conjugating
      q and the q-numbers conjugates (or negates) every delta entry exactly:
      root m - j reports root j's residuals, except that the
      Biedenharn-MacFarlane pair belongs to the fundamental root alone.

    tests/test_roots.py pins both identities on the grids.  Only a reduced
    root's dict and its pending floats are kept, until its last multiple.
    """
    pending: dict[tuple[int, int], tuple[dict[str, float], list[float]]] = {}
    for m in range(2, max_m + 1):
        half = range(1, m // 2 + 1)
        primitive = [j for j in half if math.gcd(j, m) == 1]
        ratios, values = q_value_rows(m, primitive, m + 1)
        pair = _biedenharn_macfarlane(RootOfUnity(m, 1), m)
        rows = {}
        for j, ratio_row, row in zip(primitive, ratios, values):
            states = [*_principal_roots(row[1:m]), 0j]  # {m}_q = 0 closes the space
            first, *later = _number_commutators(states, max_m // m)
            q, moduli = exp_i_pi_times(2 * j, m), list(map(abs, ratio_row))
            residuals = rows[j] = _relations(q, states, moduli, pair if j == 1 else None, first)
            if j == 1:  # the pair is this root's alone; its conjugate and its multiples read the rest
                residuals = fundamental = {
                    name: value for name, value in residuals.items() if name not in pair[0]
                }
            if later:  # the moduli at a root are finite, so each is scaled as _relations does
                pending[m, j] = residuals, [_scaled(*number) for number in reversed(later)]
        for j in half:
            if j not in rows:
                blocks = math.gcd(j, m)
                key = m // blocks, j // blocks  # the reduced root
                reduced, later = pending[key]
                number = later.pop()
                if not later:
                    del pending[key]
                rows[j] = dict(reduced, number_commutator_up=number, number_commutator_down=number)
        yield from map(rows.get, half)
        for j in range(m // 2 + 1, m - 1):
            yield rows[m - j]
        if m > 2:
            yield fundamental


def _biedenharn_macfarlane(root: RootOfUnity, dim: int) -> tuple:
    """The Biedenharn-MacFarlane pair at a fundamental root: names, h, h^-N."""
    h_inverse_powers = [exp_i_pi_times(-n, root.order) for n in range(dim)]
    names = ("biedenharn_macfarlane_down", "biedenharn_macfarlane_up")
    return names, root.half_value, h_inverse_powers


def _relations(q, states, moduli, pair: tuple | None, number: tuple[float, float]) -> dict[str, float]:
    """The residuals of verify_relations from the amplitudes a[n] out of each
    checked state (0 for the transition out of the space), |{n}_q| for
    n = 0..dim, the adjoint pair (names, coefficient, right side), if any, and
    the number commutators' maxima from _number_commutators.

    Each delta entry is the product the dense matrices form on it, part by
    part as CPython multiplies complex numbers, from a[n] out of and a[n-1]
    into state n (0 past either end).  A residual is scaled by its largest
    operand, |a|**2 standing for |a**2|; of two operands one state apart (the
    two orders of a product, a and N a), the larger is the scale.  Each check
    is scaled once and its value entered under each of its names.
    """
    qr, qi = q.real, q.imag
    commutator = norm = gap = 0.0  # running maxima
    ur = ui = 0.0  # the parts of a[n-1]**2
    for y, modulus in zip(states, moduli[1:]):
        inner_gap, inner_norm = gap, norm  # the maxima before the last state
        yr, yi = y.real, y.imag
        rr, ii, ri = yr * yr, yi * yi, yr * yi
        dr, di = rr - ii, ri + ri  # a[n]**2 = (lowering raising)_nn
        # (raising lowering)_nn is a[n-1]**2: lowering raising - q raising lowering - 1
        v = hypot(dr - (qr * ur - qi * ui) - 1.0, di - (qr * ui + qi * ur))
        if v > commutator:
            commutator = v
        p = rr + ii  # |a[n]|**2: conj(a) a = raising_dag raising, imaginary part 0
        if p > norm:
            norm = p
        v = abs(p - modulus)
        if v > gap:
            gap = v
        ur, ui = dr, di
    checks = [
        # the conjugate relation's delta is this one's entrywise conjugate
        (("deformed_commutator", "deformed_commutator_conjugate"), commutator, norm),
        (("product_updag_up",), gap, norm),
        # raising raising_dag is raising_dag raising one state on, 0 at state 0
        (("product_up_updag",), max(abs(moduli[0]), inner_gap), inner_norm),
    ]
    if pair is not None:
        names, coefficient, right = pair
        norms = [y.real * y.real + y.imag * y.imag for y in states]
        delta = map(sub, map(sub, norms, map(mul, repeat(coefficient), [0.0, *norms[:-1]])), right)
        checks.append((names, max(map(abs, delta)), norm))
    # [N, lowering]'s delta is [N, raising]'s negated
    checks.append((("number_commutator_up", "number_commutator_down"), *number))
    finite = all(map(math.isfinite, moduli))
    scaled = ((names, _scaled(worst, scale) if finite else math.inf) for names, worst, scale in checks)
    return {name: value for names, value in scaled for name in names}


def _number_commutators(into, periods: int = 1) -> Iterator[tuple[float, float]]:
    """The largest [N, raising] delta entry and the largest |N a| entry, from
    the amplitudes a[n-1] into the states n = 1, 2, ... (state 0 has none),
    taken over into repeated periods times and read at the end of each
    repeat: N = n on the entry's row and n-1 on its column."""
    number = size = 0.0  # running maxima
    below, n = 0.0, 1.0  # n - 1 and n
    for _ in range(periods):
        for x in into:
            xr, xi = x.real, x.imag
            nr, ni = n * xr, n * xi
            v = hypot(nr - xr * below - xr, ni - xi * below - xi)
            if v > number:
                number = v
            v = hypot(nr, ni)  # N a rounds like n * eps, so it scales the residual too
            if v > size:
                size = v
            below, n = n, n + 1
        yield number, size
