"""Residual checks for every relation the deformed oscillator algebra
satisfies, at one parameter (verify_relations) and swept over the roots of
unity (verify_root_relations), both read off the amplitude vector of one
ladder.QNumbers, built by ladder's one builder.

Each check is an O(dim) identity over that vector (ladder has the
representation), scaled once for all its names.  The two running-max loops,
which a nan would slip past, test their operands instead.  One function,
_verify, computes every relation from one QNumbers: its dict and one
number-commutator residual per further period.  verify_relations reads the
dict, and verify_root_relations yields it for each primitive root, less the
Biedenharn-MacFarlane pair for its conjugate, and with each period's number
commutators for its multiples.
"""

from __future__ import annotations

import cmath
import math
from itertools import repeat
from math import hypot
from operator import mul, sub

from . import _worst
from .ladder import DimensionTooSmallError, _row_numbers, _scaled, truncation_safe_dim
from .roots import RealQ, RootOfUnity, exp_i_pi_times, q_value_rows

_BIEDENHARN_MACFARLANE = ("biedenharn_macfarlane_down", "biedenharn_macfarlane_up")
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator

    from .ladder import QNumbers


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
    The dict is the first of what _verify, the one relation function, returns.
    """
    return _verify(numbers, 1)[0]


def verify_root_relations(max_m: int) -> Iterator[tuple[tuple[int, int], dict[str, float]]]:
    """((m, j), verify_relations(q_numbers(RootOfUnity(m, j)))) for every root
    of order m = 2..max_m, j = 1..m-1, each once, each dict made as it is
    taken.  Only the primitive roots (l, s), s <= l/2, are checked, from one
    q_value_rows grid per order l; the paper's reducibility scheme gives every
    other root from the primitive root it is made of.

    Each checked root's grid row, of l + 2 entries as q_numbers reads, goes
    through q_numbers' own builder to the one-root call's own function,
    _verify, so its QNumbers and its dict are that call's, bit for bit.
    Two identities of the q-numbers give the roots that are not checked:

    * the root (l, l - s) is the complex conjugate of (l, s), and conjugating
      q and the q-numbers conjugates (or negates) every delta entry exactly:
      it reports the residuals of (l, s), except that the
      Biedenharn-MacFarlane pair belongs to the fundamental root alone;
    * the root (k l, k s), and so its conjugate (k l, k (l - s)), is (l, s)
      repeated k times, since {n + l}_q = {n}_q: its row is k periods of l
      states, and every period ends in the vanishing transition {l}_q = 0, as
      the space ends in {k l}_q = 0.  So every relation but the number
      commutators, whose entries grow with n, is that of (l, s), less the
      Biedenharn-MacFarlane pair; _verify reads the number commutators of
      all max_m/l multiples off one pass over (l, s) repeated.

    So the dict less the pair is made once for the conjugate, and once per
    multiple with its number commutators.  tests/test_roots.py pins both
    identities on the grids.  Nothing is kept from one primitive root to the
    next.
    """
    for l in range(2, max_m + 1):
        primitive = [s for s in range(1, l // 2 + 1) if math.gcd(s, l) == 1]
        ratios, values = q_value_rows(l, primitive, l + 2)
        for s, ratio_row, row in zip(primitive, ratios, values):
            residuals, later = _verify(_row_numbers(RootOfUnity(l, s), l, ratio_row, row), max_m // l)
            yield (l, s), residuals
            if s == 1:  # the Biedenharn-MacFarlane pair is the fundamental root's alone
                residuals = {name: v for name, v in residuals.items() if name not in _BIEDENHARN_MACFARLANE}
            sides = (s, l - s) if 2 * s < l else (s,)  # 2:1 is its own conjugate
            for j in sides[1:]:
                yield (l, j), residuals
            for k, v in enumerate(later, 2):
                multiple = dict(residuals, number_commutator_up=v, number_commutator_down=v)
                for j in sides:
                    yield (k * l, k * j), multiple


def _verify(numbers: QNumbers, periods: int) -> tuple[dict[str, float], list[float]]:
    """(verify_relations' dict, later) from the amplitudes and the moduli
    |{n}_q|, n = 0..dim, of numbers: later holds one scaled number-commutator
    residual for each of the periods - 1 further repeats of that closed
    space, the multiples of its root (verify_relations, once none are read).

    Each delta entry is the product the dense matrices form on it, part by
    part as CPython multiplies complex numbers, from a[n] out of and a[n-1]
    into state n (0 past either end, and for the transition out of the
    space).  A residual is scaled by its largest operand, |a|**2 standing for
    |a**2|; of two operands one state apart (the two orders of a product, a
    and N a), the larger is the scale.  Each check is scaled once and its
    value entered under each of its names.  Every residual, later's too, is
    inf unless every operand is finite.
    """
    param, dim, amplitudes, moduli = numbers.param, numbers.dim, numbers.amplitudes, numbers.moduli
    if dim < 2:
        raise DimensionTooSmallError(f"need dim >= 2, got {dim}")
    pair = None  # the adjoint pair, if any: names, coefficient, right side
    if isinstance(param, RealQ):
        pair = (("real_q_adjoint_commutator_down", "real_q_adjoint_commutator_up"), param.value, repeat(1))
    elif param.index == 1:  # the Biedenharn-MacFarlane pair: h = exp(i pi / m) and h^-N
        pair = (_BIEDENHARN_MACFARLANE, param.half_value, [exp_i_pi_times(-n, param.order) for n in range(dim)])
    upto = truncation_safe_dim(param, dim)
    states = [*amplitudes[: dim - 1], 0j][:upto]  # a[n] out of each checked state n
    # a closed space's closing 0 adds nothing to the maxima, and keeps N counting
    first, *later = _number_commutators(states if upto == dim else states[: upto - 1], periods)
    q = param.value
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
        checks.append((names, _worst(delta), norm))
    # [N, lowering]'s delta is [N, raising]'s negated
    checks.append((("number_commutator_up", "number_commutator_down"), *first))
    # a running max skips a nan, so the loops' operands are tested instead
    finite = all(map(math.isfinite, moduli[: dim + 1])) and all(map(cmath.isfinite, states))
    scaled = ((names, _scaled(worst, scale) if finite else math.inf) for names, worst, scale in checks)
    residuals = {name: value for names, value in scaled for name in names}
    return residuals, [_scaled(*number) if finite else math.inf for number in later]


def _number_commutators(into, periods: int) -> list[tuple[float, float]]:
    """[(the largest [N, raising] delta entry, the largest |N a| entry)] read
    at the end of each of periods repeats of into, the amplitudes a[n-1] into
    the states n = 1, 2, ... of one whole period (state 0 has none): N = n on
    the entry's row and n-1 on its column."""
    maxima = []
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
        maxima.append((number, size))
    return maxima
