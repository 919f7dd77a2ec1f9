"""The q-number sequence on a truncated number basis, built once per
parameter and dimension as the QNumbers value every check of the package
reads, and residual checks for every relation the deformed algebra satisfies.

Raising and lowering are bidiagonal, so the whole representation is the
amplitude vector a[n] = sqrt({n+1}_q), the transition n -> n+1.  Every product
a relation needs is diagonal and every commutator with N sits on one
off-diagonal, so each check is an O(dim) identity over that vector, and
verify_order_relations checks every root of one order as one array, a row
per root.  The dense matrices carry a on the subdiagonal (raising) and the
superdiagonal (lowering); only the tests build them, as an independent
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .roots import (
    DeformParam,
    RealQ,
    RootOfUnity,
    exp_i_pi_times,
    q_number_is_zero,
    q_value_rows,
    q_values,
)

if TYPE_CHECKING:
    import numpy as np


class DimensionTooSmallError(ValueError):
    """Relation checks need at least a 2-dimensional space."""


@dataclass(frozen=True)
class RelationResidual:
    """Outcome of one relation check: scaled max-abs residual over a subspace."""

    relation: str
    max_abs_residual: float
    checked_subspace: range


def scaled_residual(delta: np.ndarray, *references: np.ndarray) -> float:
    """Max-abs entry of delta, divided by the largest reference entry once
    that exceeds 1.

    For root-of-unity and q <= 1 regimes every operand is O(1) and this is
    just the absolute residual.  For real q > 1 matrix entries grow like q**n
    (1e19 at q = 2.5, n = 50) where doubles cannot carry absolute 1e-12, so
    the residual is measured relative to the operands instead.  A non-finite
    entry in delta or in a reference gives inf, so an overflowed operand can
    never pass by dividing by an infinite scale.
    """
    if delta.size == 0:
        return 0.0
    rows = (a.reshape(1, -1) for a in (delta, *references) if a.size)
    return float(_scaled_rows(*rows)[0])


def _scaled_rows(delta: np.ndarray, *references: np.ndarray) -> np.ndarray:
    """scaled_residual of each row of delta against the same rows of references."""
    import numpy as np

    worst, *scales = (np.abs(a).max(axis=1) for a in (delta, *references))
    scale = np.maximum.reduce([np.ones_like(worst), *scales])
    finite = np.isfinite(worst) & np.isfinite(scale)
    return np.divide(worst, scale, out=np.full_like(worst, np.inf), where=finite)


def matrix_mismatch(a: np.ndarray, b: np.ndarray) -> float:
    """Scaled entrywise gap between two arrays (0.0 means identical)."""
    return scaled_residual(a - b, a, b)


@dataclass(frozen=True)
class QNumbers:
    """{n}_q (values) and |{n}_q| (moduli) for n = 0..dim+1, and the principal
    a[n] = sqrt({n+1}_q) (amplitudes) for n = 0..dim-1, whose last entry is
    the transition out of the space.  Each is its own array, so a fault can
    move one without the others."""

    param: DeformParam
    dim: int
    values: np.ndarray
    moduli: np.ndarray
    amplitudes: np.ndarray


def q_numbers(param: DeformParam, dim: int | None = None) -> QNumbers:
    """The q-numbers of param on dim states; dim defaults to the order of a root.

    At a root the moduli are the sine ratios of one q_value_rows grid, which
    keeps equal magnitudes bit-identical.  For real q both are the one running
    sum of q_values, refused with OverflowError, before numpy is loaded, when
    its largest value {dim+1}_q overflows float64."""
    if dim is None:
        if isinstance(param, RealQ):
            raise ValueError("real q needs an explicit truncation dimension")
        dim = param.order
    if dim < 1:
        raise DimensionTooSmallError(f"dimension must be positive, got {dim}")
    if isinstance(param, RealQ):
        values = q_values(param, dim + 2)
        if not math.isfinite(values[-1]):  # the largest value
            raise OverflowError(f"{{{dim + 1}}}_q is not finite")
    import numpy as np

    if isinstance(param, RealQ):
        values = moduli = np.array(values)
    else:
        ratios, values = q_value_rows(param.order, [param.index], dim + 2)
        values, moduli = values[0], abs(ratios[0])
    amplitudes = np.sqrt(values[1 : dim + 1].astype(complex))
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


def verify_relations(numbers: QNumbers) -> list[RelationResidual]:
    """Residuals of the deformed-oscillator relations on the safe subspace.

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

    It is the one-row case of the row-wise core that verify_order_relations
    runs over all the roots of one order.
    """
    param, dim = numbers.param, numbers.dim
    if dim < 2:
        raise DimensionTooSmallError(f"need dim >= 2, got {dim}")
    amps = numbers.amplitudes[: dim - 1].reshape(1, -1)
    moduli = numbers.moduli[: dim + 1].reshape(1, -1)
    if isinstance(param, RealQ):
        adjoint_pair = ("real_q_adjoint_commutator_down", "real_q_adjoint_commutator_up")
        pair = (adjoint_pair, param.value, 1)
    elif param.index == 1:
        pair = _biedenharn_macfarlane(param, dim)
    else:
        pair = None
    upto = truncation_safe_dim(param, dim)
    return _relation_rows(param.value, amps, moduli, upto, pair)[0]


def verify_order_relations(order: int) -> list[list[RelationResidual]]:
    """verify_relations(q_numbers(RootOfUnity(order, j))) for j = 1..order-1, in
    that order, from one array pass over all the roots of one order.

    The amplitudes and moduli of every root come from one q_value_rows grid,
    and the relations are checked row by row, each row bit-identical to the
    one-root call.
    """
    import numpy as np

    indices = range(1, order)
    ratios, values = q_value_rows(order, indices, order + 1)
    amps = np.sqrt(values[:, 1:order])  # the amplitudes inside the space, for each root
    q = np.array([RootOfUnity(order, j).value for j in indices]).reshape(-1, 1)
    pair = _biedenharn_macfarlane(RootOfUnity(order, 1), order)
    # {order}_q = 0 at every root of this order, so the full space is safe
    return _relation_rows(q, amps, abs(ratios), order, pair)


def _biedenharn_macfarlane(root: RootOfUnity, dim: int) -> tuple:
    """The Biedenharn-MacFarlane pair at a fundamental root: names, h, h^-N."""
    import numpy as np

    h_inverse_powers = np.array([exp_i_pi_times(-n, root.order) for n in range(dim)])
    names = ("biedenharn_macfarlane_down", "biedenharn_macfarlane_up")
    return names, root.half_value, h_inverse_powers


def _relation_rows(
    q: complex | float | np.ndarray,
    amps: np.ndarray,
    moduli: np.ndarray,
    upto: int,
    pair: tuple | None,
) -> list[list[RelationResidual]]:
    """The relation residuals of verify_relations, one list per row.

    Row r carries the amplitude vector amps[r] (length dim - 1), the moduli
    |{n}_q| for n = 0..dim in moduli[r], and the deformation q[r] (q
    broadcasts against the rows).  pair is (names, coefficient, right side)
    of the adjoint pair, out_norm - coefficient in_norm = right side; it is
    checked on the first row only, which is the fundamental root in a sweep
    and the one parameter otherwise.
    """
    import numpy as np

    into = np.pad(amps, ((0, 0), (1, 0)))  # into[r, n]: raising amplitude n-1 -> n
    out = np.pad(amps, ((0, 0), (0, 1)))  # out[r, n]: raising amplitude n -> n+1
    finite = np.isfinite(moduli).all(axis=1)
    dim = into.shape[1]

    checks: list[tuple[tuple[str, ...], np.ndarray]] = []

    def check(names: tuple[str, ...], delta: np.ndarray, *refs: np.ndarray) -> None:
        rows = len(delta)
        residuals = _scaled_rows(delta[:, :upto], *(r[:, :upto] for r in refs))
        checks.append((names, np.where(finite[:rows], residuals, np.inf)))

    down_up = out * out
    up_down = into * into
    commutator = down_up - q * up_down - 1
    # the conjugate relation's delta is this one's entrywise conjugate
    check(("deformed_commutator", "deformed_commutator_conjugate"), commutator, down_up, up_down)

    out_norm = out.conj() * out  # raising_dag raising = lowering lowering_dag
    in_norm = into * into.conj()  # raising raising_dag = lowering_dag lowering
    check(("product_updag_up",), out_norm - moduli[:, 1:], out_norm)
    check(("product_up_updag",), in_norm - moduli[:, :-1], in_norm)

    if pair is not None:
        names, coefficient, right = pair
        first_out, first_in = out_norm[:1], in_norm[:1]
        check(names, first_out - coefficient * first_in - right, first_out, first_in)

    # [N, a] on the entry that carries into[n]: N = n on its row, n-1 on its column
    number = np.arange(dim, dtype=float)
    n_into = number * into  # N a rounds like n * eps, so it scales the residual too
    raising_delta = n_into - into * (number - 1) - into
    # [N, lowering]'s delta is [N, raising]'s negated
    check(("number_commutator_up", "number_commutator_down"), raising_delta, into, n_into)
    subspace = range(upto)
    return [
        [
            RelationResidual(name, float(residuals[row]), subspace)
            for names, residuals in checks
            if row < len(residuals)
            for name in names
        ]
        for row in range(len(amps))
    ]
