"""The ladder operators of the deformed oscillator on a truncated number
basis, and residual checks for every relation the deformed algebra satisfies.

Raising and lowering are bidiagonal, so the whole representation is the
amplitude vector a[n] = sqrt({n+1}_q), the transition n -> n+1.  Every product
a relation needs is diagonal and every commutator with N sits on one
off-diagonal, so each check is an O(dim) identity over that vector.  The dense
matrices (build_ladder) remain as constructors for inspection and for tests
that rebuild the products as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .roots import (
    DeformParam,
    HalfRoot,
    RealQ,
    RootOfUnity,
    abs_q_values,
    cos_pi_times,
    q_number_is_zero,
    q_values,
    sin_pi_times,
)


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
    worst, *scales = (float(np.abs(a).max()) for a in (delta, *references) if a.size)
    if not all(math.isfinite(x) for x in (worst, *scales)):
        return math.inf
    return worst / max(1.0, *scales)


def matrix_mismatch(a: np.ndarray, b: np.ndarray) -> float:
    """Scaled entrywise gap between two arrays (0.0 means identical)."""
    return scaled_residual(a - b, a, b)


def amplitudes(param: DeformParam, dim: int) -> np.ndarray:
    """a[n] = sqrt({n+1}_q) for n = 0..dim-2, the principal complex root.

    a[n] is the raising amplitude from state n to n+1 and the lowering
    amplitude back.  For a root of unity the natural dimension is the order m
    (the amplitudes close up because {m}_q = 0); other dimensions use the same
    formula.
    """
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return np.sqrt(np.array(q_values(param, dim)[1:], dtype=complex))


def build_ladder(param: DeformParam, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense raising and lowering matrices carrying the amplitude vector.

    raising[n+1, n] = lowering[n, n+1] = sqrt({n+1}_q); the lowering operator
    annihilates state 0.
    """
    amps = amplitudes(param, dim)
    return np.diag(amps, -1), np.diag(amps, 1)


def truncation_safe_dim(param: DeformParam, dim: int) -> int:
    """Size of the leading subspace on which truncated products are artifact-free.

    The top state couples to the lost |dim> transition, so its row/column is
    excluded -- unless {dim}_q = 0 (a root of unity at a multiple of the block
    size), where the algebra closes and the full space is safe.
    """
    if isinstance(param, RootOfUnity) and q_number_is_zero(dim, param):
        return dim
    return dim - 1


def verify_relations(param: DeformParam, dim: int) -> list[RelationResidual]:
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
    a[n-1]**2.  In this basis each adjoint pair reduces to one diagonal
    identity, reported under both names.  The Biedenharn-MacFarlane pair
    holds on the first m states only; at dim > m the residual honestly reports
    the failure rather than silently restricting the subspace.  If some
    |{n}_q|, n <= dim, overflows float64, the truncated operators cannot be
    represented and every residual is inf.
    """
    if dim < 2:
        raise DimensionTooSmallError(f"need dim >= 2, got {dim}")
    amps = amplitudes(param, dim)
    into = np.pad(amps, (1, 0))  # into[n]: raising amplitude n-1 -> n
    out = np.pad(amps, (0, 1))  # out[n]: raising amplitude n -> n+1
    moduli = np.array(abs_q_values(param, dim + 1))
    finite = bool(np.isfinite(moduli).all())
    q = param.value
    upto = truncation_safe_dim(param, dim)

    results: list[RelationResidual] = []

    def check(name: str, delta: np.ndarray, *refs: np.ndarray) -> None:
        residual = scaled_residual(delta[:upto], *(r[:upto] for r in refs))
        results.append(RelationResidual(name, residual if finite else math.inf, range(upto)))

    down_up = out * out
    up_down = into * into
    check("deformed_commutator", down_up - q * up_down - 1, down_up, up_down)

    conj_left, conj_right = down_up.conj(), up_down.conj()
    conj_delta = conj_left - np.conj(q) * conj_right - 1
    check("deformed_commutator_conjugate", conj_delta, conj_left, conj_right)

    out_norm = out.conj() * out  # raising_dag raising = lowering lowering_dag
    in_norm = into * into.conj()  # raising raising_dag = lowering_dag lowering
    check("product_updag_up", out_norm - moduli[1:], out_norm)
    check("product_up_updag", in_norm - moduli[:-1], in_norm)

    if isinstance(param, RealQ):
        delta = out_norm - q * in_norm - 1
        check("real_q_adjoint_commutator_down", delta, out_norm, in_norm)
        check("real_q_adjoint_commutator_up", delta, out_norm, in_norm)
    elif param.index == 1:
        m = param.order
        h = HalfRoot(param).value
        h_inverse_powers = np.array(
            [complex(cos_pi_times(-n, m), sin_pi_times(-n, m)) for n in range(dim)]
        )
        delta = out_norm - h * in_norm - h_inverse_powers
        check("biedenharn_macfarlane_down", delta, out_norm, in_norm)
        check("biedenharn_macfarlane_up", delta, out_norm, in_norm)

    # [N, a] on the entry that carries into[n]: N = n on its row, n-1 on its column
    number = np.arange(dim, dtype=float)
    check("number_commutator_up", number * into - into * (number - 1) - into, into)
    check("number_commutator_down", (number - 1) * into - into * number + into, into)
    return results
