"""The q-number sequence on a truncated number basis, built once per
parameter and dimension as the QNumbers value every check of the package
reads, and the scaling rule every residual is divided by.  One builder,
_row_numbers, makes that value for q_numbers and the relation sweep alike.

Raising and lowering are bidiagonal, so the whole representation is the
amplitude vector a[n] = sqrt({n+1}_q), the transition n -> n+1.  Every product
a relation needs is diagonal and every commutator with N sits on one
off-diagonal, so each check is an O(dim) identity over that vector, scaled
once for all its names; the relation checks live in `relations`, loaded
only by the commands that run them.  A non-finite operand or term makes a
residual inf, the package's one rule (_worst).  The dense matrices carry a on
the subdiagonal (raising) and the superdiagonal (lowering); only the tests
build them, as an independent oracle.
"""

from __future__ import annotations

import cmath
import math

from . import _Record, _gap, _worst
from .roots import DeformParam, RealQ, RootOfUnity, q_number_is_zero, q_value_rows, q_values


class DimensionTooSmallError(ValueError):
    """Relation checks need at least a 2-dimensional space."""


def _scaled(worst: float, *scales: float) -> float:
    # worst over the largest scale once that exceeds 1; inf unless all are finite
    if not all(map(math.isfinite, (worst, *scales))):
        return math.inf
    return worst / max((1.0, *scales))


def scaled_residual(delta, *references) -> float:
    """The worst entry of delta, divided by the largest reference entry once
    that exceeds 1: the absolute residual where every operand is O(1) (roots
    of unity, q <= 1), else one relative to the operands, whose entries grow
    like q**n (1e19 at q = 2.5, n = 50) past what absolute doubles can carry.
    A non-finite entry in delta or in a reference gives inf, so an overflowed
    operand can never pass by dividing by an infinite scale."""
    return _scaled(*map(_worst, (delta, *references)))


def matrix_mismatch(a, b) -> float:
    """Scaled entrywise gap between two lists or tuples of one length, 0.0 when
    identical: a zero gap has finite operands, so it needs no scale."""
    gap = _gap(a, b)
    return gap and _scaled(gap, _worst(a), _worst(b))


def _principal_roots(values) -> list[complex]:
    """The principal square root of each value: cmath.sqrt, except that a
    purely imaginary iy gets sqrt(|y|/2) in both parts, as C's csqrt gives it
    (cmath.sqrt's imaginary part |y|/(2 sqrt(|y|/2)) can be an ulp off)."""
    roots = list(map(cmath.sqrt, values))
    for n, v in enumerate(values):
        if not v.real and v.imag:
            roots[n] = complex(roots[n].real, math.copysign(roots[n].real, v.imag))
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
        values = ratios = q_values(param, dim + 2)
        if not math.isfinite(values[-1]):  # the largest value
            raise OverflowError(f"{{{dim + 1}}}_q is not finite")
    else:
        (ratios,), (values,) = q_value_rows(param.order, [param.index], dim + 2)
    return _row_numbers(param, dim, ratios, values)


def _row_numbers(param: DeformParam, dim: int, ratios, values) -> QNumbers:
    """The QNumbers of param on dim states from its row of dim + 2 entries:
    the values {n}_q and the ratios whose moduli are |{n}_q| (the sine ratios
    of a q_value_rows grid at a root, the values themselves for real q)."""
    values = tuple(values)
    amplitudes = tuple(_principal_roots(values[1 : dim + 1]))
    return QNumbers(param, dim, values, tuple(map(abs, ratios)), amplitudes)


def truncation_safe_dim(param: DeformParam, dim: int) -> int:
    """Size of the leading subspace on which truncated products are artifact-free.

    The top state couples to the lost |dim> transition, so its row/column is
    excluded -- unless {dim}_q = 0 (a root of unity at a multiple of the block
    size), where the algebra closes and the full space is safe.
    """
    if isinstance(param, RootOfUnity) and q_number_is_zero(dim, param):
        return dim
    return dim - 1
