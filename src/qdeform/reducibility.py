"""Classification of the number-basis representation by deformation value.

Real q keeps every transition amplitude nonzero, so the representation is
infinite and irreducible.  A primitive root of order m kills the amplitude
out of state m-1 and gives one irreducible m-dimensional block.  A
non-primitive root kills amplitudes every l = m/gcd(index, order) states,
breaking the m states into gcd(index, order) blocks of dimension l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ladder import amplitudes
from .roots import DeformParam, RealQ, RootOfUnity, q_number_is_zero


@dataclass(frozen=True)
class IrrepDecomposition:
    """Contiguous invariant blocks of the number basis at a root of unity.

    block_count = gcd(index, order), block_dim = order / block_count, and
    block k covers states [k*block_dim, (k+1)*block_dim).
    """

    ambient_dim: int
    block_count: int
    block_dim: int
    blocks: tuple[range, ...]


@dataclass(frozen=True)
class IrreducibleInfinite:
    """Real q: the infinite number basis carries a single irreducible module."""


@dataclass(frozen=True)
class IrreducibleFinite:
    """Primitive root: one irreducible block of dimension equal to the order."""

    dim: int


@dataclass(frozen=True)
class Reducible:
    """Non-primitive root: the finite space splits into smaller invariant blocks."""

    decomposition: IrrepDecomposition


RepClass = IrreducibleInfinite | IrreducibleFinite | Reducible


def classify(param: DeformParam) -> RepClass:
    """Representation class determined by the deformation parameter alone."""
    if isinstance(param, RealQ):
        return IrreducibleInfinite()
    if param.is_primitive:
        return IrreducibleFinite(param.order)
    return Reducible(decompose(param))


def decompose(root: RootOfUnity) -> IrrepDecomposition:
    """Block decomposition of the order-m space at any root of unity.

    Primitive roots give the trivial single block, so downstream consumers
    can treat every root uniformly.  Blocks are listed in ascending state
    order.
    """
    m, j = root.order, root.index
    block_count = math.gcd(j, m)
    block_dim = m // block_count
    blocks = tuple(range(k * block_dim, (k + 1) * block_dim) for k in range(block_count))
    return IrrepDecomposition(
        ambient_dim=m, block_count=block_count, block_dim=block_dim, blocks=blocks
    )


@dataclass(frozen=True)
class SubspaceReport:
    """Result of checking that each block is invariant under the algebra;
    max_boundary_amplitude is the largest modulus of an amplitude that must
    vanish at a block boundary (exactly 0.0 when all do)."""

    root: RootOfUnity
    ok: bool
    violations: tuple[str, ...]
    max_boundary_amplitude: float


def verify_invariant_subspaces(
    root: RootOfUnity, decomposition: IrrepDecomposition
) -> SubspaceReport:
    """Check block boundaries exactly: raising annihilates each block's top
    state, lowering annihilates each block's bottom state, and no interior
    transition amplitude vanishes.

    Boundary zeros are established twice over: by the integer divisibility
    predicate and by inspection of the amplitude vector (the closed form makes
    those amplitudes exactly 0.0, so the comparison is exact).  The vector
    runs one step past the order, so the transition out of the last state is
    inspected too.
    """
    amps = amplitudes(root, root.order + 1)  # amps[n]: transition n -> n+1
    violations: list[str] = []
    boundary: list[float] = []
    for block in decomposition.blocks:
        bottom, top = block[0], block[-1]
        # raising out of the top state, and lowering out of the bottom state
        for n in (top, bottom - 1) if bottom > 0 else (top,):
            if not q_number_is_zero(n + 1, root):
                violations.append(f"{{{n + 1}}}_q at the edge of block {block} is not zero")
            boundary.append(abs(amps[n]))
            if amps[n] != 0:
                violations.append(f"transition {n} -> {n + 1} has amplitude {boundary[-1]}")
        for n in range(bottom + 1, top + 1):
            if q_number_is_zero(n, root):
                violations.append(f"interior amplitude {{{n}}} vanishes inside block {block}")
            elif amps[n - 1] == 0:
                violations.append(f"raising entry ({n}, {n - 1}) unexpectedly zero")
    return SubspaceReport(
        root=root,
        ok=not violations,
        violations=tuple(violations),
        max_boundary_amplitude=max(boundary, default=0.0),
    )
