"""Classification of the number-basis representation by deformation value.

Real q keeps every transition amplitude nonzero, so the representation is
infinite and irreducible.  A primitive root of order m kills the amplitude
out of state m-1 and gives one irreducible m-dimensional block.  A
non-primitive root kills amplitudes every l = m/gcd(index, order) states,
breaking the m states into gcd(index, order) blocks of dimension l.

classify names the class, decompose lists the blocks at any root, and
verify_invariant_subspaces counts the misplaced block boundaries of QNumbers.
"""

from __future__ import annotations

import cmath
import math

from . import _Record
from .roots import DeformParam, RealQ, RootOfUnity, q_number_is_zero

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .ladder import QNumbers


class IrrepDecomposition(_Record):
    """Contiguous invariant blocks of the number basis at a root of unity.

    block_count = gcd(index, order), block_dim = order / block_count, and
    block k covers states [k*block_dim, (k+1)*block_dim).
    """

    block_count: int
    block_dim: int
    blocks: tuple[range, ...]


def classify(param: DeformParam) -> str:
    """The representation class the deformation parameter alone determines,
    as the classify command reports it: irreducible_infinite (real q),
    irreducible_finite (primitive root, one block of dimension the order) or
    reducible (non-primitive root, smaller invariant blocks)."""
    if isinstance(param, RealQ):
        return "irreducible_infinite"
    return "irreducible_finite" if param.is_primitive else "reducible"


def decompose(root: RootOfUnity) -> IrrepDecomposition:
    """Block decomposition of the order-m space at any root of unity.

    Primitive roots give the trivial single block, so downstream consumers
    can treat every root uniformly.  Blocks are listed in ascending state
    order.
    """
    block_count = root.block_count
    block_dim = root.order // block_count
    blocks = tuple(range(k * block_dim, (k + 1) * block_dim) for k in range(block_count))
    return IrrepDecomposition(block_count=block_count, block_dim=block_dim, blocks=blocks)


# the bound on blocks_are_invariant: a count of misplaced transitions
INVARIANT_BLOCKS_TOL = 0.0


def verify_invariant_subspaces(
    numbers: QNumbers, decomposition: IrrepDecomposition
) -> dict[str, float]:
    """{"blocks_are_invariant": the count of misplaced transitions}, or inf
    when an amplitude is not finite, the package's one rule for a residual.

    The transition n -> n+1 must vanish exactly when n is the top state of a
    block.  A vanishing transition is both raising out of a block's top state
    and lowering out of the next block's bottom state, so one pass over the
    transitions covers both.  Each is read three ways: as a block top of
    decomposition, by the integer divisibility predicate and by its amplitude
    (the closed form makes the vanishing amplitudes exactly 0.0, so the
    comparison is exact).  It is misplaced unless all three agree.  numbers
    must be built at the root's own order; its last amplitude is the
    transition out of the last state, so that one is inspected too.
    """
    root = numbers.param
    if numbers.dim != root.order:
        raise ValueError(f"the blocks need dim == order {root.order}, got {numbers.dim}")
    tops = {block[-1] for block in decomposition.blocks}
    misplaced = sum(  # amplitudes[n]: transition n -> n+1
        not ((n in tops) == q_number_is_zero(n + 1, root) == (amp == 0))
        for n, amp in enumerate(numbers.amplitudes)
    )
    finite = all(map(cmath.isfinite, numbers.amplitudes))  # nan == 0 is just False
    return {"blocks_are_invariant": float(misplaced) if finite else math.inf}
