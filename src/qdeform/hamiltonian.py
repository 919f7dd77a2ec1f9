"""Deformed oscillator Hamiltonians: the diagonal in the number basis, its
equivalence with the ladder products, spectra, and the block pattern at
non-primitive roots.

H is diagonal by construction, so every check here is an O(dim) identity
over the energy vector; no dense matrix is built.  spectrum_report reads the
diagonal off one QNumbers value and measures the ladder-product equivalence
and the block pattern against it.  Energies are in units of hbar*omega = 1.
"""

from __future__ import annotations

import math
from itertools import pairwise, repeat, starmap
from operator import add, mul, sub

from . import _Record
from .ladder import QNumbers, matrix_mismatch, q_numbers, truncation_safe_dim
from .reducibility import IrrepDecomposition, decompose
from .roots import DeformParam, RootOfUnity

ENERGY_UNIT = "hbar*omega (= 1)"

BLOCK_PATTERN_TOL = 1e-12


class SpectrumReport(_Record):
    """Spectrum of the diagonal Hamiltonian plus its block structure.

    equivalence_gap is the scaled gap between H built from the ladder
    products and the diagonal, over the truncation-safe subspace.
    block_pattern_gap is the largest |d_n - d_{n mod l}| over the diagonal,
    with l the block size, and 0.0 for real q (no blocks exist);
    block_pattern_verified records whether that gap is within
    BLOCK_PATTERN_TOL, i.e. whether the diagonal is the first block's values
    repeated block_count times.
    """

    param: DeformParam
    dim: int
    energy_unit: str
    diagonal: tuple[float, ...]
    equivalence_gap: float
    blocks: IrrepDecomposition | None
    block_pattern_gap: float
    block_pattern_verified: bool


def hamiltonian_diagonal(numbers: QNumbers) -> tuple[float, ...]:
    """Energies (|{n}_q| + |{n+1}_q|) / 2 for n = 0..dim-1, as floats.

    Every entry is strictly positive: consecutive deformed integers never
    vanish together (that would force q = 1).  Each modulus is halved before
    the sum, exactly, so two finite neighbours near the float64 limit cannot
    overflow.
    """
    halves = map(mul, repeat(0.5), numbers.moduli[: numbers.dim + 1])
    return tuple(starmap(add, pairwise(halves)))


def spectrum_report(numbers: QNumbers) -> SpectrumReport:
    """Diagonal of H, its equivalence with the ladder products and, at a root
    of unity, the block decomposition and an exactness check that the
    spectrum is the first block repeated.

    The products are (lowering lowering_dag + lowering_dag lowering)/2, read
    off the amplitudes into and out of each state; they must match the
    diagonal on the truncation-safe subspace (the full space at a root with
    {dim}_q = 0).  Each is |a|**2, the real part of conj(a) a (its imaginary
    part is 0), and the raising products are the lowering products
    conjugated, so they are evaluated once.  An energy that overflows float64
    makes the gap inf.
    """
    param, dim = numbers.param, numbers.dim
    diagonal = hamiltonian_diagonal(numbers)
    halves = [0.5 * (a.real * a.real + a.imag * a.imag) for a in numbers.amplitudes[: dim - 1]]
    from_lowering = list(map(add, halves + [0.0], [0.0] + halves))
    upto = truncation_safe_dim(param, dim)
    equivalence_gap = math.inf
    if all(map(math.isfinite, diagonal)):
        equivalence_gap = matrix_mismatch(from_lowering[:upto], diagonal[:upto])
    blocks: IrrepDecomposition | None = None
    gap = 0.0
    if isinstance(param, RootOfUnity):
        blocks = decompose(param)
        first = diagonal[: blocks.block_dim]
        repeated = (first * -(-dim // len(first)))[:dim]  # d_{n mod l}
        gap = max(map(abs, map(sub, diagonal, repeated)))
    return SpectrumReport(
        param=param,
        dim=dim,
        energy_unit=ENERGY_UNIT,
        diagonal=diagonal,
        equivalence_gap=equivalence_gap,
        blocks=blocks,
        block_pattern_gap=gap,
        block_pattern_verified=gap <= BLOCK_PATTERN_TOL,
    )


def inverse_root_check(root: RootOfUnity) -> float:
    """The largest |d_n - d'_n| between the Hamiltonians at a root and at its
    inverse.

    The spectrum only sees |sin| values, which are invariant under
    index -> order - index, so the gap is exactly 0.0.
    """
    ours = hamiltonian_diagonal(q_numbers(root))
    theirs = hamiltonian_diagonal(q_numbers(root.inverse()))
    return max(map(abs, map(sub, ours, theirs)))


def palindrome_check(root: RootOfUnity) -> float:
    """The largest |d_n - d_{m-1-n}|, exactly 0.0: the complement identity
    made visible in H."""
    diagonal = hamiltonian_diagonal(q_numbers(root))
    return max(map(abs, map(sub, diagonal, reversed(diagonal))))
