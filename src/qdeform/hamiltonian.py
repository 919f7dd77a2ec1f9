"""Deformed oscillator Hamiltonians: the diagonal in the number basis, its
equivalence with the ladder products, spectra, and the block pattern at
non-primitive roots.

H is diagonal by construction, so every check here is an O(dim) identity
over the energy vector; no dense matrix is built.  verify_hamiltonian
returns {check: residual} for the ladder-product equivalence and, at a root,
the block pattern, inf where an energy or term is not finite; each symmetry
of the diagonal is its _gap with its image.  Energies are in hbar*omega = 1.
"""

from __future__ import annotations

import math
from itertools import pairwise, repeat, starmap
from operator import add, mul

from . import _gap
from .ladder import QNumbers, matrix_mismatch, q_numbers, truncation_safe_dim
from .roots import RootOfUnity

ENERGY_UNIT = "hbar*omega (= 1)"

# the bound on block_pattern_repeats: the diagonal is the first block repeated
BLOCK_PATTERN_TOL = 1e-12


def hamiltonian_diagonal(numbers: QNumbers) -> tuple[float, ...]:
    """Energies (|{n}_q| + |{n+1}_q|) / 2 for n = 0..dim-1, as floats.

    Every entry is strictly positive: consecutive deformed integers never
    vanish together (that would force q = 1).  Each modulus is halved before
    the sum, exactly, so two finite neighbours near the float64 limit cannot
    overflow.
    """
    halves = map(mul, repeat(0.5), numbers.moduli[: numbers.dim + 1])
    return tuple(starmap(add, pairwise(halves)))


def verify_hamiltonian(numbers: QNumbers, diagonal: tuple[float, ...]) -> dict[str, float]:
    """{check: residual} for the diagonal of H at numbers: the equivalence
    with the ladder products and, at a root of unity, the block pattern.

    three_constructions_agree is the scaled gap between the diagonal and the
    products (lowering lowering_dag + lowering_dag lowering)/2, read off the
    amplitudes into and out of each state, over the truncation-safe subspace
    (the full space at a root with {dim}_q = 0).  Each product is |a|**2, the
    real part of conj(a) a (its imaginary part is 0), and the raising
    products are the lowering products conjugated, so they are evaluated
    once.  Any energy that is not finite makes the gap inf.

    block_pattern_repeats, at a root only, is the _gap between d_n and
    d_{n mod l}, with l = order / gcd(order, index) the block dimension: 0.0
    when the diagonal is the first block's values repeated.
    """
    param, dim = numbers.param, numbers.dim
    halves = [0.5 * (a.real * a.real + a.imag * a.imag) for a in numbers.amplitudes[: dim - 1]]
    from_lowering = list(map(add, halves + [0.0], [0.0] + halves))
    upto = truncation_safe_dim(param, dim)
    finite = all(map(math.isfinite, diagonal))
    gap = matrix_mismatch(from_lowering[:upto], diagonal[:upto]) if finite else math.inf
    residuals = {"three_constructions_agree": gap}
    if isinstance(param, RootOfUnity):
        first = diagonal[: param.order // param.block_count]
        repeated = (first * -(-dim // len(first)))[:dim]  # d_{n mod l}
        residuals["block_pattern_repeats"] = _gap(diagonal, repeated)
    return residuals


def inverse_root_check(root: RootOfUnity) -> float:
    """The _gap between the Hamiltonian diagonals at a root and at its
    inverse, exactly 0.0: the spectrum sees only |sin| values, which are
    invariant under index -> order - index."""
    ours = hamiltonian_diagonal(q_numbers(root))
    theirs = hamiltonian_diagonal(q_numbers(root.inverse()))
    return _gap(ours, theirs)


def palindrome_check(root: RootOfUnity) -> float:
    """The _gap between d_n and d_{m-1-n}, exactly 0.0: the complement
    identity made visible in H."""
    diagonal = hamiltonian_diagonal(q_numbers(root))
    return _gap(diagonal, diagonal[::-1])
