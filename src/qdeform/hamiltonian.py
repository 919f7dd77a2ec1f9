"""Deformed oscillator Hamiltonians: diagonal construction, three-way
equivalence with the ladder products, spectra, and the block pattern at
non-primitive roots.

Energies are reported in units of hbar*omega = 1 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .ladder import amplitudes, matrix_mismatch, truncation_safe_dim
from .reducibility import IrrepDecomposition, decompose
from .roots import DeformParam, RootOfUnity, abs_q_values

ENERGY_UNIT = "hbar*omega (= 1)"

BLOCK_PATTERN_TOL = 1e-12


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum of the diagonal Hamiltonian plus its block structure.

    block_pattern_verified is vacuously True for real q (no blocks exist);
    for a root it records whether the diagonal is the first block's values
    repeated block_count times.
    """

    param: DeformParam
    dim: int
    energy_unit: str
    diagonal: tuple[float, ...]
    blocks: IrrepDecomposition | None
    block_pattern_verified: bool


def _default_dim(param: DeformParam, dim: int | None) -> int:
    if dim is None:
        if isinstance(param, RootOfUnity):
            return param.order
        raise ValueError("real q needs an explicit truncation dimension")
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return dim


def hamiltonian_diagonal(param: DeformParam, dim: int | None = None) -> np.ndarray:
    """Energies (|{n}_q| + |{n+1}_q|) / 2 for n = 0..dim-1, as float64.

    Every entry is strictly positive: consecutive deformed integers never
    vanish together (that would force q = 1).
    """
    dim = _default_dim(param, dim)
    moduli = np.array(abs_q_values(param, dim + 1))
    return 0.5 * (moduli[:-1] + moduli[1:])


def build_hamiltonian(param: DeformParam, dim: int | None = None) -> np.ndarray:
    """The Hamiltonian matrix itself -- diagonal in the number basis."""
    return np.diag(hamiltonian_diagonal(param, dim))


def hamiltonian_equivalence_check(param: DeformParam, dim: int | None = None) -> float:
    """Max pairwise discrepancy between the three constructions of H.

    H is built from lowering products (lowering lowering_dag +
    lowering_dag lowering)/2, from the analogous raising products, and
    directly from the Q-number moduli; all three must agree on the
    truncation-safe subspace (the full space at a root with {dim}_q = 0).
    The products are diagonal, read off the amplitudes into and out of each
    state.  An energy that overflows float64 makes the discrepancy inf.
    """
    dim = _default_dim(param, dim)
    amps = amplitudes(param, dim)
    into = np.pad(amps, (1, 0))
    out = np.pad(amps, (0, 1))
    from_lowering = 0.5 * (out * out.conj() + into.conj() * into)
    from_raising = 0.5 * (into * into.conj() + out.conj() * out)
    direct = hamiltonian_diagonal(param, dim)
    if not np.isfinite(direct).all():
        return np.inf
    upto = truncation_safe_dim(param, dim)
    candidates = [from_lowering[:upto], from_raising[:upto], direct[:upto]]
    return max(matrix_mismatch(a, b) for a, b in combinations(candidates, 2))


def spectrum_report(param: DeformParam, dim: int | None = None) -> SpectrumReport:
    """Diagonal of H plus, at a root of unity, the block decomposition and an
    exactness check that the spectrum is the first block repeated."""
    dim = _default_dim(param, dim)
    diagonal = hamiltonian_diagonal(param, dim)
    blocks: IrrepDecomposition | None = None
    verified = True
    if isinstance(param, RootOfUnity):
        blocks = decompose(param)
        l = blocks.block_dim
        verified = all(
            abs(diagonal[n] - diagonal[n % l]) <= BLOCK_PATTERN_TOL for n in range(dim)
        )
    return SpectrumReport(
        param=param,
        dim=dim,
        energy_unit=ENERGY_UNIT,
        diagonal=tuple(float(x) for x in diagonal),
        blocks=blocks,
        block_pattern_verified=verified,
    )


def sorted_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues via a general Hermitian solver.

    H is diagonal by construction, so this is a deliberately independent
    cross-check path: its output must match the sorted diagonal.
    """
    return np.linalg.eigvalsh(matrix)


def inverse_root_check(root: RootOfUnity) -> bool:
    """True iff the Hamiltonians at a root and at its inverse agree entrywise.

    The spectrum only sees |sin| values, which are invariant under
    index -> order - index, so agreement is exact.
    """
    mirrored = RootOfUnity(root.order, root.order - root.index)
    ours = hamiltonian_diagonal(root, root.order)
    theirs = hamiltonian_diagonal(mirrored, root.order)
    return bool(np.max(np.abs(ours - theirs)) <= 1e-12)


def eigensolver_agreement(param: DeformParam, dim: int | None = None) -> float:
    """Max gap between sorted eigvalsh output and the sorted diagonal."""
    dim = _default_dim(param, dim)
    diagonal = hamiltonian_diagonal(param, dim)
    solved = sorted_eigenvalues(np.diag(diagonal))
    return float(np.max(np.abs(solved - np.sort(diagonal)))) if dim else 0.0


def palindrome_check(root: RootOfUnity) -> bool:
    """d_n == d_{m-1-n} exactly: the complement identity made visible in H."""
    diagonal = hamiltonian_diagonal(root, root.order)
    return bool(np.all(diagonal == diagonal[::-1]))
