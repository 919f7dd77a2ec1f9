#!/usr/bin/env python3
"""Deformed oscillator Hamiltonians and their block spectra.

H = (|{N}_q| + |{N+1}_q|) / 2 in units of hbar*omega.  At a non-primitive
root the diagonal is the first block's spectrum repeated -- the deformed
oscillator is a composite of smaller identical oscillators.
"""

from qdeform import (
    RealQ,
    RootOfUnity,
    decompose,
    hamiltonian_diagonal,
    inverse_root_check,
    q_numbers,
    verify_hamiltonian,
)

def energies(diagonal):
    return "[" + " ".join(f"{e:.6f}" for e in diagonal) + "]"


def show(root):
    numbers = q_numbers(root)
    diagonal = hamiltonian_diagonal(numbers)
    blocks = decompose(root)
    gap = verify_hamiltonian(numbers, diagonal)["block_pattern_repeats"]
    print(f"Root ({root.order}, {root.index})  "
          f"{'primitive' if root.is_primitive else 'non-primitive'},"
          f"  {blocks.block_count} block(s) of dimension {blocks.block_dim}")
    print(f"  diagonal  {energies(diagonal)}")
    print(f"  pattern repeats exactly: {gap == 0.0}")
    print()


print("The order-2 and order-3 oscillators (entries exactly rational):")
show(RootOfUnity(2, 1))
show(RootOfUnity(3, 1))

print("Order 6, every root.  j = 2, 4 decompose into two order-3 spectra;")
print("j = 3 into three order-2 spectra; j = 1, 5 stay irreducible:")
for j in range(1, 6):
    show(RootOfUnity(6, j))

print("A root and its inverse give identical Hamiltonians (largest entry gap):")
for m, j in [(6, 2), (6, 3), (5, 1), (12, 5)]:
    print(f"  ({m}, {j}) vs ({m}, {m - j}): {inverse_root_check(RootOfUnity(m, j))}")
print()

print("H from the ladder products (the raising form is its conjugate) agrees")
print("with H from the direct moduli; discrepancy at the fundamental order-6 root:")
numbers = q_numbers(RootOfUnity(6, 1))
print(f"  {verify_hamiltonian(numbers, hamiltonian_diagonal(numbers))['three_constructions_agree']:.2e}")
print()

print("Undeformed limit, dim 6: the familiar n + 1/2 spectrum:")
print(f"  {energies(hamiltonian_diagonal(q_numbers(RealQ(1.0), 6)))}")
