#!/usr/bin/env python3
"""How the deformation value decides reducibility.

Real q: one infinite irreducible module.  Primitive root of order m: one
m-dimensional irreducible block.  Non-primitive root: gcd(j, m) blocks of
dimension m/gcd(j, m), each invariant under the whole algebra.
"""

import math

from qdeform import (
    RealQ,
    RootOfUnity,
    classify,
    decompose,
    q_numbers,
    verify_invariant_subspaces,
)

print("Classification at a few deformation values:")
print(f"  q = 0.7        -> {classify(RealQ(0.7))}")
print(f"  root (5, 2)    -> {classify(RootOfUnity(5, 2))}")
print(f"  root (6, 2)    -> {classify(RootOfUnity(6, 2))}")
print()

print("Block table for all roots up to order 12:")
print("   m  j   gcd  block_dim  blocks")
for m in range(2, 13):
    for j in range(1, m):
        d = decompose(RootOfUnity(m, j))
        spans = " ".join(f"[{b[0]}..{b[-1]}]" for b in d.blocks)
        print(f"  {m:>2} {j:>2}  {d.block_count:>3}  {d.block_dim:>9}  {spans}")
print()

print("Checking invariance of every block boundary for (6, 2):")
root = RootOfUnity(6, 2)
residuals = verify_invariant_subspaces(q_numbers(root), decompose(root))
print(f"  misplaced transitions = {residuals['blocks_are_invariant']}")
print("  raising kills states 2 and 5; lowering kills states 0 and 3;")
print("  every interior amplitude is nonzero -- verified entrywise and by the")
print("  integer divisibility predicate.")
print()

print("The block dimension is always the smallest n with {n}_q = 0:")
for m, j in [(6, 2), (6, 3), (12, 8), (30, 12)]:
    d = decompose(RootOfUnity(m, j))
    print(f"  (m={m}, j={j}): gcd {math.gcd(j, m)}, block dim {d.block_dim}")
