#!/usr/bin/env python3
"""Roots of unity: primitivity, exact vanishing, and the symmetric bracket.

At q = exp(2*pi*i*j/m) the deformed integer {n}_q vanishes precisely when m
divides j*n -- an integer statement, checked here without any floats.  The
bracket [x] at the fixed half-root branch exp(i*pi*j/m) carries the same
magnitudes with signs, and satisfies four complement/inversion identities.
RootOfUnity.half_value is that branch; q_bracket takes the root itself.
"""

from qdeform import (
    RootOfUnity,
    eval_at_root,
    q_bracket,
    q_number,
    q_number_is_zero,
    verify_bracket_relations,
)

print("All roots of order 6 (primitive marked *):")
for j in range(1, 6):
    root = RootOfUnity(6, j)
    l, s = root.canonical_reduce()
    mark = "*" if root.is_primitive else " "
    print(f"  q_{j} {mark}  reduces to exp(2 pi i {s}/{l}),  value {root.value:.4f}")
print()

print("Exact vanishing of {n}_q at the order-6 roots (X = vanishes):")
header = "   n: " + "".join(f"{n:>3}" for n in range(13))
print(header)
for j in range(1, 6):
    root = RootOfUnity(6, j)
    row = "".join("  X" if q_number_is_zero(n, root) else "  ." for n in range(13))
    print(f"  j={j}:{row}")
print()

print("The integer predicate agrees with evaluating the polynomial (float):")
root = RootOfUnity(6, 2)
for n in range(7):
    value = eval_at_root(q_number(n), root)
    print(f"  {{{n}}} at q_2: predicate {q_number_is_zero(n, root)!s:>5},  |value| = {abs(value):.2e}")
print()

print("Brackets at the fundamental half root of order 6 (all nonnegative):")
fundamental = RootOfUnity(6, 1)
print(f"  half root h = {fundamental.half_value:.4f}")
for x in range(7):
    print(f"  [{x}] = {q_bracket(x, fundamental):+.10f}")
print()

print("Complement/inversion identities, swept over every m <= 30, j, k:")
for name, residual in verify_bracket_relations(30).items():
    print(f"  {name:<24} max residual {residual:.1e}")
print("(exact angle reduction makes these identically zero)")
