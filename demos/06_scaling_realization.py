#!/usr/bin/env python3
"""The scaling-function (Polychronakos-style) realization.

Multiplying the undeformed ladder pair by diagonal functions of the number
operator reproduces the deformed operators: a_minus = U_minus(N) a with
U_minus(n) = sqrt({n+1}_q / (n+1)).  The product U_plus(n) U_minus(n-1) n
equals {n}_q, which forces the defining recurrence F(n+1) - q F(n) = 1.
For real q the realization is unitary; at most roots of unity it is not.
"""

import math

from qdeform import RealQ, RootOfUnity, q_numbers, u_minus, u_plus, verify_realization
from qdeform.realization import UNITARITY_TOL

print("Realized vs direct lowering operator at q = 0.5, dim 5, entry <n|a|n+1>:")
# a_minus = U_minus(N) a, with a the undeformed lowering operator: <n|a|n+1> = sqrt(n+1)
numbers = q_numbers(RealQ(0.5), 5)
for n, direct in enumerate(numbers.amplitudes[:-1]):
    realized = u_minus(RealQ(0.5), n) * math.sqrt(n + 1)
    print(f"  n = {n}:  realized {realized.real:.6f},  direct {direct.real:.6f}")
print(f"  max gap (entrywise): {verify_realization(numbers)['realization_matches_direct']:.2e}")
print()

print("Scaling functions at q = 2 (note U(0) fixed to 1 at the 0/0 point):")
for n in range(6):
    print(f"  n = {n}:  U_plus = {u_plus(RealQ(2.0), n).real:.6f},"
          f"  U_minus = {u_minus(RealQ(2.0), n).real:.6f}")
print()

print("The product F(n) = U_plus(n) U_minus(n-1) n reproduces {n}_q;")
print("at q = 2 that is the geometric sum 2^n - 1:")
for n in range(1, 8):
    f = (u_plus(RealQ(2.0), n) * u_minus(RealQ(2.0), n - 1) * n).real
    print(f"  F(2, {n}) = {f:.6f}   vs 2^{n} - 1 = {2**n - 1}")
print()

print("Recurrence residuals, n <= 50:")
for param in (RealQ(0.3), RealQ(2.5), RootOfUnity(4, 1), RootOfUnity(5, 2)):
    residuals = verify_realization(q_numbers(param, 50))
    print(f"  {param}:  recurrence {residuals['scaling_recurrence']:.2e},"
          f"  matches Q-numbers {residuals['scaling_product_is_qnumber']:.2e}")
print()

print("Unitarity (a_plus equals the adjoint of a_minus):")
for param, dim in [(RealQ(0.3), 30), (RealQ(2.5), 30), (RootOfUnity(5, 2), 5), (RootOfUnity(6, 1), 6)]:
    gap = verify_realization(q_numbers(param, dim))["unitary_for_real_q"]
    print(f"  {param}: {gap <= UNITARITY_TOL}  (gap {gap:.2e})")
print("(real q is always unitary; complex Q-number phases break it at roots)")
