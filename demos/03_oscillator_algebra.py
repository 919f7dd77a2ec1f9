#!/usr/bin/env python3
"""The deformed oscillator algebra on a finite number basis.

The ladder is the amplitude vector a[n] = sqrt({n+1}_q), one field of the
q-numbers built once per parameter and dimension: the dense raising matrix
carries it on the subdiagonal (raising |n> = a[n] |n+1>), and lowering on
the superdiagonal.  The defining relation
lowering@raising - q raising@lowering = 1 closes on the full m-dimensional
space at a root of unity (because {m}_q = 0) and on all but the top state for
real q, where truncation of the infinite space costs one transition.
"""

from qdeform import RealQ, RootOfUnity, q_numbers, truncation_safe_dim, verify_relations


def show_amplitudes(param, dim):
    # the last amplitude is the transition out of the space, which a matrix drops
    for n, amp in enumerate(q_numbers(param, dim).amplitudes):
        print(f"  |{n}> -> |{n + 1}>:  |a| = {abs(amp):.4f}")
    print()


print("Undeformed limit q = 1, dimension 4 (a[n] = sqrt(n + 1)):")
show_amplitudes(RealQ(1.0), 4)

print("Fundamental root of order 6 -- note the zero amplitude out of state 5:")
show_amplitudes(RootOfUnity(6, 1), 6)

print("Non-primitive root (6, 2) -- amplitudes also vanish out of state 2:")
show_amplitudes(RootOfUnity(6, 2), 6)


def show(param, dim):
    print(f"Relation residuals for {param}, dim {dim},")
    print(f"checked on states 0..{truncation_safe_dim(param, dim) - 1}:")
    for relation, residual in verify_relations(q_numbers(param, dim)).items():
        print(f"  {relation:<34} {residual:.2e}")
    print()


show(RootOfUnity(6, 1), 6)   # includes the Biedenharn-MacFarlane pair
show(RootOfUnity(6, 2), 6)
show(RealQ(0.5), 12)         # includes the real-q adjoint commutators
show(RealQ(2.5), 30)         # residuals scaled: entries reach ~1e11 here
