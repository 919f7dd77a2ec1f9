"""Peak memory of the algebra checks: O(dim) vectors, no dim x dim matrices.

A single complex 1000 x 1000 matrix takes 16 MB, so a peak under 2 MB at
dimension (or order) 1000 rules out any dense operator in the check.
"""

import tracemalloc

import pytest

from qdeform import (
    RealQ,
    RootOfUnity,
    decompose,
    hamiltonian_equivalence_check,
    realization_mismatch,
    unitarity_check,
    verify_invariant_subspaces,
    verify_relations,
)

LIMIT_BYTES = 2 * 1024 * 1024
ROOT = RootOfUnity(1000, 1)

CHECKS = {
    "verify_relations": lambda: verify_relations(RealQ(0.5), 1000),
    "verify_relations_root": lambda: verify_relations(ROOT, 1000),
    "hamiltonian_equivalence_check": lambda: hamiltonian_equivalence_check(RealQ(0.5), 1000),
    "realization_mismatch": lambda: realization_mismatch(RealQ(0.5), 1000),
    "unitarity_check": lambda: unitarity_check(ROOT, 1000),
    "verify_invariant_subspaces": lambda: verify_invariant_subspaces(
        RootOfUnity(1000, 8), decompose(RootOfUnity(1000, 8))
    ),
}


@pytest.mark.parametrize("name", CHECKS)
def test_check_peaks_below_two_megabytes(name):
    CHECKS[name]()  # first-call imports and caches are not the check's cost
    tracemalloc.start()
    try:
        CHECKS[name]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < LIMIT_BYTES, f"{name} peaked at {peak / 1e6:.1f} MB"
