"""Peak memory of the algebra, Hamiltonian and realization checks: O(dim)
vectors, no dim x dim matrices.

A single complex 1000 x 1000 matrix takes 16 MB, so a peak under 2 MB at
dimension (or order) 1000 rules out any dense operator in the check.  The
root sweep to order 120, taken one root at a time, stays under the same bound
only if it keeps neither rows nor every root's dict: it holds one primitive
root's dict, its row and the number commutators of its multiples.
"""

import tracemalloc

import pytest

import qdeform.cli as cli
from qdeform import (
    RealQ,
    RootOfUnity,
    decompose,
    hamiltonian_diagonal,
    q_numbers,
    verify_hamiltonian,
    verify_invariant_subspaces,
    verify_realization,
    verify_relations,
)
from qdeform.ladder import verify_root_relations

LIMIT_BYTES = 2 * 1024 * 1024
ROOT = RootOfUnity(1000, 1)


def hamiltonian_residuals(numbers):
    return verify_hamiltonian(numbers, hamiltonian_diagonal(numbers))


def root_sweep(max_m):
    for _ in verify_root_relations(max_m):  # one root at a time, as the CLI takes them
        pass


def ham_checks(argv):
    # every check the command runs, with the q-numbers, diagonal and blocks it reports
    return cli._cmd_ham(cli.parse_args(argv.split()))


CHECKS = {
    "verify_relations": lambda: verify_relations(q_numbers(RealQ(0.5), 1000)),
    "verify_relations_root": lambda: verify_relations(q_numbers(ROOT, 1000)),
    # the diagonal and its checks; the id is the name of the one call they replace
    "spectrum_report": lambda: hamiltonian_residuals(q_numbers(RealQ(0.5), 1000)),
    "ham_checks": lambda: ham_checks("ham --root 1000:8"),
    "verify_realization": lambda: verify_realization(q_numbers(RealQ(0.5), 1000)),
    "verify_realization_root": lambda: verify_realization(q_numbers(ROOT, 1000)),
    "verify_invariant_subspaces": lambda: verify_invariant_subspaces(
        q_numbers(RootOfUnity(1000, 8)), decompose(RootOfUnity(1000, 8))
    ),
    "verify_root_relations": lambda: root_sweep(120),
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
