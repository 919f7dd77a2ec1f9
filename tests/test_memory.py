"""Peak memory of the algebra, Hamiltonian and realization checks: O(dim)
vectors, no dim x dim matrices.

A single complex 1000 x 1000 matrix takes 16 MB, so a peak under 2 MB at
dimension (or order) 1000 rules out any dense operator in the check.  The
root sweep to order 120, taken one root at a time, stays under the same bound
only if it keeps neither every order's rows nor every root's dict: it holds
one order's grid, one primitive root's QNumbers and dict, and the number
commutators of its multiples.  The relations and the realization are bounded
per entry as well: the relation checks, adjoint pairs included, read the
amplitudes in one pass of running maxima, and the realization's checks read
one realized vector, with no second list beside it.
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
from qdeform.commands import ham as ham_command
from qdeform.relations import verify_root_relations

LIMIT_BYTES = 2 * 1024 * 1024
ROOT = RootOfUnity(1000, 1)


def hamiltonian_residuals(numbers):
    return verify_hamiltonian(numbers, hamiltonian_diagonal(numbers))


def root_sweep(max_m):
    for _ in verify_root_relations(max_m):  # one root at a time, as the CLI takes them
        pass


def ham_checks(argv):
    # every check the command runs, with the q-numbers, diagonal and blocks it reports
    return ham_command.handle(cli.parse_args(argv.split()))


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


def traced_peak(check) -> int:
    check()  # first-call imports and caches are not the check's cost
    tracemalloc.start()
    try:
        check()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("name", CHECKS)
def test_check_peaks_below_two_megabytes(name):
    peak = traced_peak(CHECKS[name])
    assert peak < LIMIT_BYTES, f"{name} peaked at {peak / 1e6:.1f} MB"


# verify_realization's peak per entry at dim 2000, where it was 168.8 B (q = 0.5)
# and 183.4 B (the root 2000:1) on Python 3.11; a second per-entry list, as a
# conjugated copy of the realized vector was, lifts them past 190 and 200 B.
REALIZATION_BYTES_PER_ENTRY = {"q=0.5": (RealQ(0.5), 180), "root": (RootOfUnity(2000, 1), 192)}


@pytest.mark.parametrize("name", REALIZATION_BYTES_PER_ENTRY)
def test_realization_peak_per_entry(name):
    param, bound = REALIZATION_BYTES_PER_ENTRY[name]
    numbers = q_numbers(param, 2000)
    per_entry = traced_peak(lambda: verify_realization(numbers)) / numbers.dim
    assert per_entry < bound, f"verify_realization at {name} peaked at {per_entry:.1f} B per entry"


# verify_relations' peak per entry at dim 2000, 16.2 B (q = 0.5) and 16.3 B (the
# root 2000:1) on Python 3.11: the list of checked amplitudes and the moduli
# slice.  Reading an adjoint pair off a list of |a[n]|**2, its shifted copy and
# (at index 1) a list of phases, as a second pass did, takes 79.4 and 119.5 B.
RELATIONS_BYTES_PER_ENTRY = {"q=0.5": RealQ(0.5), "root": RootOfUnity(2000, 1)}


@pytest.mark.parametrize("name", RELATIONS_BYTES_PER_ENTRY)
def test_relations_peak_per_entry(name):
    numbers = q_numbers(RELATIONS_BYTES_PER_ENTRY[name], 2000)
    per_entry = traced_peak(lambda: verify_relations(numbers)) / numbers.dim
    assert per_entry < 24, f"verify_relations at {name} peaked at {per_entry:.1f} B per entry"
