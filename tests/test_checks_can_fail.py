"""Every check that `ham`, `polychronakos` and `verify` report can fail,
except the two number commutators.

Each check is paired with a plausible implementation fault, most of them
one entry of one sequence of the q-numbers the CLI builds.  Under that
fault the check must measure a residual past its tolerance and `cli.main`
must exit with the command's failure code (3, implementation fault, for
`ham`; 1, failed verification, for `polychronakos` and `verify`); a check no
fault can move would only measure rounding.  `number_commutator_up/down`
are such checks: N is diagonal with unit steps, so they hold for every
amplitude vector, and the `verify` tests pin them as the only checks no
fault moves.
"""

import cmath
import json

import pytest

import qdeform.cli as cli
import qdeform.hamiltonian as hamiltonian
import qdeform.ladder as ladder
import qdeform.realization as realization
import qdeform.reducibility as reducibility
import qdeform.roots as roots
from qdeform.reducibility import IrrepDecomposition

# a non-primitive root at its own order, where ham runs every check it has
ARGV = ["ham", "--root", "6:2"]


def perturbed(field, index, factor=1 + 1e-3):
    """Entry `index` of one sequence of the q-numbers the CLI builds, times
    `factor`; the other sequences stay as built."""

    def install(monkeypatch):
        exact = ladder.q_numbers

        def faulty(param, dim=None):
            numbers = exact(param, dim)
            entries = list(getattr(numbers, field))
            entries[index] *= factor
            return ladder.QNumbers(**{**vars(numbers), field: tuple(entries)})

        monkeypatch.setattr(ladder, "q_numbers", faulty)

    return install


perturbed_amplitudes = perturbed("amplitudes", 1)


def shifted_diagonal_entry(monkeypatch):
    exact = hamiltonian.hamiltonian_diagonal

    def shifted(numbers):
        diagonal = list(exact(numbers))
        diagonal[4] += 1e-3
        return tuple(diagonal)

    monkeypatch.setattr(hamiltonian, "hamiltonian_diagonal", shifted)


def moved_block_top(monkeypatch):
    exact = reducibility.decompose

    def moved(root):
        # 6:2 has blocks 0..2 and 3..5; the first top moves from 2 to 3
        return IrrepDecomposition(**{**vars(exact(root)), "blocks": (range(0, 4), range(4, 6))})

    monkeypatch.setattr(reducibility, "decompose", moved)


FAULTS = {
    "three_constructions_agree": perturbed_amplitudes,
    "block_pattern_repeats": shifted_diagonal_entry,
    "blocks_are_invariant": moved_block_top,
}


def one_block(monkeypatch):
    exact = reducibility.decompose

    def single(root):
        # 6:2 has blocks 0..2 and 3..5; one block misses the top at 2
        return IrrepDecomposition(**{**vars(exact(root)), "blocks": (range(0, 6),)})

    monkeypatch.setattr(reducibility, "decompose", single)


# blocks_are_invariant compares the block tops with each transition's amplitude
# and integer predicate: a zero amplitude inside a block and a top missing from
# the blocks must each fail it with a positive count, not 0.0
BLOCK_FAULTS = {
    "interior_zero_amplitude": perturbed("amplitudes", 1, 0j),
    "missed_block_top": one_block,
}


# real q, where polychronakos also reports unitarity
POLYCHRONAKOS_ARGV = ["polychronakos", "--real", "0.5", "--dim", "20"]


def scaling_fault(factor):
    def install(monkeypatch):
        exact = realization._scaling

        def faulty(value, n):
            return exact(value, n) * (factor if n == 5 else 1)

        monkeypatch.setattr(realization, "_scaling", faulty)

    return install


POLYCHRONAKOS_FAULTS = {
    "realization_matches_direct": perturbed_amplitudes,
    "scaling_recurrence": perturbed("values", 5),
    "scaling_product_is_qnumber": scaling_fault(1 + 1e-3),
    "unitary_for_real_q": scaling_fault(cmath.exp(1e-3j)),
}


# one real q, one fundamental root (with the Biedenharn-MacFarlane pair), one bracket sweep
VERIFY_ARGV = {
    "algebra_real": ["verify", "algebra", "--real", "0.5", "--dim", "20"],
    "algebra_root": ["verify", "algebra", "--root", "6:1"],
    "brackets": ["verify", "brackets", "--max-m", "8"],
}
# they hold for every amplitude vector, so they measure only rounding
NUMBER_COMMUTATORS = {"algebra_number_commutator_up", "algebra_number_commutator_down"}
UNMOVED = {"algebra_real": NUMBER_COMMUTATORS, "algebra_root": NUMBER_COMMUTATORS, "brackets": set()}


def other_half_root_branch(monkeypatch):
    exact = roots.RootOfUnity.half_value

    monkeypatch.setattr(roots.RootOfUnity, "half_value", property(lambda root: -exact.fget(root)))


def perturbed_bracket(monkeypatch):
    # the bracket sweep reads one row per root from sine_ratio_rows, not q_bracket
    exact = roots.sine_ratio_rows

    def perturbed(order, indices, count):
        rows = exact(order, indices, count)
        if order == 5:
            # [1] at the fundamental order-5 root
            rows[list(indices).index(1)][1] += 1e-3
        return rows

    monkeypatch.setattr(roots, "sine_ratio_rows", perturbed)


VERIFY_FAULTS = {
    "algebra_deformed_commutator": perturbed_amplitudes,
    "algebra_deformed_commutator_conjugate": perturbed_amplitudes,
    "algebra_product_updag_up": perturbed("moduli", 3),
    "algebra_product_up_updag": perturbed("moduli", 3),
    "algebra_real_q_adjoint_commutator_down": perturbed_amplitudes,
    "algebra_real_q_adjoint_commutator_up": perturbed_amplitudes,
    "algebra_biedenharn_macfarlane_down": other_half_root_branch,
    "algebra_biedenharn_macfarlane_up": other_half_root_branch,
    "brackets_complement": perturbed_bracket,
    "brackets_complement_fundamental": perturbed_bracket,
    "brackets_inverse_parity": perturbed_bracket,
    "brackets_inverse_complement": perturbed_bracket,
}


def run_cli(capsys, argv):
    code = cli.main(argv)
    checks = json.loads(capsys.readouterr().out)["checks"]
    # drop the parameter label, as in realization_matches_direct[q=0.5]
    return code, {check["name"].split("[")[0]: check for check in checks}


def perturbed_sweep_row(order, index):
    """{2}_q at the root order:index, times (1 + 1e-3), in the one grid the
    sweep reads at that order (its primitive roots j <= order/2, not
    amplitudes)."""

    def install(monkeypatch):
        exact = ladder.q_value_rows

        def perturbed(m, indices, count):
            ratios, values = exact(m, indices, count)
            if m == order:
                values[list(indices).index(index)][2] *= 1 + 1e-3
            return ratios, values

        monkeypatch.setattr(ladder, "q_value_rows", perturbed)

    return install


def test_every_ham_check_has_a_fault(capsys):
    code, checks = run_cli(capsys, ARGV)
    assert code == 0
    assert set(checks) == set(FAULTS)


@pytest.mark.parametrize("name", FAULTS)
def test_fault_pushes_its_check_past_tolerance(capsys, monkeypatch, name):
    FAULTS[name](monkeypatch)
    code, checks = run_cli(capsys, ARGV)
    assert code == 3
    assert not checks[name]["passed"]
    assert checks[name]["max_residual"] > cli.DEFAULT_TOLERANCE


@pytest.mark.parametrize("fault", BLOCK_FAULTS)
def test_block_fault_fails_with_a_positive_count(capsys, monkeypatch, fault):
    BLOCK_FAULTS[fault](monkeypatch)
    code, checks = run_cli(capsys, ARGV)
    assert code == 3
    assert not checks["blocks_are_invariant"]["passed"]
    assert checks["blocks_are_invariant"]["max_residual"] > cli.DEFAULT_TOLERANCE


def test_every_polychronakos_check_has_a_fault(capsys):
    code, checks = run_cli(capsys, POLYCHRONAKOS_ARGV)
    assert code == 0
    assert set(checks) == set(POLYCHRONAKOS_FAULTS)


@pytest.mark.parametrize("name", POLYCHRONAKOS_FAULTS)
def test_polychronakos_fault_pushes_its_check_past_tolerance(capsys, monkeypatch, name):
    POLYCHRONAKOS_FAULTS[name](monkeypatch)
    code, checks = run_cli(capsys, POLYCHRONAKOS_ARGV)
    assert code == 1
    assert not checks[name]["passed"]
    assert checks[name]["max_residual"] > cli.DEFAULT_TOLERANCE


@pytest.mark.parametrize("label", VERIFY_ARGV)
def test_verify_fault_pushes_its_check_past_tolerance(capsys, monkeypatch, label):
    argv = VERIFY_ARGV[label]
    code, checks = run_cli(capsys, argv)
    assert code == 0
    assert set(checks) - set(VERIFY_FAULTS) == UNMOVED[label]
    moved = set()
    for name in checks.keys() & VERIFY_FAULTS.keys():
        with monkeypatch.context() as patch:
            VERIFY_FAULTS[name](patch)
            code, faulty = run_cli(capsys, argv)
        assert code == 1, name
        assert not faulty[name]["passed"], name
        assert faulty[name]["max_residual"] > cli.DEFAULT_TOLERANCE, name
        moved |= {other for other, check in faulty.items() if not check["passed"]}
    # the checks that no fault moves, the number commutators at most
    assert set(checks) - moved == UNMOVED[label]


def failed_sweep_roots(capsys, monkeypatch, order, index, max_m=8):
    """The roots that verify algebra --max-m max_m fails with the fault at
    order:index, each past tolerance."""
    argv = ["verify", "algebra", "--max-m", str(max_m)]
    code, checks = run_cli(capsys, argv)
    assert code == 0
    assert len(checks) == sum(m - 1 for m in range(2, max_m + 1))
    perturbed_sweep_row(order, index)(monkeypatch)
    code, faulty = run_cli(capsys, argv)
    assert code == 1
    failed = {name for name, check in faulty.items() if not check["passed"]}
    assert all(faulty[name]["max_residual"] > cli.DEFAULT_TOLERANCE for name in failed)
    return failed


def test_sweep_fault_fails_exactly_its_root(capsys, monkeypatch):
    # the conjugate root 5:3 reports the residuals of 5:2
    assert failed_sweep_roots(capsys, monkeypatch, 5, 2) == {"algebra_root_5:2", "algebra_root_5:3"}


def test_sweep_fault_at_a_non_primitive_root_fails_it_and_its_conjugate(capsys, monkeypatch):
    # 6:2 is the order-3 root 3:1 twice over and reads that root's residuals,
    # whose first period holds {2}_q; 3:2 and 6:4 are the conjugates
    failed = failed_sweep_roots(capsys, monkeypatch, 3, 1)
    assert failed == {"algebra_root_3:1", "algebra_root_3:2", "algebra_root_6:2", "algebra_root_6:4"}


def test_sweep_fault_reaches_every_multiple_of_a_non_fundamental_root(capsys, monkeypatch):
    # 10:4 and 15:6 are 5:2 twice and three times over, 10:6 and 15:9 their
    # conjugates; no fault at order 8 or below has a non-fundamental root with
    # a multiple in the sweep
    failed = failed_sweep_roots(capsys, monkeypatch, 5, 2, max_m=15)
    expected = {"5:2", "5:3", "10:4", "10:6", "15:6", "15:9"}
    assert failed == {f"algebra_root_{root}" for root in expected}
