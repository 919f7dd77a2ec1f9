"""Every check that `ham` and `polychronakos` report can fail.

Each check is paired with a plausible implementation fault.  Under that
fault the check must measure a residual past its tolerance and `cli.main`
must exit with the command's failure code (3, implementation fault, for
`ham`; 1, failed verification, for `polychronakos`); a check no fault can
move would only measure rounding.
"""

import cmath
import dataclasses
import json

import pytest

import qdeform.cli as cli
import qdeform.hamiltonian as hamiltonian
import qdeform.realization as realization

# a non-primitive root at its own order, where ham runs every check it has
ARGV = ["ham", "--root", "6:2"]


def perturbed_amplitudes(monkeypatch):
    exact = hamiltonian.amplitudes

    def perturbed(param, dim):
        amps = exact(param, dim).copy()
        amps[1] *= 1 + 1e-3
        return amps

    monkeypatch.setattr(hamiltonian, "amplitudes", perturbed)


def shifted_diagonal_entry(monkeypatch):
    exact = hamiltonian.hamiltonian_diagonal

    def shifted(param, dim=None):
        diagonal = exact(param, dim).copy()
        diagonal[4] += 1e-3
        return diagonal

    monkeypatch.setattr(hamiltonian, "hamiltonian_diagonal", shifted)


def moved_block_top(monkeypatch):
    exact = hamiltonian.decompose

    def moved(root):
        # 6:2 has blocks 0..2 and 3..5; the first top moves from 2 to 3
        return dataclasses.replace(exact(root), blocks=(range(0, 4), range(4, 6)))

    monkeypatch.setattr(hamiltonian, "decompose", moved)


FAULTS = {
    "three_constructions_agree": perturbed_amplitudes,
    "block_pattern_repeats": shifted_diagonal_entry,
    "blocks_are_invariant": moved_block_top,
}


# real q, where polychronakos also reports unitarity
POLYCHRONAKOS_ARGV = ["polychronakos", "--real", "0.5", "--dim", "20"]


def perturbed_realization_amplitudes(monkeypatch):
    exact = realization.amplitudes

    def perturbed(param, dim):
        amps = exact(param, dim).copy()
        amps[1] *= 1 + 1e-3
        return amps

    monkeypatch.setattr(realization, "amplitudes", perturbed)


def perturbed_qnumber(monkeypatch):
    exact = realization.q_values

    def perturbed(param, count):
        values = list(exact(param, count))
        values[5] *= 1 + 1e-3
        return values

    monkeypatch.setattr(realization, "q_values", perturbed)


def scaling_fault(factor):
    def install(monkeypatch):
        exact = realization._scaling

        def faulty(value, n):
            return exact(value, n) * (factor if n == 5 else 1)

        monkeypatch.setattr(realization, "_scaling", faulty)

    return install


POLYCHRONAKOS_FAULTS = {
    "realization_matches_direct": perturbed_realization_amplitudes,
    "scaling_recurrence": perturbed_qnumber,
    "scaling_product_is_qnumber": scaling_fault(1 + 1e-3),
    "unitary_for_real_q": scaling_fault(cmath.exp(1e-3j)),
}


def run_cli(capsys, argv):
    code = cli.main(argv)
    checks = json.loads(capsys.readouterr().out)["checks"]
    # drop the parameter label, as in realization_matches_direct[q=0.5]
    return code, {check["name"].split("[")[0]: check for check in checks}


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
