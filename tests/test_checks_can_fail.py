"""Every check that `ham` reports can fail.

Each check is paired with a plausible implementation fault.  Under that
fault the check must measure a residual past its tolerance and `cli.main`
must exit 3 (implementation fault); a check no fault can move would only
measure rounding.
"""

import dataclasses
import json

import pytest

import qdeform.cli as cli
import qdeform.hamiltonian as hamiltonian

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


def run_ham(capsys):
    code = cli.main(ARGV)
    checks = json.loads(capsys.readouterr().out)["checks"]
    return code, {check["name"]: check for check in checks}


def test_every_ham_check_has_a_fault(capsys):
    code, checks = run_ham(capsys)
    assert code == 0
    assert set(checks) == set(FAULTS)


@pytest.mark.parametrize("name", FAULTS)
def test_fault_pushes_its_check_past_tolerance(capsys, monkeypatch, name):
    FAULTS[name](monkeypatch)
    code, checks = run_ham(capsys)
    assert code == 3
    assert not checks[name]["passed"]
    assert checks[name]["max_residual"] > cli.DEFAULT_TOLERANCE
