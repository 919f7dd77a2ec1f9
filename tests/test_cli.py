"""End-to-end CLI behavior: payloads, exit-code contract, JSON stability."""

import json

import pytest

import qdeform.cli as cli
from qdeform.report import render_json


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_gauss_happy_path(capsys):
    code, payload, _ = run_json(capsys, "gauss", "4", "2")
    assert code == 0
    assert payload["command"] == "gauss"
    assert payload["results"]["coefficients"] == [1, 1, 2, 1, 1]
    assert payload["results"]["degree"] == 4
    assert payload["results"]["value_at_one"] == 6


def test_gauss_boundary_and_out_of_range(capsys):
    code, payload, _ = run_json(capsys, "gauss", "3", "0")
    assert code == 0
    assert payload["results"]["coefficients"] == [1]
    code, payload, _ = run_json(capsys, "gauss", "3", "5")
    assert code == 0
    assert payload["results"]["coefficients"] == []
    assert payload["results"]["degree"] == -1


def test_gauss_negative_n_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "gauss", "-1", "2")
    assert code == 2
    assert "nonnegative" in err


def test_qnumber_with_root(capsys):
    code, payload, _ = run_json(capsys, "qnumber", "3", "--root", "3:1")
    assert code == 0
    assert payload["results"]["coefficients"] == [1, 1, 1]
    assert payload["results"]["vanishes_exactly"] is True
    assert abs(payload["results"]["value_at_root"]["re"]) < 1e-12


def test_classify_nonprimitive(capsys):
    code, payload, _ = run_json(capsys, "classify", "6", "2")
    assert code == 0
    results = payload["results"]
    assert results["primitive"] is False
    assert results["block_count"] == 2
    assert results["block_dim"] == 3
    assert results["blocks"] == [
        {"first_state": 0, "last_state": 2},
        {"first_state": 3, "last_state": 5},
    ]


def test_classify_primitive(capsys):
    code, payload, _ = run_json(capsys, "classify", "7", "3")
    assert code == 0
    assert payload["results"]["primitive"] is True
    assert payload["results"]["block_count"] == 1
    assert payload["results"]["block_dim"] == 7


def test_classify_bad_index(capsys):
    code, _, err = run_cli(capsys, "classify", "6", "0")
    assert code == 2
    assert err


def test_ham_root_three(capsys):
    code, payload, _ = run_json(capsys, "ham", "--root", "3:1")
    assert code == 0
    assert payload["results"]["diagonal"] == [0.5, 1.0, 0.5]
    assert all(c["passed"] for c in payload["checks"])


def test_ham_root_six_three(capsys):
    code, payload, _ = run_json(capsys, "ham", "--root", "6:3")
    assert code == 0
    assert payload["results"]["diagonal"] == [0.5] * 6
    assert payload["results"]["block_count"] == 3
    assert payload["results"]["block_dim"] == 2


def test_ham_undeformed(capsys):
    code, payload, _ = run_json(capsys, "ham", "--real", "1.0", "--dim", "3")
    assert code == 0
    assert payload["results"]["diagonal"] == [0.5, 1.5, 2.5]


def test_ham_inverse_roots_agree(capsys):
    _, first, _ = run_json(capsys, "ham", "--root", "6:2")
    _, second, _ = run_json(capsys, "ham", "--root", "6:4")
    assert first["results"]["diagonal"] == second["results"]["diagonal"]


def test_ham_usage_errors(capsys):
    code, _, err = run_cli(capsys, "ham")
    assert code == 2
    code, _, err = run_cli(capsys, "ham", "--real", "0.5")
    assert code == 2
    assert "--dim" in err
    code, _, _ = run_cli(capsys, "ham", "--root", "3:1", "--real", "1.0")
    assert code == 2


def test_ham_rejects_invalid_root_at_parse_time(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["ham", "--root", "5:0"])
    assert excinfo.value.code == 2


def test_ham_internal_fault_is_exit_three(capsys, monkeypatch):
    monkeypatch.setattr(cli, "hamiltonian_equivalence_check", lambda param, dim: 1.0)
    code, payload, _ = run_json(capsys, "ham", "--root", "3:1")
    assert code == 3
    assert any(not c["passed"] for c in payload["checks"])


def test_verify_brackets(capsys):
    code, payload, _ = run_json(capsys, "verify", "brackets", "--max-m", "20")
    assert code == 0
    assert all(c["passed"] for c in payload["checks"])
    assert all(c["max_residual"] < 1e-10 for c in payload["checks"])


def test_verify_algebra_single_root(capsys):
    code, payload, _ = run_json(capsys, "verify", "algebra", "--root", "6:1")
    assert code == 0
    names = {c["name"] for c in payload["checks"]}
    assert "algebra_deformed_commutator" in names
    assert "algebra_biedenharn_macfarlane_down" in names


def test_verify_algebra_sweep(capsys):
    code, payload, _ = run_json(capsys, "verify", "algebra", "--max-m", "8")
    assert code == 0
    assert payload["results"]["algebra_cases"] == sum(m - 1 for m in range(2, 9))


def test_verify_negative_real_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "algebra", "--real", "-0.5", "--dim", "5"])
    assert excinfo.value.code == 2


def test_verify_all(capsys):
    code, payload, _ = run_json(capsys, "verify", "all", "--max-m", "8")
    assert code == 0
    assert all(c["passed"] for c in payload["checks"])


def test_verify_check_failure_is_exit_one(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "brackets", "--max-m", "10", "--tolerance", "-1.0"
    )
    assert code == 1
    assert any(not c["passed"] for c in payload["checks"])


def test_polychronakos_real(capsys):
    code, payload, _ = run_json(capsys, "polychronakos", "--real", "0.5", "--dim", "20")
    assert code == 0
    assert payload["results"]["unitary"] is True


def test_polychronakos_root_nonunitary(capsys):
    code, payload, _ = run_json(capsys, "polychronakos", "--root", "5:2")
    assert code == 0
    assert payload["results"]["unitary"] is False


def test_json_output_roundtrips_byte_identically(capsys):
    for argv in (
        ["ham", "--root", "6:1"],
        ["gauss", "12", "5"],
        ["verify", "brackets", "--max-m", "6"],
        ["polychronakos", "--real", "2.5", "--dim", "10"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert render_json(json.loads(out)) + "\n" == out


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["ham", "--real", "1e200", "--dim", "3"], "{4}_q is not finite"),
        (["ham", "--real", "1e308", "--dim", "5"], "{6}_q is not finite"),
        (["verify", "algebra", "--real", "1e200", "--dim", "3"], "{4}_q is not finite"),
        (["polychronakos", "--real", "10", "--dim", "400"], "{401}_q is not finite"),
        (["qnumber", "3", "--real", "1e308"], "{3}_q at --real 1e+308 overflows"),
    ],
)
def test_float64_overflow_is_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert message in err and "overflows float64" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_real_rejected(capsys, value):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["ham", "--real", value, "--dim", "3"])
    assert excinfo.value.code == 2
    assert "finite" in capsys.readouterr().err


def test_non_finite_tolerance_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "brackets", "--tolerance", "inf"])
    assert excinfo.value.code == 2


def test_render_json_refuses_non_finite_floats():
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            render_json({"checks": [{"max_residual": bad}]})


def test_measured_residuals_of_boolean_checks(capsys, monkeypatch):
    # unitary_for_real_q reports the measured gap, not a 0.0 placeholder
    monkeypatch.setattr(cli, "unitarity_mismatch", lambda param, dim: 0.25)
    code, payload, _ = run_json(capsys, "polychronakos", "--real", "0.5", "--dim", "6")
    assert code == 1
    entry = next(c for c in payload["checks"] if c["name"].startswith("unitary_for_real_q"))
    assert entry == {"name": "unitary_for_real_q[q=0.5]", "passed": False, "max_residual": 0.25}


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "ham", "--root", "6:2", "--format", "table")
    assert code == 0
    assert out.startswith("command: ham")
    assert "block_count" in out
    assert "pass" in out
