"""End-to-end CLI behavior: payloads, exit-code contract, JSON stability."""

import importlib.util
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import qdeform.cli as cli
import qdeform.gauss as gauss
import qdeform.hamiltonian as hamiltonian
import qdeform.ladder as ladder
import qdeform.realization as realization
import qdeform.reducibility as reducibility
import qdeform.roots as roots
from qdeform.report import check_entry, envelope, render_json

SRC = Path(__file__).resolve().parent.parent / "src"


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


@pytest.mark.parametrize(
    ("n", "root", "value"),
    [("5", "99999999999999999999:1", None), ("3", "100000000000000000000:50000000000000000000", 1.0)],
)
def test_qnumber_at_a_root_past_any_index_size(capsys, n, root, value):
    # one residue bucket per coefficient, not one per power of the root
    code, payload, _ = run_json(capsys, "qnumber", n, "--root", root)
    assert code == 0
    at_root = payload["results"]["value_at_root"]
    assert math.isfinite(at_root["re"]) and math.isfinite(at_root["im"])
    if value is not None:
        assert at_root == {"re": value, "im": 0.0}


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


@pytest.mark.parametrize("argv", [["--real", "2.0", "--dim", "486"], ["--real", "10", "--dim", "148"]])
def test_ham_large_energies_pass_every_check(capsys, argv):
    # energies past 1e146 once moved a dense eigensolver's small eigenvalues;
    # the diagonal itself is exact, so no check may report a fault here
    code, payload, _ = run_json(capsys, "ham", *argv)
    assert code == 0
    assert all(c["passed"] for c in payload["checks"])


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


def test_ham_root_past_int64(capsys):
    # a block dimension past int64 cannot be a numpy operand
    code, payload, _ = run_json(capsys, "ham", "--root", "1000000000000000000000:7", "--dim", "5")
    assert code == 0
    assert payload["results"]["block_dim"] == 10**21
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["block_pattern_repeats"]["passed"]


def test_ham_rejects_invalid_root_at_parse_time(capsys):
    code, out, err = run_cli(capsys, "ham", "--root", "5:0")
    assert (code, out) == (2, "")
    assert err == "qdeform: error: argument --root: index must lie in 1..4, got 0\n"


def test_ham_internal_fault_is_exit_three(capsys, monkeypatch):
    exact = hamiltonian.spectrum_report

    def faulty(numbers):
        return hamiltonian.SpectrumReport(**{**vars(exact(numbers)), "equivalence_gap": 1.0})

    monkeypatch.setattr(hamiltonian, "spectrum_report", faulty)
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
    code, _, _ = run_cli(capsys, "verify", "algebra", "--real", "-0.5", "--dim", "5")
    assert code == 2


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


@pytest.mark.parametrize(
    ("argv", "cap"),
    [
        (["ham", "--real", "0.5", "--dim", "1000001"], "1000000"),
        (["ham", "--root", "1000001:1"], "1000000"),
        (["verify", "algebra", "--real", "0.5", "--dim", "1000001"], "1000000"),
        (["verify", "polychronakos", "--root", "5:2", "--dim", "1000001"], "1000000"),
        (["polychronakos", "--real", "2.0", "--dim", "1000001"], "1000000"),
    ],
)
def test_dimension_past_its_cap_is_usage_error(capsys, argv, cap):
    # one past each cap: the guard runs before any vector of that length exists
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert f"at most {cap}" in err


@pytest.mark.parametrize(
    ("argv", "cap"),
    [(["gauss", "501", "250"], "500"), (["qnumber", "1000001", "--root", "3:1"], "1000000")],
)
def test_polynomial_size_past_its_cap_is_usage_error(capsys, monkeypatch, argv, cap):
    # one past each cap, refused before any polynomial is built
    def no_polynomial(*args):
        raise AssertionError("a polynomial was built before the usage error")

    monkeypatch.setattr(gauss, "gauss_binomial", no_polynomial)
    monkeypatch.setattr(gauss, "q_number", no_polynomial)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert f"at most {cap}" in err


@pytest.mark.parametrize("argv", [["classify", "200002", "100001"], ["ham", "--root", "200002:100001"]])
def test_block_count_past_its_cap_is_usage_error(capsys, monkeypatch, argv):
    # one past the cap, refused before the decomposition is built
    def no_decomposition(root):
        raise AssertionError("the blocks were built before the usage error")

    monkeypatch.setattr(reducibility, "decompose", no_decomposition)
    monkeypatch.setattr(hamiltonian, "decompose", no_decomposition)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert f"at most {cli.MAX_BLOCKS} blocks" in err and "has 100001" in err


def _without_reader(argv, env):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


def _reader_leaves_after_100_bytes(argv, env):
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        return proc.wait(timeout=60), err


@pytest.mark.parametrize(
    ("args", "close"),
    [
        # far more than a pipe buffer holds: the write is under way when the reader goes
        (["qnumber", "200000"], _reader_leaves_after_100_bytes),
        # a short report stays buffered until the flush, which finds no reader
        (["ham", "--root", "6:1"], _without_reader),
    ],
    ids=["reader_leaves_mid_write", "no_reader_at_flush"],
)
def test_closed_stdout_ends_quietly(args, close):
    # stdout block-buffered, as it is by default when it is a pipe
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    code, err = close([sys.executable, "-m", "qdeform.cli", *args], env)
    assert err == b""
    assert code == 141


def pinned_argv():
    """Every golden argv, then every benchmark workload argv not among them."""
    manifest = json.loads((Path(__file__).parent / "golden" / "readme_commands.json").read_text())
    workloads_py = SRC.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", workloads_py)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    lines = [entry["argv"] for entry in manifest]
    lines += [shlex.join(argv) for w in workloads.WORKLOADS.values() for argv in w.commands]
    return list(dict.fromkeys(lines))


PINNED_ARGV = pinned_argv()


NUMPY_BLOCKED = """
import contextlib, io, json, shlex, sys
sys.modules["numpy"] = None  # from here on, import numpy raises ImportError
import qdeform.cli
runs = {}
for line in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = qdeform.cli.main(shlex.split(line))
        except Exception as exc:
            code = repr(exc)
    runs[line] = [code, out.getvalue()]
print(json.dumps(runs))
"""


@pytest.fixture(scope="module")
def numpy_blocked_runs():
    """Exit code and stdout of each pinned argv, run where numpy cannot be imported."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_BLOCKED],
        input=json.dumps(PINNED_ARGV),
        capture_output=True,
        text=True,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("line", PINNED_ARGV)
def test_no_command_loads_numpy(capsys, numpy_blocked_runs, line):
    code = cli.main(shlex.split(line))
    assert numpy_blocked_runs[line] == [code, capsys.readouterr().out]


RUN_COMMAND = """
import contextlib, io, qdeform.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = qdeform.cli.main({argv!r})
"""

# the modules are read before json is imported to print them
REPORT_LOADED = """
import sys
loaded = set(sys.modules)
import json
layers = sorted(name for name in loaded if name.startswith("qdeform."))
print(json.dumps([code, layers, sorted(set({modules!r}) & loaded)]))
"""

# what no command loads: the records share one base in the package, argv is
# read by cli's own table and report escapes strings with the C escaper
UNLOADED = ("dataclasses", "inspect", "argparse", "gettext", "locale", "json")


@pytest.mark.parametrize(
    ("case", "layers"),
    [
        ("import qdeform", []),
        ("import qdeform.cli", ["cli", "report"]),
        ("gauss 4 2", ["cli", "gauss", "report"]),
        ("classify 6 2", ["cli", "reducibility", "report", "roots"]),
        ("ham --real 1.1 --dim 8", ["cli", "hamiltonian", "ladder", "reducibility", "report", "roots"]),
        ("polychronakos --real 0.5 --dim 50", ["cli", "ladder", "realization", "report", "roots"]),
        ("ham --root 6:3", ["cli", "hamiltonian", "ladder", "reducibility", "report", "roots"]),
        ("verify all --max-m 12", ["cli", "ladder", "realization", "report", "roots"]),
        ("ham --real inf --dim 3", ["cli", "report", "roots"]),
        ("ham --help", ["cli", "report"]),
    ],
)
def test_each_command_loads_only_its_layers(case, layers):
    # a fresh interpreter per case, which reports the qdeform modules it loaded;
    # -S keeps site's .pth imports from loading a module first
    code, loaded, unwanted = _loaded_in_fresh_interpreter(case, UNLOADED, "-S")
    assert code == (2 if "inf" in case else 0)
    assert loaded == [f"qdeform.{layer}" for layer in layers]
    assert unwanted == []


@pytest.mark.parametrize("case", ["gauss 4 2", "ham --root 6:3"])
def test_typing_stays_unloaded_without_site(case):
    # typing appears only in annotations; -S keeps site from loading it first.
    # The two cases load every module that names typing.
    _, _, unwanted = _loaded_in_fresh_interpreter(case, ("typing",), "-S")
    assert unwanted == []


def _loaded_in_fresh_interpreter(case, modules, *flags):
    """The exit code, the qdeform modules and those of `modules` that one case loads."""
    if case.startswith("import"):
        program = f"{case}\ncode = 0"
    else:
        program = RUN_COMMAND.format(argv=case.split())
    proc = subprocess.run(
        [sys.executable, *flags, "-c", program + REPORT_LOADED.format(modules=modules)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_non_finite_real_rejected(capsys, value):
    code, _, err = run_cli(capsys, "ham", "--real", value, "--dim", "3")
    assert code == 2
    assert "finite" in err


def test_non_finite_tolerance_rejected(capsys):
    code, _, _ = run_cli(capsys, "verify", "brackets", "--tolerance", "inf")
    assert code == 2


# the options each command took under argparse, -h/--help aside
COMMAND_OPTIONS = {
    "gauss": ("--format", "--tolerance"),
    "qnumber": ("--root", "--real", "--format", "--tolerance"),
    "classify": ("--format", "--tolerance"),
    "ham": ("--root", "--real", "--dim", "--format", "--tolerance"),
    "verify": ("--max-m", "--root", "--real", "--dim", "--format", "--tolerance"),
    "polychronakos": ("--root", "--real", "--dim", "--format", "--tolerance"),
}


@pytest.mark.parametrize("command", [None, *COMMAND_OPTIONS])
def test_help_prints_the_usage_to_stdout(capsys, command):
    code, out, err = run_cli(capsys, *([command] if command else []), "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: qdeform {command or '<command>'}")
    if command is None:
        assert all(f"  {name} " in out for name in COMMAND_OPTIONS)
    else:
        assert all(f"  {option} " in out for option in COMMAND_OPTIONS[command])
        assert "-h, --help" in out


def test_render_json_refuses_non_finite_floats():
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            render_json({"checks": [{"max_residual": bad}]})


def element_by_element(items, indent):
    """A list as render_json renders any list: each element on its own, one per line."""
    if not items:
        return "[]"
    inner = "  " * (indent + 1)
    rows = [inner + render_json(v, indent + 1) for v in items]
    return "[\n" + ",\n".join(rows) + "\n" + "  " * indent + "]"


@pytest.mark.parametrize(
    "items",
    [
        [0.5, 1.0, -2.25e-300, 1e22, 0.1, 2 / 3, 0.1 + 0.2, -0.0],
        [1, -7, 10**40, 0],
        [3, 2.5, 1.0, -4],
        [True, 1, 2.5, False],
        [],
        (1.5, 2),
    ],
    ids=["floats", "ints", "mixed", "bools", "empty", "tuple"],
)
def test_flat_number_lists_render_as_element_by_element(items):
    for indent in (0, 2):
        assert render_json(items, indent) == element_by_element(items, indent)
    nested = render_json({"results": {"diagonal": items}})
    assert nested == '{\n  "results": {\n    "diagonal": ' + element_by_element(items, 2) + "\n  }\n}"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", [0, 2])
def test_flat_number_lists_refuse_non_finite_floats_as_each_element_does(bad, where):
    items = [1.0, 2, 3.5]
    items.insert(where, bad)
    with pytest.raises(ValueError) as scalar:
        render_json(bad)
    with pytest.raises(ValueError) as flat:
        render_json(items)
    assert str(flat.value) == str(scalar.value)


def test_a_large_report_is_copied_once_per_level():
    # the checks' body and the envelope around it are each joined once and not
    # copied again: about 2.5 times the output at the peak, rows included;
    # prefixing and suffixing each body after its join takes about 3.5 times
    checks = [check_entry(f"algebra_root_{m}:{j}", True, 1e-16 * j) for m in range(200) for j in range(100)]
    env = envelope("verify", {"scope": "algebra"}, {"algebra_cases": len(checks)}, checks, "0")
    size = len(render_json(env))
    tracemalloc.start()
    try:
        render_json(env)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * size


def test_measured_residuals_of_boolean_checks(capsys, monkeypatch):
    # unitary_for_real_q reports the measured gap, not a 0.0 placeholder
    exact = realization.verify_realization

    def faulty(numbers):
        return realization.RealizationReport(**{**vars(exact(numbers)), "unitarity_gap": 0.25})

    monkeypatch.setattr(realization, "verify_realization", faulty)
    code, payload, _ = run_json(capsys, "polychronakos", "--real", "0.5", "--dim", "6")
    assert code == 1
    entry = next(c for c in payload["checks"] if c["name"].startswith("unitary_for_real_q"))
    assert entry == {"name": "unitary_for_real_q[q=0.5]", "passed": False, "max_residual": 0.25}
    assert payload["results"]["unitary"] is False


def counted(monkeypatch, module, name):
    """Wrap module.name so each call through the module is counted."""
    calls = []
    exact = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return exact(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize(
    ("argv", "builds", "code"),
    [
        ("ham --root 6:2", 1, 0),
        ("ham --real 1.1 --dim 8", 1, 0),
        ("polychronakos --real 1.5 --dim 8", 1, 0),
        ("polychronakos --root 6:1", 1, 0),
        ("verify all --root 6:1", 1, 0),
        ("verify all --real 2.0 --dim 8", 1, 0),
        ("verify algebra --real 0.5 --dim 8", 1, 0),
        # algebra at --dim 20 and the realization at 50: two dimensions
        ("verify all --real 0.5", 2, 0),
        # the overflow guard reads {1761}_q from the one build, then stops
        ("verify all --real 1.5 --dim 1760", 1, 2),
    ],
)
def test_each_parameter_and_dimension_builds_its_q_numbers_once(capsys, monkeypatch, argv, builds, code):
    calls = counted(monkeypatch, ladder, "q_numbers")
    sums = counted(monkeypatch, ladder, "q_values")
    grids = counted(monkeypatch, ladder, "q_value_rows")
    got, out, err = run_cli(capsys, *argv.split())
    assert got == code
    assert len(calls) == len(set(calls)) == builds
    # one running sum or one root grid per build
    assert len(sums) + len(grids) == builds
    if code == 2:
        assert out == ""
        assert err.count("\n") == 1 and "overflows float64" in err


def test_root_sweeps_build_no_row_they_read_off_another(capsys, monkeypatch):
    # A non-primitive root repeats the row of its reduced root and the root
    # m - j conjugates the root j (tests/test_roots.py pins both), so the
    # bracket sweep asks for the primitive roots only, sum of phi(m) rows,
    # and the algebra sweep for the roots j <= m/2, one grid per order.
    rows = counted(monkeypatch, roots, "sine_ratio_rows")
    assert run_cli(capsys, "verify", "brackets", "--max-m", "80")[0] == 0
    assert [order for order, _, _ in rows] == list(range(2, 81))
    for order, indices, _ in rows:
        assert list(indices) == [j for j in range(1, order) if math.gcd(j, order) == 1]
    assert sum(len(indices) for _, indices, _ in rows) == 1965
    grids = counted(monkeypatch, ladder, "q_value_rows")
    assert run_cli(capsys, "verify", "algebra", "--max-m", "48")[0] == 0
    assert [(order, list(indices)) for order, indices, _ in grids] == [
        (m, list(range(1, m // 2 + 1))) for m in range(2, 49)
    ]
    assert sum(len(indices) for _, indices, _ in grids) == 576


def test_table_format(capsys):
    code, out, _ = run_cli(capsys, "ham", "--root", "6:2", "--format", "table")
    assert code == 0
    assert out.startswith("command: ham")
    assert "block_count" in out
    assert "pass" in out


def test_verify_resolves_parameters_before_any_sweep(capsys, monkeypatch):
    def no_sweep(max_m):
        raise AssertionError("the bracket sweep ran before the usage error")

    monkeypatch.setattr(roots, "verify_bracket_relations", no_sweep)
    code, out, err = run_cli(capsys, "verify", "all", "--max-m", "300", "--real", "1e200", "--dim", "3")
    assert code == 2
    assert out == ""
    assert "overflows float64" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "all", "--dim", "5"), "--dim needs --root m:j or --real q"),
        (("verify", "algebra", "--dim", "5"), "--dim needs --root m:j or --real q"),
        (("verify", "brackets", "--real", "0.5"), "verify brackets reads none of"),
        (("verify", "brackets", "--root", "6:1"), "verify brackets reads none of"),
        (("verify", "brackets", "--dim", "5"), "verify brackets reads none of"),
    ],
)
def test_verify_rejects_flags_no_scope_reads(capsys, monkeypatch, argv, message):
    def no_sweep(*args):
        raise AssertionError("a sweep ran before the usage error")

    monkeypatch.setattr(roots, "verify_bracket_relations", no_sweep)
    monkeypatch.setattr(cli, "_root_sweep_checks", no_sweep)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("scope", ["algebra", "brackets", "all"])
def test_sweep_order_past_its_cap_is_usage_error(capsys, monkeypatch, scope):
    def no_sweep(*args):
        raise AssertionError("a sweep ran before the usage error")

    monkeypatch.setattr(roots, "verify_bracket_relations", no_sweep)
    monkeypatch.setattr(ladder, "verify_order_relations", no_sweep)
    too_many = str(cli.MAX_SWEEP_ORDER + 1)
    code, out, err = run_cli(capsys, "verify", scope, "--max-m", too_many)
    assert code == 2
    assert out == ""
    assert err == f"qdeform: error: --max-m must be at most {cli.MAX_SWEEP_ORDER}, got {too_many}\n"


@pytest.mark.parametrize(
    ("argv", "echoed"),
    [
        ("verify algebra --root 6:1", False),
        ("verify algebra --real 0.5 --dim 8", False),
        ("verify polychronakos", False),
        ("verify polychronakos --root 5:2", False),
        ("verify algebra --max-m 4", True),
        ("verify brackets --max-m 4", True),
        ("verify all --root 6:1 --max-m 4", True),
    ],
)
def test_verify_echoes_max_m_only_where_a_sweep_reads_it(capsys, argv, echoed):
    code, payload, _ = run_json(capsys, *argv.split())
    assert code == 0
    assert ("max_m" in payload["inputs"]) == echoed
