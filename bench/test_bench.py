"""Self-tests of the benchmark at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from oracles import check
from tracing import LAYERS, Tracer, run_inprocess
from workloads import EDGE_COMMANDS, Workload, _argv

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = Workload(
    "tiny",
    "a few small commands of every kind, one of them out of domain",
    _argv(
        "gauss 6 3",
        "ham --root 6:3",
        "verify algebra --root 4:1",
        "polychronakos --real 0.5 --dim 6",
    )
    + EDGE_COMMANDS[-1:],
    tail_pct=50.0,
)


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize(
    ("measure", "section"),
    [(run.measure_cli, "end_to_end"), (run.measure_traced, "per_layer")],
)
def test_every_metric_is_emitted_with_its_unit(measure, section):
    metrics, tally, details = measure(TINY, 1, 0.01, run.child_env())
    assert {name: unit for name, (_, unit) in metrics.items()} == _units(section)
    if section == "end_to_end":
        # every set-up sample, and the pass that follows it, lies between two probes
        assert len(details["probe_s"]) == details["setup_samples"] + 1
    assert all(isinstance(value, (int, float)) for value, _ in metrics.values())
    assert tally.attempted % len(TINY.commands) == 0
    # only the out-of-domain argv fails, and it is not a wrong result
    assert tally.failed == tally.attempted // len(TINY.commands)
    assert tally.wrong_results == 0


def test_traced_self_times_add_up_to_the_pass():
    metrics, _, _ = run.measure_traced(TINY, 2, 0.01, run.child_env())
    layers = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    assert layers + metrics["trace.unattributed_s"][0] == pytest.approx(metrics["trace.pass_s"][0])
    assert metrics["gauss.coeffs_out"][0] > 0
    assert metrics["ladder.max_dim"][0] == 6
    assert 0 < metrics["roots.distinct_angle_ratio"][0] <= 1


def _output(argv: str) -> tuple[tuple[str, ...], int, str, str]:
    args = tuple(argv.split())
    return (args, *run_inprocess(args))


def test_oracles_accept_true_outputs():
    for argv in TINY.commands[:-1]:
        assert check(argv, *run_inprocess(argv)) == []


def test_oracle_rejects_gauss_coefficient_off_by_one():
    argv, code, out, err = _output("gauss 6 3")
    report = json.loads(out)
    report["results"]["coefficients"][2] += 1
    assert check(argv, code, json.dumps(report), err)


def test_oracle_rejects_failed_check():
    argv, code, out, err = _output("verify algebra --root 4:1")
    assert '"passed": true' in out
    assert check(argv, code, out.replace('"passed": true', '"passed": false', 1), err)


def test_oracle_rejects_bare_inf():
    argv, code, out, err = _output("polychronakos --real 0.5 --dim 6")
    report = json.loads(out)
    residual = repr(report["checks"][0]["max_residual"])
    tampered = out.replace(f'"max_residual": {residual}', '"max_residual": inf', 1)
    assert tampered != out
    problems = check(argv, code, tampered, err)
    assert any("strict JSON" in p for p in problems)


def test_traced_and_untraced_stdout_are_identical():
    plain = {argv: run_inprocess(argv) for argv in TINY.commands}
    tracer = Tracer()
    tracer.install()
    try:
        traced = {argv: run_inprocess(argv) for argv in TINY.commands}
    finally:
        tracer.uninstall()
    assert traced == plain
    # one root span (cli.main) per command
    assert list(tracer.kept["parent"]).count(-1) == len(TINY.commands)
    cli = sys.modules["qdeform.cli"]
    assert not hasattr(cli.verify_relations, "__wrapped__")


def test_in_process_stdout_matches_the_cli_process():
    argv = TINY.commands[0]
    outcome = run.run_command(argv, run.child_env())
    assert (outcome.code, outcome.out) == run_inprocess(argv)[:2]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "gauss_exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
