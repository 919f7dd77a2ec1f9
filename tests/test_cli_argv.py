"""Every argv ends one of two ways: a report that parses and re-renders
byte-identically with exit 0, 1 or 3, or a usage error with exit 2, one
stderr line and nothing on stdout.  Hypothesis draws small argv for all six
subcommands, valid and invalid alike, and runs them in-process, where any
exception, SystemExit included, fails the test.  A second strategy bends
those argv through the whole grammar, and `cli.parse_args` must read each
as the argparse parser in tests/reference.py does.
"""

import argparse
import contextlib
import importlib
import io
import json
import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qdeform.cli as cli
from qdeform.report import render_json

from reference import build_parser

REALS = ("0.5", "1.0", "2.5", "-1", "1e200", "inf")
PARAM_COMMANDS = ("ham", "verify", "polychronakos")


def _reject_constant(token):
    raise ValueError(f"non-finite constant {token} in a report")


@st.composite
def argv_strategy(draw):
    command = draw(st.sampled_from(("gauss", "qnumber", "classify") + PARAM_COMMANDS))
    small = st.integers(-2, 32)
    if command in ("gauss", "classify"):
        argv = [command, str(draw(st.integers(-2, 30))), str(draw(small))]
    elif command == "qnumber":
        argv = [command, str(draw(st.integers(-2, 30)))]
    elif command == "verify":
        scope = draw(st.sampled_from(("algebra", "brackets", "polychronakos", "all")))
        argv = [command, scope]
        if draw(st.booleans()):
            argv += ["--max-m", str(draw(st.integers(-1, 10)))]
    else:
        argv = [command]
    if command not in ("gauss", "classify"):
        # mostly exactly one parameter, sometimes both or neither
        params = draw(st.sampled_from(("root", "real", "root", "real", "root real", "")))
        if "root" in params:
            order = draw(st.integers(0, 30))
            index = draw(st.one_of(small, st.integers(1, max(order - 1, 1))))
            argv += ["--root", f"{order}:{index}"]
        if "real" in params:
            argv += ["--real", draw(st.sampled_from(REALS))]
    if command in PARAM_COMMANDS and draw(st.booleans()):
        argv += ["--dim", str(draw(st.integers(-2, 64)))]
    tolerance = draw(st.sampled_from((None, "0", "-1")))
    if tolerance is not None:
        argv += ["--tolerance", tolerance]
    return argv + ["--format", draw(st.sampled_from(("json", "table")))]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            pytest.fail(f"SystemExit({exc.code!r}) escaped main for {argv}")
    return code, out.getvalue(), err.getvalue()


def assert_usage_error(argv, out, err):
    assert out == "", argv
    assert len(err.splitlines()) == 1 and err.endswith("\n"), (argv, err)
    assert err.startswith("qdeform: error: "), (argv, err)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argv_strategy())
@example(argv=["verify", "polychronakos", "--real", "0.5", "--dim", "1", "--format", "json"])
@example(argv=["ham", "--real", "1.1", "--dim", "7420", "--format", "table"])
def test_every_argv_ends_in_a_report_or_a_usage_error(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), argv
    if code == 2:
        assert_usage_error(argv, out, err)
        return
    if argv[-1] == "table":
        assert out.startswith(f"command: {argv[0]}"), argv
        assert not re.search(r"\b(nan|inf)\b", out), argv
        return
    report = json.loads(out, parse_constant=_reject_constant)
    assert render_json(report) + "\n" == out
    failed = not all(check["passed"] for check in report["checks"])
    assert code == ((3 if argv[0] == "ham" else 1) if failed else 0), argv


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("q, dim", [("1.1", 7420), ("1.2", 3883), ("1.3", 2699)])
def test_ham_at_the_float64_edge_passes_every_check(q, dim, fmt):
    # {dim+1}_q is finite, but the sum of two neighbouring moduli is not
    argv = ["ham", "--real", q, "--dim", str(dim), "--format", fmt]
    code, out, err = run(argv)
    assert (code, err) == (0, ""), argv
    if fmt == "table":
        assert not re.search(r"\b(nan|inf)\b", out), argv
        assert " FAIL " not in out and out.count("  pass  ") == 1, argv
        return
    report = json.loads(out, parse_constant=_reject_constant)
    assert len(report["results"]["diagonal"]) == dim
    assert [check["passed"] for check in report["checks"]] == [True], argv


# Tokens argparse reads in a way of its own: negative numbers are values,
# other dash tokens options (known, unknown, run on or given a value), and
# a token with a space a value unless it names an option.
ODD_TOKENS = (
    "-2", "-0.5", "-.5", "-1e3", "-2\n", "-", "", "7", "a b", "-x", "-x y", "--bogus",
    "--", "-h", "--help", "--he", "-hh", "-hx", "-h=", "-h=h", "--help=x", "--=1",
    "--dim=--", "--format=--",
)
OPTIONS = ("--root", "--real", "--dim", "--max-m", "--format", "--tolerance")


@st.composite
def grammar_argv_strategy(draw):
    """An argv of argv_strategy with its options moved, given as --opt=value,
    shortened to prefixes (unique or not) and repeated, and odd tokens put in."""
    command, *rest = draw(argv_strategy())
    items, i = [], 0
    while i < len(rest):  # each option with its value, each positional alone
        size = 2 if rest[i] in OPTIONS else 1
        items.append(rest[i : i + size])
        i += size
    if draw(st.booleans()):
        items = draw(st.permutations(items))
    given = [item for item in items if len(item) == 2]
    if given and draw(st.booleans()):
        items.insert(draw(st.integers(0, len(items))), draw(st.sampled_from(given)))
    if draw(st.booleans()):
        option = draw(st.sampled_from(OPTIONS))
        items.insert(draw(st.integers(0, len(items))), [option, draw(st.sampled_from(REALS))])
    tokens = []
    for item in items:
        if len(item) == 2:
            name, value = item
            name = name[: draw(st.integers(3, len(name)))]
            tokens += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
        else:
            tokens += item
    for _ in range(draw(st.integers(0, 2))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(ODD_TOKENS)))
    before = draw(st.sampled_from(((),) * 6 + (("-h",), ("--bogus",), ("--",), ("-x", "--he"))))
    return [*before, command, *tokens]


def _no_empty_list(get_values):
    """argparse's _get_values, refusing the empty list it makes of a literal
    "--" given as a value (``--format=--``, or a lone ``--`` after the first),
    which no handler reads: the new parser rejects that value where it comes."""

    def checked(parser, action, arg_strings):
        value = get_values(parser, action, arg_strings)
        if action.nargs is None and value == []:
            raise argparse.ArgumentError(action, "a literal '--' as the value")
        return value

    return checked


def reference_reading(argv):
    """("help",), ("error",) or ("args", fields, handler), as argparse reads argv."""
    get_values = _no_empty_list(argparse.ArgumentParser._get_values)
    with (
        mock.patch.object(argparse.ArgumentParser, "_get_values", get_values),
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(io.StringIO()),
    ):
        try:
            namespace = build_parser().parse_args(argv)
        except SystemExit as exc:
            return ("help",) if exc.code == 0 else ("error",)
    fields = vars(namespace)
    return "args", fields, fields.pop("handler")


def new_reading(argv):
    try:
        args = cli.parse_args(argv)
    except cli.UsageError:
        return ("error",)
    if isinstance(args, str):
        return ("help",)
    fields = dict(vars(args))
    return "args", fields, importlib.import_module(cli.COMMANDS[fields["subcommand"]][3]).handle


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=grammar_argv_strategy())
@example(argv=["ham", "--root=6:1", "--dim", "4"])
@example(argv=["verify", "algebra", "--max", "4"])
@example(argv=["ham", "--r", "6:1"])
@example(argv=["ham", "--dim", "2", "--root", "6:1", "--dim", "3", "--format=table"])
@example(argv=["qnumber", "-2", "--real", "-0.5"])
@example(argv=["gauss", "--", "-2", "4"])
@example(argv=["gauss", "4", "--", "2"])
@example(argv=["gauss", "4", "2", "--"])
@example(argv=["gauss", "-h", "x"])
@example(argv=["gauss", "x", "-h"])
@example(argv=["--help"])
@example(argv=[])
@example(argv=["gauss", "4"])
@example(argv=["ham", "--real", "abc", "--dim", "3"])
@example(argv=["ham", "--root", "6"])
def test_parse_args_reads_argv_as_argparse_did(argv):
    expected = reference_reading(argv)
    assert new_reading(argv) == expected, argv
    if expected[0] == "args":
        return
    code, out, err = run(argv)
    if expected == ("help",):
        assert (code, err) == (0, ""), argv
        assert out.startswith("usage: qdeform"), argv
    else:
        assert code == 2, argv
        assert_usage_error(argv, out, err)
