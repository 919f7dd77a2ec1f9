"""Every argv ends one of two ways: a report that parses and re-renders
byte-identically with exit 0, 1 or 3, or a usage error with exit 2 and
nothing on stdout.  Hypothesis draws small argv for all six subcommands,
valid and invalid alike, and runs them in-process, where any exception
other than argparse's SystemExit(2) fails the test.
"""

import contextlib
import io
import json
import re

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qdeform.cli as cli
from qdeform.report import render_json

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
        except SystemExit as exc:  # argparse rejects the argv
            assert exc.code == 2, argv
            code = 2
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argv_strategy())
@example(argv=["verify", "polychronakos", "--real", "0.5", "--dim", "1", "--format", "json"])
def test_every_argv_ends_in_a_report_or_a_usage_error(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), argv
    if code == 2:
        assert out == "", argv
        assert "error:" in err, argv
        return
    if argv[-1] == "table":
        assert out.startswith(f"command: {argv[0]}"), argv
        assert not re.search(r"\b(nan|inf)\b", out), argv
        return
    report = json.loads(out, parse_constant=_reject_constant)
    assert render_json(report) + "\n" == out
    failed = not all(check["passed"] for check in report["checks"])
    assert code == ((3 if argv[0] == "ham" else 1) if failed else 0), argv
