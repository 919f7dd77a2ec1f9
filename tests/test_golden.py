"""CLI commands against outputs recorded before the ladder checks moved to
amplitude vectors (the README commands), before the CLI checks were
gathered into one builder each (the verify-all, ham and table branches, and
a usage error), or before every check read one q-number build (ham at a
real q > 1, whose overflow guard read its own sum).  Two entries have since
lost the "max_m" input, which no sweep of theirs reads.

stdout must match byte for byte, with one allowance: the residual of an
algebra_* or three_constructions_agree check is product rounding, so it may
move within 1e-15 as long as its verdict stays.  Table output gets the same
allowance on its check lines.  Exit codes must match.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

import qdeform.cli as cli
from qdeform.report import render_json

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "readme_commands.json").read_text())
ROUNDING = 1e-15
TABLE_CHECK = re.compile(r"\s+(\S+)\s+(pass|FAIL)\s+max_residual=(\S+)")


def _rounding_only(name: str) -> bool:
    return name.startswith("algebra_") or name == "three_constructions_agree"


def _same_table_line(got: str, want: str) -> bool:
    if got == want:
        return True
    new, old = TABLE_CHECK.fullmatch(got), TABLE_CHECK.fullmatch(want)
    if not (new and old and _rounding_only(old[1]) and new.group(1, 2) == old.group(1, 2)):
        return False
    return abs(float(new[3]) - float(old[3])) <= ROUNDING


@pytest.mark.parametrize("entry", MANIFEST, ids=lambda entry: entry["argv"])
def test_readme_command_output_is_pinned(capsys, entry):
    code = cli.main(shlex.split(entry["argv"]))
    out = capsys.readouterr().out
    recorded = (GOLDEN / entry["stdout"]).read_text()
    assert code == entry["exit_code"]
    if out == recorded:
        return
    if not recorded.startswith("{"):
        got_lines, want_lines = out.split("\n"), recorded.split("\n")
        assert len(got_lines) == len(want_lines)
        for got, want in zip(got_lines, want_lines):
            assert _same_table_line(got, want), want
        return
    got, want = json.loads(out), json.loads(recorded)
    assert len(got["checks"]) == len(want["checks"])
    for new, old in zip(got["checks"], want["checks"]):
        if new != old and _rounding_only(old["name"]):
            assert new["name"] == old["name"]
            assert new["passed"] == old["passed"], old["name"]
            assert abs(new["max_residual"] - old["max_residual"]) <= ROUNDING, old["name"]
            new["max_residual"] = old["max_residual"]
    assert render_json(got) + "\n" == recorded
