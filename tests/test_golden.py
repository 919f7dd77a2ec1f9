"""The README commands against outputs recorded before the ladder checks moved
to amplitude vectors.

stdout must match byte for byte, with one allowance: the residual of an
algebra_* or three_constructions_agree check is product rounding, so it may
move within 1e-15 as long as its verdict stays.  Exit codes must match.
"""

import json
import shlex
from pathlib import Path

import pytest

import qdeform.cli as cli
from qdeform.report import render_json

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "readme_commands.json").read_text())
ROUNDING = 1e-15


def _rounding_only(name: str) -> bool:
    return name.startswith("algebra_") or name == "three_constructions_agree"


@pytest.mark.parametrize("entry", MANIFEST, ids=lambda entry: entry["argv"])
def test_readme_command_output_is_pinned(capsys, entry):
    code = cli.main(shlex.split(entry["argv"]))
    out = capsys.readouterr().out
    recorded = (GOLDEN / entry["stdout"]).read_text()
    assert code == entry["exit_code"]
    if out == recorded:
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
