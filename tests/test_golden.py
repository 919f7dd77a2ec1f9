"""Every argv that the README's CLI block and the benchmark's workloads run,
against its recorded exit code and stdout, byte for byte.

`golden/commands.json` is the one list of pinned argv: each entry names the
argv, its exit code and the file holding its stdout (empty for a usage
error).  `tests/test_cli.py` runs the same list with numpy blocked and
checks that it covers every workload argv.
"""

import json
import shlex
from pathlib import Path

import pytest

import qdeform.cli as cli

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "commands.json").read_text())


@pytest.mark.parametrize("entry", MANIFEST, ids=lambda entry: entry["argv"])
def test_readme_command_output_is_pinned(capsys, entry):
    code = cli.main(shlex.split(entry["argv"]))
    assert (code, capsys.readouterr().out) == (
        entry["exit_code"],
        (GOLDEN / entry["stdout"]).read_bytes().decode(),
    )
