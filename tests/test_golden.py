"""Every argv that the README's CLI block and the benchmark's workloads run,
against its recorded exit code and stdout, byte for byte.

`golden/commands.json` is the one list of pinned argv: each entry names the
argv, its exit code and the file holding its stdout (empty for a usage
error).  `tests/test_cli.py` runs the same list with numpy blocked and
checks that it covers every workload argv.

The sweeps at the --max-m cap print megabytes, so they are pinned by the
sha256 of their stdout instead of a file.
"""

import hashlib
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


# sha256 of stdout at the cap; exit 0.  No golden reaches past order 120, yet the
# 34 roots whose worst residual is a number commutator sit at orders 140-300.
AT_CAP = {
    "verify algebra --max-m 300": "8ed06444da66b5970adbb11617e307a429d183139a0eff0446b1b31d30fcb715",
    "verify brackets --max-m 300": "1cad66ef6071484192723142e3fb1f1701e1451f4fff0cf16a7bab8ebd4cf5ca",
}


@pytest.mark.parametrize("argv", AT_CAP)
def test_sweep_at_the_cap_is_pinned_by_digest(capsys, argv):
    code = cli.main(argv.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == (0, AT_CAP[argv])
