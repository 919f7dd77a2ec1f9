"""Run every pinned argv under each given Python and compare its exit code
and stdout with the goldens, byte for byte, and the at-cap sweeps' with their
sha256 digests; the standard library only, so it serves an interpreter that
has no pytest.

    python tests/golden_check.py [PYTHON ...]

With no argument it checks the interpreter running it.  Each argv runs as
``PYTHON -m qdeform.cli ARGV`` on this tree's ``src``.  The exit status is the
number of mismatches, capped at 100.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"


def _stdout_matches(entry: dict, out: bytes) -> bool:
    # an at-cap entry pins the sha256 of its stdout, any other the stdout file
    if "sha256" in entry:
        return hashlib.sha256(out).hexdigest() == entry["sha256"]
    return out == (GOLDEN / entry["stdout"]).read_bytes()


def mismatches(python: str) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    wrong = []
    for pins in ("commands.json", "at_cap.json"):
        for entry in json.loads((GOLDEN / pins).read_text()):
            argv = [python, "-m", "qdeform.cli", *shlex.split(entry["argv"])]
            run = subprocess.run(argv, capture_output=True, env=env, timeout=600)
            if run.returncode != entry["exit_code"] or not _stdout_matches(entry, run.stdout):
                wrong.append(entry["argv"])
    return wrong


def main(pythons: list[str]) -> int:
    failed = 0
    for python in pythons or [sys.executable]:
        version = subprocess.run([python, "-c", "import sys; print(sys.version.split()[0])"],
                                 capture_output=True, text=True, check=True).stdout.strip()
        wrong = mismatches(python)
        print(f"Python {version}: {len(wrong)} mismatches")
        for argv in wrong:
            print(f"  {argv}")
        failed += len(wrong)
    return min(failed, 100)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
