"""The benchmark's workloads: fixed argv lists for the `qdeform` CLI.

Each workload is one pass over its argv list.  The workload seed only
permutes the order of the commands inside a pass; the program receives
nothing but the argv.  Sizes are fixed so that one run compares with the
next.
"""

from __future__ import annotations

import random
import shlex
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """`tail_pct` is the percentile reported as the per-command tail.  Commands
    of one workload differ in cost, so the samples form one cluster per
    command; the percentile is fixed per workload, away from the edges of
    those clusters, and leaves at least ten samples beyond it in a run."""

    name: str
    why: str
    commands: tuple[tuple[str, ...], ...]
    tail_pct: float

    def passes(self, seed: int):
        """Endless stream of passes, each a seed-determined permutation."""
        rng = random.Random(seed)
        while True:
            order = list(self.commands)
            rng.shuffle(order)
            yield order


def _argv(*lines: str) -> tuple[tuple[str, ...], ...]:
    return tuple(tuple(shlex.split(line)) for line in lines)


README_COMMANDS = _argv(
    "gauss 4 2",
    "qnumber 6 --root 6:1",
    "classify 6 2",
    "ham --root 6:3",
    "ham --real 1.0 --dim 3",
    "verify brackets --max-m 50",
    "verify algebra --root 6:1",
    "verify all --max-m 12",
    "polychronakos --real 0.5 --dim 50",
)

# Inputs outside the float64 domain.  The required outcome is a one-line
# usage error with exit 2; they stay in the workload whether or not the
# program meets that, so the failure count shows it.
EDGE_COMMANDS = _argv(
    "ham --real inf --dim 3",
    "ham --real 1e200 --dim 3",
    "qnumber 3 --real 1e308",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli_interactive",
            "README commands plus three out-of-domain argv: interpreter start, "
            "import and argparse dominate, so lazy imports and cli/report work show here",
            README_COMMANDS + EDGE_COMMANDS,
            tail_pct=85.0,
        ),
        Workload(
            "gauss_exact",
            "large q-binomials: exact polynomial division in the gauss layer dominates "
            "and report renders thousands of big-int coefficients; no ladder code runs",
            _argv("gauss 60 30", "gauss 80 40", "gauss 100 50"),
            tail_pct=60.0,
        ),
        Workload(
            "root_sweep",
            "root-of-unity sweeps: about 1,900 small dense ladder checks and 2 M exact "
            "trig calls, where Python overhead dominates",
            _argv(
                "verify all --max-m 40",
                "verify algebra --max-m 48",
                "verify brackets --max-m 80",
            ),
            tail_pct=60.0,
        ),
        Workload(
            "dense_large",
            "few large dense products (dim 600-800), the O(dim^2) real-q sums and an "
            "order-360 invariant-block check: BLAS-bound ladder work and peak memory",
            _argv(
                "verify algebra --real 0.5 --dim 600",
                "polychronakos --real 0.5 --dim 600",
                "ham --real 1.1 --dim 800",
                "ham --root 360:48",
            ),
            tail_pct=70.0,
        ),
    )
}
