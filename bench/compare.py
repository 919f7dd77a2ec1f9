"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 bench/compare.py --base BASE_DIR --head HEAD_DIR

Each directory holds the files run.py writes to .bench_out/ (one JSON file
per run).  For every workload and metric the script prints the median and
quartiles of each side, the change of the head median against the base
median, and, for end-to-end metrics, whether the change is worse than the
bound fixed in BENCHMARK.json.  Claiming a gain needs more than this table:
see the README next to this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = {}
    for path in sorted(directory.glob("*-trace*.json")):
        record = json.loads(path.read_text())
        for name, metric in record["result"]["metrics"].items():
            values.setdefault((record["workload"], name), []).append(metric["value"])
    return values


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.5g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--head", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    base, head = load(args.base), load(args.head)
    print(f"{'workload':16} {'metric':28} {'base median [q1, q3]':>34} {'head median [q1, q3]':>34}  change")
    for key in sorted(base.keys() & head.keys()):
        workload, name = key
        b, h = statistics.median(base[key]), statistics.median(head[key])
        change = (h - b) / b if b else float("nan")
        verdict = ""
        if name in bounds:
            better, bound = bounds[name]
            worse = change > bound if better == "lower" else change < -bound
            verdict = "WORSE THAN BOUND" if worse else f"within {bound:.0%}"
        print(
            f"{workload:16} {name:28} {summary(base[key]):>34} {summary(head[key]):>34}"
            f"  {change:+.2%} {verdict}"
        )


if __name__ == "__main__":
    main()
