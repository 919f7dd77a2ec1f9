"""In-process traced run of the `qdeform` CLI.

The tracer wraps every public function of each qdeform module, and the
methods of QPoly, from outside the package, and replaces every alias other
qdeform modules imported (for example ``cli.verify_relations`` or
``ladder.sin_pi_times``).  A call that enters a layer from another layer (or
from the benchmark) opens a span; a call within the same layer is only
counted, because its time is the caller's self time anyway.  Self time is a
span's duration minus the time its child spans cover, accumulated per layer
as spans close.  Spans (name, start, end, parent, request) are kept in
memory and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import math
import sys
import traceback
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

LAYERS = (
    "cli",
    "report",
    "gauss",
    "roots",
    "ladder",
    "reducibility",
    "hamiltonian",
    "realization",
)

# Spans beyond this many are counted but not kept, so memory stays bounded;
# per-layer times do not depend on kept spans.
MAX_KEPT_SPANS = 250_000


class LayerStats:
    __slots__ = ("calls", "self_s", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0


class Tracer:
    def __init__(self) -> None:
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.stack: list[list] = []  # frames: [layer, child_time, span_id]
        self.request = -1
        self.names: dict[str, int] = {}
        self.span_ids = 0
        self.kept = {key: array(code) for key, code in
                     (("span", "q"), ("parent", "q"), ("request", "q"), ("name", "i"),
                      ("start", "d"), ("end", "d"))}
        self.counts = {
            "report.bytes_out": 0,
            "gauss.coeffs_out": 0,
            "roots.trig_calls": 0,
            "roots.distinct_angles": 0,
            "ladder.max_dim": 0,
            "ladder.dense_bytes": 0,
            "ladder.nonzero": 0,
            "ladder.entries": 0,
        }
        self._angles: set[tuple[int, int]] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- observers of call arguments and results -------------------------

    def _observe_angle(self, args, result, boundary) -> None:
        num, den = args[0], args[1]
        turn = num % (2 * den)
        g = math.gcd(turn, den)
        self._angles.add((turn // g, den // g))
        self.counts["roots.trig_calls"] += 1

    def _observe_ladder(self, args, result, boundary) -> None:
        import numpy as np

        arrays = result if isinstance(result, tuple) else (result,)
        for value in arrays:
            if isinstance(value, np.ndarray) and value.ndim == 2:
                self.counts["ladder.max_dim"] = max(self.counts["ladder.max_dim"], value.shape[0])
                self.counts["ladder.dense_bytes"] += value.nbytes
                self.counts["ladder.nonzero"] += int(np.count_nonzero(value))
                self.counts["ladder.entries"] += value.size

    def _observe_gauss(self, args, result, boundary) -> None:
        coeffs = getattr(result, "coeffs", None)
        if boundary and coeffs is not None:
            self.counts["gauss.coeffs_out"] += len(coeffs)

    def _observe_report(self, args, result, boundary) -> None:
        if boundary and isinstance(result, str):
            self.counts["report.bytes_out"] += len(result.encode())

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, observe):
        stats = self.stats[layer]
        stack = self.stack
        name_id = self.names.setdefault(name, len(self.names))

        def traced(*args, **kwargs):
            stats.calls += 1
            if stack and stack[-1][0] is layer:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result, False)
                return result
            span_id = self.span_ids
            self.span_ids += 1
            parent = stack[-1][2] if stack else -1
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats.errors += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats.self_s += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                self._keep(span_id, parent, name_id, start, end)
            if observe is not None:
                observe(args, result, True)
            return result

        return functools.update_wrapper(traced, fn)

    def _keep(self, span_id, parent, name_id, start, end) -> None:
        kept = self.kept
        if len(kept["span"]) >= MAX_KEPT_SPANS:
            return
        kept["span"].append(span_id)
        kept["parent"].append(parent)
        kept["request"].append(self.request)
        kept["name"].append(name_id)
        kept["start"].append(start)
        kept["end"].append(end)

    def _observer(self, layer: str, name: str):
        if layer == "roots":
            return self._observe_angle if name == "sin_pi_times" else None
        return {
            "ladder": self._observe_ladder,
            "gauss": self._observe_gauss,
            "report": self._observe_report,
        }.get(layer)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind all aliases."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qdeform.{layer}")
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[obj] = self._wrap(
                        layer, f"{layer}.{name}", obj, self._observer(layer, name)
                    )
        qpoly = importlib.import_module("qdeform.gauss").QPoly
        for name, obj in list(vars(qpoly).items()):
            if inspect.isfunction(obj) and name != "__init__":
                self._patch(
                    qpoly, name, self._wrap("gauss", f"gauss.QPoly.{name}", obj, self._observe_gauss)
                )
        for module_name, module in list(sys.modules.items()):
            if module_name == "qdeform" or module_name.startswith("qdeform."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._patch(module, attr, wrappers[value])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- per-pass bookkeeping and output -----------------------------------

    def end_pass(self) -> None:
        self.counts["roots.distinct_angles"] += len(self._angles)
        self._angles.clear()

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass averages over the traced passes, as {name: (value, unit)}."""
        metrics: dict[str, tuple[float, str]] = {}
        for layer, stats in self.stats.items():
            metrics[f"{layer}.calls"] = (stats.calls / passes, "count")
            metrics[f"{layer}.self_s"] = (stats.self_s / passes, "s")
            metrics[f"{layer}.errors"] = (stats.errors / passes, "count")
        c = self.counts
        metrics["report.bytes_out"] = (c["report.bytes_out"] / passes, "bytes")
        metrics["gauss.coeffs_out"] = (c["gauss.coeffs_out"] / passes, "count")
        metrics["roots.trig_calls"] = (c["roots.trig_calls"] / passes, "count")
        metrics["roots.distinct_angle_ratio"] = (
            c["roots.distinct_angles"] / c["roots.trig_calls"] if c["roots.trig_calls"] else 0.0,
            "ratio",
        )
        metrics["ladder.max_dim"] = (c["ladder.max_dim"], "count")
        metrics["ladder.dense_bytes"] = (c["ladder.dense_bytes"] / passes, "bytes")
        metrics["ladder.nonzero_fraction"] = (
            c["ladder.nonzero"] / c["ladder.entries"] if c["ladder.entries"] else 0.0,
            "ratio",
        )
        return metrics

    def self_time_total(self) -> float:
        return sum(stats.self_s for stats in self.stats.values())

    def write_spans(self, path: Path) -> int:
        """Write kept spans as TSV (times relative to the first span); return the count."""
        kept = self.kept
        names = {i: name for name, i in self.names.items()}
        origin = kept["start"][0] if kept["start"] else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("span\tparent\trequest\tname\tstart_s\tend_s\n")
            for i in range(len(kept["span"])):
                out.write(
                    f"{kept['span'][i]}\t{kept['parent'][i]}\t{kept['request'][i]}\t"
                    f"{names[kept['name'][i]]}\t{kept['start'][i] - origin:.9f}\t"
                    f"{kept['end'][i] - origin:.9f}\n"
                )
        return len(kept["span"])


def run_inprocess(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """Run one argv through qdeform.cli.main, capturing what a process would print."""
    cli = importlib.import_module("qdeform.cli")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()
