"""Deterministic JSON rendering for CLI report envelopes.

The stdlib json module renders floats with shortest-round-trip repr, which is
not stable across value histories; reports here pin floats to 17 significant
digits (enough to reconstruct the exact double), keep dict insertion order,
and therefore re-serialize byte-identically after a parse.
"""

from __future__ import annotations

import math

try:  # the C escaper json.encoder re-exports, without loading json's decoder
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter built without the json accelerator
    from json.encoder import encode_basestring_ascii

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any


def format_float(x: float) -> str:
    """17-significant-digit decimal form; always visibly a float."""
    s = format(x, ".17g")
    if "e" not in s and "." not in s and "n" not in s:  # 1.0 -> '1'
        s += ".0"
    return s


def render_json(obj: Any, indent: int = 0) -> str:
    """Serialize dicts/lists/str/int/float/bool/None with fixed float format
    and dict insertion order preserved.  A non-finite float raises ValueError:
    JSON cannot carry it, and a report must parse (a check writes such a
    residual as None, null).  Any other type raises TypeError."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"JSON has no representation for the float {obj}")
        return format_float(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)  # the escape json.dumps ends in
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{inner}{encode_basestring_ascii(str(k))}: {render_json(v, indent + 1)}" for k, v in obj.items()]
        return _enclose("{\n", rows, ",\n", f"\n{pad}}}")
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) <= {int, float}:  # flat numbers, as a ham diagonal: one pass
            rows = [format_float(v) if type(v) is float else str(v) for v in obj]
            bad = next((v for v, row in zip(obj, rows) if "n" in row), None)  # inf or nan
            if bad is not None:
                raise ValueError(f"JSON has no representation for the float {bad}")
        else:
            rows = [render_json(v, indent + 1) for v in obj]
        return _enclose(f"[\n{inner}", rows, f",\n{inner}", f"\n{pad}]")
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _enclose(head: str, rows: list[str], sep: str, tail: str) -> str:
    """head + sep.join(rows) + tail in one join: the joined body, the size of
    the whole report at the top level, is made once and never copied again."""
    rows[0] = head + rows[0]
    rows[-1] += tail
    return sep.join(rows)


def _scalar(value: Any) -> str:
    """One table value: a float as format_float, None as JSON's null."""
    return format_float(value) if isinstance(value, float) else "null" if value is None else str(value)


def render_table(env: dict[str, Any]) -> str:
    """Human-oriented flat rendering of a report envelope."""
    lines = [f"command: {env['command']}    (version {env['version']})"]

    def emit(prefix: str, value: Any) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                emit(f"{prefix}.{k}" if prefix else str(k), v)
        elif isinstance(value, (list, tuple)) and value and isinstance(value[0], (list, tuple, dict)):
            for i, v in enumerate(value):
                emit(f"{prefix}[{i}]", v)
        elif isinstance(value, (list, tuple)):
            lines.append(f"  {prefix}: [{', '.join(map(_scalar, value))}]")
        else:
            lines.append(f"  {prefix}: {_scalar(value)}")

    emit("inputs", env["inputs"])
    emit("results", env["results"])
    if env["checks"]:
        lines.append("  checks:")
        width = max(len(c["name"]) for c in env["checks"])
        for c in env["checks"]:
            status = "pass" if c["passed"] else "FAIL"
            lines.append(f"    {c['name']:<{width}}  {status}  max_residual={_scalar(c['max_residual'])}")
    return "\n".join(lines)
