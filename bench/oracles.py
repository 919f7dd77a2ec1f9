"""Output oracles that do not depend on the program.

Each oracle recomputes what a command must report from the command's argv,
with `math`/`cmath` and exact integers, and returns a list of problems (empty
when the output is correct).  Outputs are never compared byte-for-byte with a
recorded run, so a report that gains keys still passes.
"""

from __future__ import annotations

import cmath
import json
import math
from typing import Any

from workloads import EDGE_COMMANDS

TRACEBACK = "Traceback (most recent call last)"
RESIDUAL_TOL = 1e-9


def _reject_constant(token: str) -> Any:
    raise ValueError(f"non-finite constant {token}")


def strict_json(text: str) -> Any:
    """json.loads that also rejects Infinity/NaN (bare inf/nan are invalid anyway)."""
    return json.loads(text, parse_constant=_reject_constant)


def _options(argv: tuple[str, ...]) -> tuple[list[str], dict[str, str]]:
    positional: list[str] = []
    flags: dict[str, str] = {}
    items = iter(argv)
    for item in items:
        if item.startswith("--"):
            flags[item[2:]] = next(items)
        else:
            positional.append(item)
    return positional, flags


def _root(flags: dict[str, str]) -> tuple[int, int] | None:
    if "root" not in flags:
        return None
    order, index = flags["root"].split(":")
    return int(order), int(index)


def _abs_qnumber(n: int, flags: dict[str, str]) -> float:
    """|{n}_q| from its closed form, with plain math.sin at roots."""
    root = _root(flags)
    if root is not None:
        m, j = root
        return abs(math.sin(math.pi * j * n / m) / math.sin(math.pi * j / m))
    q = float(flags["real"])
    return float(n) if q == 1.0 else (q**n - 1.0) / (q - 1.0)


def _close(got: Any, want: float, tol: float = RESIDUAL_TOL) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol * max(1.0, abs(want))


def _checks(report: dict, expected_count: int | None) -> list[str]:
    """Every check passes with a finite residual; the count matches the sweep."""
    problems = []
    checks = report.get("checks")
    if not isinstance(checks, list):
        return ["report has no checks list"]
    if expected_count is not None and len(checks) != expected_count:
        problems.append(f"{len(checks)} checks, sweep defines {expected_count}")
    for entry in checks:
        name = entry.get("name")
        if entry.get("passed") is not True:
            problems.append(f"check {name} did not pass")
        residual = entry.get("max_residual")
        if isinstance(residual, bool) or not isinstance(residual, (int, float)):
            problems.append(f"check {name} has no numeric residual")
        elif not math.isfinite(residual):
            problems.append(f"check {name} residual {residual} is not finite")
    return problems


def _gauss(pos: list[str], flags: dict[str, str], results: dict) -> list[str]:
    n, m = int(pos[0]), int(pos[1])
    coeffs = results["coefficients"]
    problems = []
    if not all(type(c) is int for c in coeffs):
        return ["coefficients are not all integers"]
    if results["value_at_one"] != math.comb(n, m) or sum(coeffs) != math.comb(n, m):
        problems.append(f"value at q=1 is not C({n},{m})")
    if results["degree"] != m * (n - m) or len(coeffs) != m * (n - m) + 1:
        problems.append(f"degree is not m(n-m) = {m * (n - m)}")
    if coeffs != coeffs[::-1]:
        problems.append("coefficients are not palindromic")
    for q in (2, 3):
        numerator = math.prod(q ** (n - m + i) - 1 for i in range(1, m + 1))
        denominator = math.prod(q**i - 1 for i in range(1, m + 1))
        value = 0
        for c in reversed(coeffs):
            value = value * q + c
        if value * denominator != numerator:
            problems.append(f"value at q={q} differs from the exact product formula")
    return problems


def _qnumber(pos: list[str], flags: dict[str, str], results: dict) -> list[str]:
    n = int(pos[0])
    problems = []
    if results["coefficients"] != [1] * n or results["degree"] != n - 1:
        problems.append(f"coefficients are not those of {{{n}}}_q")
    if results["value_at_one"] != n:
        problems.append(f"value at q=1 is not {n}")
    root = _root(flags)
    if root is not None:
        m, j = root
        if results["vanishes_exactly"] is not ((n * j) % m == 0):
            problems.append("vanishes_exactly disagrees with m | n*j")
        want = sum(cmath.exp(2j * math.pi * j * k / m) for k in range(n))
        got = results["value_at_root"]
        if abs(complex(got["re"], got["im"]) - want) > RESIDUAL_TOL * max(1, n):
            problems.append("value at the root differs from the sum of powers")
    if "real" in flags:
        q = float(flags["real"])
        if not _close(results["value_at_real"], math.fsum(q**k for k in range(n))):
            problems.append("value at real q differs from the sum of powers")
    return problems


def _classify(pos: list[str], flags: dict[str, str], results: dict) -> list[str]:
    m, j = int(pos[0]), int(pos[1])
    g = math.gcd(m, j)
    block_dim = m // g
    want = {
        "primitive": g == 1,
        "reduced_order": m // g,
        "reduced_index": j // g,
        "block_count": g,
        "block_dim": block_dim,
        "blocks": [
            {"first_state": k * block_dim, "last_state": (k + 1) * block_dim - 1}
            for k in range(g)
        ],
    }
    return [f"{key} is not {value}" for key, value in want.items() if results.get(key) != value]


def _ham(pos: list[str], flags: dict[str, str], results: dict) -> list[str]:
    root = _root(flags)
    dim = int(flags["dim"]) if "dim" in flags else root[0]
    diagonal = results["diagonal"]
    problems = []
    if len(diagonal) != dim:
        return [f"diagonal has {len(diagonal)} entries, expected {dim}"]
    for n, got in enumerate(diagonal):
        want = 0.5 * (_abs_qnumber(n, flags) + _abs_qnumber(n + 1, flags))
        if not _close(got, want):
            problems.append(f"diagonal[{n}] = {got}, expected {want}")
            break
    if root is not None:
        g = math.gcd(*root)
        if results.get("block_count") != g or results.get("block_dim") != root[0] // g:
            problems.append(f"blocks are not {g} of dimension {root[0] // g}")
    return problems


def _relation_count(flags: dict[str, str]) -> int:
    root = _root(flags)
    # four products/commutators, two number commutators, and a pair of
    # adjoint (real q) or Biedenharn-MacFarlane (index 1) relations
    return 6 if root is not None and root[1] != 1 else 8


def _verify_count(pos: list[str], flags: dict[str, str]) -> int:
    scope = pos[0]
    max_m = int(flags.get("max-m", 20))
    has_param = "root" in flags or "real" in flags
    count = 0
    if scope in ("brackets", "all"):
        count += 4
    if scope in ("algebra", "all"):
        count += _relation_count(flags) if has_param else max_m * (max_m - 1) // 2
    if scope in ("polychronakos", "all"):
        if has_param:
            count += 4 if "real" in flags else 3
        else:
            count += 4 + 4 + 3  # q=0.5, q=2.0 and the 6:1 root
    return count


def _verify(pos: list[str], flags: dict[str, str], results: dict) -> list[str]:
    if pos[0] in ("algebra", "all") and not ("root" in flags or "real" in flags):
        max_m = int(flags.get("max-m", 20))
        if results.get("algebra_cases") != max_m * (max_m - 1) // 2:
            return ["algebra_cases does not count every root up to --max-m"]
    return []


def _polychronakos(pos: list[str], flags: dict[str, str], results: dict) -> list[str]:
    dim = int(flags.get("dim", 50))
    problems = [] if results.get("dim") == dim else [f"dim is not {dim}"]
    if "real" in flags and results.get("unitary") is not True:
        problems.append("realization is not unitary at real q")
    return problems


ORACLES = {
    "gauss": (_gauss, lambda pos, flags: 0),
    "qnumber": (_qnumber, lambda pos, flags: 0),
    "classify": (_classify, lambda pos, flags: 0),
    "ham": (_ham, None),
    "verify": (_verify, _verify_count),
    "polychronakos": (_polychronakos, lambda pos, flags: 4 if "real" in flags else 3),
}

# Results the README states for its example commands.
README_RESULTS: dict[tuple[str, ...], dict[str, Any]] = {
    ("gauss", "4", "2"): {"coefficients": [1, 1, 2, 1, 1], "degree": 4, "value_at_one": 6},
    ("qnumber", "6", "--root", "6:1"): {"vanishes_exactly": True},
    ("classify", "6", "2"): {"primitive": False, "block_count": 2, "block_dim": 3},
    ("ham", "--root", "6:3"): {"diagonal": [0.5] * 6, "block_count": 3, "block_dim": 2},
    ("ham", "--real", "1.0", "--dim", "3"): {"diagonal": [0.5, 1.5, 2.5]},
}


def expects_usage_error(argv: tuple[str, ...]) -> bool:
    return tuple(argv) in EDGE_COMMANDS


def _usage_error(code: int, out: str, err: str) -> list[str]:
    problems = []
    if code != 2:
        problems.append(f"exit code {code}, expected usage error 2")
    if out.strip():
        problems.append("usage error printed a report on stdout")
    if sum("error" in line for line in err.splitlines()) != 1:
        problems.append("stderr does not hold exactly one error line")
    return problems


def check(argv: tuple[str, ...], code: int, out: str, err: str) -> list[str]:
    """Problems with one command's outcome; an empty list means it is correct."""
    argv = tuple(argv)
    problems = ["traceback on stderr"] if TRACEBACK in err else []
    if expects_usage_error(argv):
        return problems + _usage_error(code, out, err)
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    try:
        report = strict_json(out)
    except ValueError as exc:
        return problems + [f"stdout is not strict JSON: {exc}"]
    if not isinstance(report, dict) or report.get("command") != argv[0]:
        return problems + [f"stdout is not a {argv[0]} report"]
    pos, flags = _options(argv[1:])
    oracle, count = ORACLES[argv[0]]
    results = report.get("results", {})
    try:
        problems += oracle(pos, flags, results)
    except (KeyError, TypeError, IndexError) as exc:
        problems.append(f"results lack an expected entry: {exc!r}")
    problems += _checks(report, count(pos, flags) if count else None)
    for key, value in README_RESULTS.get(argv, {}).items():
        if results.get(key) != value:
            problems.append(f"README states {key} = {value}")
    return problems
