"""The subcommands' handlers, one module each, loaded by `qdeform.cli` for
the command it runs, so a command compiles only its own handler; and what cli
and the handlers share.

Each handler module has one `handle(args)` that returns the report (inputs,
results, checks) or raises UsageError.  This package holds UsageError, the
caps each handler checks before it builds anything of that size, and the
helpers several handlers call.  A handler never imports `qdeform.cli`: run as
``python -m qdeform.cli``, that module is ``__main__``, and importing it would
compile and run it a second time, with a UsageError of another class.

Each check family hands its handler one {check: residual} dict, and one
builder, `_checks`, makes every report entry: a check passes when its residual
is at most --tolerance, or at most its own fixed bound where it has one
(block_pattern_repeats and unitary_for_real_q at 1e-12, blocks_are_invariant,
a misplaced-transition count, inf at a non-finite amplitude, at 0).  An inf
residual fails; it and any non-finite ham energy print as null (`_json_float`).
Each helper imports the layers it calls when it runs.
"""

from __future__ import annotations

import math

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

    from ..cli import Args
    from ..ladder import QNumbers
    from ..roots import DeformParam, RootOfUnity

    # a handler's report: inputs, results and checks
    Checks = list[dict[str, Any]]
    Report = tuple[dict[str, Any], dict[str, Any], Checks]


class UsageError(Exception):
    """Argument problem, in the grammar or in a handler; mapped to exit code 2."""


# Dimension cap, checked before any vector of that length exists: every check is
# O(dim); at this cap ham writes 11 to 26 MB of JSON and verify all takes about 6 s.
MAX_VECTOR_DIM = 1_000_000
# gauss n m renders about n**2 / 4 big-int coefficients: about 2 s and 7 MB
# of JSON at this cap.  qnumber n renders n ones, so it shares the vector cap.
MAX_GAUSS_N = 500
# classify and ham list one entry per block, gcd(m, j) of them: about 7.6 MB
# of JSON at this cap, checked before the decomposition is built.
MAX_BLOCKS = 100_000
# verify --max-m: the sweeps cost O(max_m**3) entries; at this cap, as
# subprocesses on a 2-vCPU Intel Xeon VM with Python 3.11.7, verify brackets
# takes about 0.35 s, verify algebra about 2.2 s and verify all about 2.5 s,
# and the algebra sweep writes about 5 MB of JSON.
MAX_SWEEP_ORDER = 300
# Per check family: the --dim a real q gets by default, then the least dimension.
DIM_RULES: dict[str, tuple[int | None, int]] = {
    "ham": (None, 1),
    "algebra": (20, 2),
    "realization": (50, 2),
}


def _label(param: DeformParam) -> str:
    from ..roots import RootOfUnity

    if isinstance(param, RootOfUnity):
        return f"{param.order}:{param.index}"
    return f"q={param.value}"


def _param_inputs(args: Args, **after: Any) -> dict[str, Any]:
    """--root, --real and --dim as given, followed by `after`."""
    inputs: dict[str, Any] = {}
    if args.root is not None:
        inputs["root"] = _label(args.root)
    if args.real is not None:
        inputs["real"] = args.real.value
    if getattr(args, "dim", None) is not None:
        inputs["dim"] = args.dim
    return {**inputs, **after}


def _resolve_param(args: Args, family: str, built: QNumbers | None = None) -> QNumbers:
    """The q-numbers of the one parameter at the dimension the checks of
    `family` run at; `built` is reused when it has both, so each is built once."""
    from ..ladder import q_numbers

    default_real_dim, min_dim = DIM_RULES[family]
    root, real = args.root, args.real
    if (root is None) == (real is None):
        raise UsageError("exactly one of --root m:j or --real q is required")
    dim = args.dim
    if dim is None:
        dim = root.order if root is not None else default_real_dim
        if dim is None:
            raise UsageError("--real requires --dim")
    if dim < 1:
        raise UsageError(f"--dim must be positive, got {dim}")
    if dim < min_dim:
        raise UsageError(f"{family} checks need --dim of at least {min_dim}")
    if dim > MAX_VECTOR_DIM:
        raise UsageError(
            f"{family} checks allow a dimension of at most {MAX_VECTOR_DIM}, got {dim}"
        )
    if root is not None and family == "ham":
        _check_block_count(root)  # ham lists every block
    param = root if root is not None else real
    if built is not None and (built.param, built.dim) == (param, dim):
        return built
    try:
        return q_numbers(param, dim)
    except OverflowError as exc:  # a real q's {dim+1}_q, refused before any check runs
        raise UsageError(f"--real {real.value} with --dim {dim} overflows float64: {exc}")


def _json_float(value: float) -> float | None:
    """value as a float JSON can carry: None (null) where it is not finite."""
    return float(value) if math.isfinite(value) else None


def _checks(residuals: dict[str, float], tolerance: float, name: str = "{}",
            bounds: dict[str, float] | None = None) -> Checks:
    """One entry per check of a {check: residual} dict, named name.format(check),
    in the dict's order, passed when the residual is at most its fixed bound in
    `bounds`, else at most `tolerance`; an inf one fails, written None (null)."""
    bounds = bounds or {}
    return [
        {"name": name.format(check), "passed": value <= bounds.get(check, tolerance),
         "max_residual": _json_float(value)}
        for check, value in residuals.items()
    ]


def _realization_checks(numbers: QNumbers, tolerance: float) -> tuple[Checks, bool]:
    """The realization checks of `numbers`, named with its label, and whether
    it is unitary; unitarity, judged by its own fixed bound, is listed for real
    q only."""
    from ..realization import UNITARITY_TOL, verify_realization
    from ..roots import RealQ

    residuals = verify_realization(numbers)  # unitary_for_real_q comes last
    name = f"{{}}[{_label(numbers.param)}]"
    *checks, unitary = _checks(residuals, tolerance, name, {"unitary_for_real_q": UNITARITY_TOL})
    if isinstance(numbers.param, RealQ):
        checks.append(unitary)
    return checks, unitary["passed"]


def _block_results(decomposition) -> dict[str, Any]:
    return {
        "block_count": decomposition.block_count,
        "block_dim": decomposition.block_dim,
        "blocks": [{"first_state": b[0], "last_state": b[-1]} for b in decomposition.blocks],
    }


def _polynomial_results(poly) -> dict[str, Any]:
    return {"coefficients": poly.coeffs, "degree": poly.degree, "value_at_one": poly(1)}


def _check_n(n: int, cap: int) -> None:
    if n < 0:
        raise UsageError(f"n must be nonnegative, got {n}")
    if n > cap:
        raise UsageError(f"n must be at most {cap}, got {n}")


def _check_block_count(root: RootOfUnity) -> None:
    blocks = root.block_count
    if blocks > MAX_BLOCKS:
        raise UsageError(
            f"at most {MAX_BLOCKS} blocks are listed, but root {_label(root)} has {blocks}"
        )
