"""Command-line front end.

Subcommands: gauss, qnumber, classify, ham, verify, polychronakos.
Exit codes: 0 success, 1 failed verification check, 2 usage error,
3 internal-consistency fault (a ham self-check exceeded tolerance),
141 stdout closed before the report was written.
Reports go to stdout as JSON (default) or a flat table; diagnostics to stderr.

Only `report` is imported with this module.  Each handler imports the layers
it calls when it runs, so a command loads the layers it executes and no
other.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .report import check_entry, envelope, render_json, render_table

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

    from .hamiltonian import SpectrumReport
    from .ladder import QNumbers
    from .roots import DeformParam, RealQ, RootOfUnity

    # a handler's report: inputs, results and checks
    Checks = list[dict[str, Any]]
    Report = tuple[dict[str, Any], dict[str, Any], Checks]

DEFAULT_TOLERANCE = 1e-10

# Dimension cap, checked before any vector of that length exists: every check is
# O(dim); at this cap ham writes 11 to 26 MB of JSON and verify all takes about 6 s.
MAX_VECTOR_DIM = 1_000_000
# gauss n m renders about n**2 / 4 big-int coefficients: about 2 s and 7 MB
# of JSON at this cap.  qnumber n renders n ones, so it shares the vector cap.
MAX_GAUSS_N = 500
# classify and ham list one entry per block, gcd(m, j) of them: about 7.6 MB
# of JSON at this cap, checked before the decomposition is built.
MAX_BLOCKS = 100_000
# verify --max-m: the sweeps cost O(max_m**3) entries; at this cap, on a 2-vCPU
# VM, verify brackets takes about 1 s, verify algebra 5 to 7 s and verify all
# 6 to 8 s, as the host's load varies, and the algebra sweep writes about 5 MB
# of JSON.
MAX_SWEEP_ORDER = 300
# Per check family: the --dim a real q gets by default, then the least dimension.
DIM_RULES: dict[str, tuple[int | None, int]] = {
    "ham": (None, 1),
    "algebra": (20, 2),
    "realization": (50, 2),
}


def __getattr__(name: str) -> Any:
    """A public name of the package read through this module, such as
    ``cli.verify_relations``, is the layer's own object.  The handlers never
    read these names here, so a fault is patched where its layer defines it."""
    package = sys.modules[__package__]
    if name in package.__all__:
        return getattr(package, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    """Semantic argument problem; mapped to exit code 2."""


def _root_spec(text: str) -> RootOfUnity:
    from .roots import RootOfUnity

    try:
        order_text, index_text = text.split(":")
        order, index = int(order_text), int(index_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected m:j with integers, got {text!r}")
    try:
        return RootOfUnity(order, index)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _real_spec(text: str) -> RealQ:
    from .roots import RealQ

    try:
        return RealQ(_finite_float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_param_flags(parser: argparse.ArgumentParser, dim: bool = True) -> None:
    parser.add_argument("--root", type=_root_spec, metavar="m:j")
    parser.add_argument("--real", type=_real_spec, metavar="q")
    if dim:
        parser.add_argument("--dim", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdeform",
        description="Gauss-polynomial calculus and the q-deformed oscillator it generates",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gauss", help="q-binomial coefficients")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(handler=_cmd_gauss)

    p = sub.add_parser("qnumber", help="deformed integer {n}_q")
    p.add_argument("n", type=int)
    _add_param_flags(p, dim=False)
    p.set_defaults(handler=_cmd_qnumber)

    p = sub.add_parser("classify", help="representation class of a root of unity")
    p.add_argument("m", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("ham", help="deformed oscillator Hamiltonian and its blocks")
    _add_param_flags(p)
    p.set_defaults(handler=_cmd_ham)

    p = sub.add_parser("verify", help="run identity/algebra verification sweeps")
    p.add_argument("scope", choices=("algebra", "brackets", "polychronakos", "all"))
    p.add_argument("--max-m", type=int, default=20, dest="max_m")
    _add_param_flags(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("polychronakos", help="scaling-function realization checks")
    _add_param_flags(p)
    p.set_defaults(handler=_cmd_polychronakos)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--tolerance", type=_finite_float, default=DEFAULT_TOLERANCE)
    return parser


def _label(param: DeformParam) -> str:
    from .roots import RootOfUnity

    if isinstance(param, RootOfUnity):
        return f"{param.order}:{param.index}"
    return f"q={param.value}"


def _param_inputs(args: argparse.Namespace, **after: Any) -> dict[str, Any]:
    """--root, --real and --dim as given, followed by `after`."""
    inputs: dict[str, Any] = {}
    if args.root is not None:
        inputs["root"] = _label(args.root)
    if args.real is not None:
        inputs["real"] = args.real.value
    if getattr(args, "dim", None) is not None:
        inputs["dim"] = args.dim
    return {**inputs, **after}


def _resolve_param(
    args: argparse.Namespace, family: str, built: QNumbers | None = None
) -> QNumbers:
    """The q-numbers of the one parameter at the dimension the checks of
    `family` run at; `built` is reused when it has both, so each is built once."""
    from .ladder import q_numbers

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


def _below(name: str, value: float, tolerance: float) -> dict[str, Any]:
    return check_entry(name, value <= tolerance, value)


def _bracket_checks(residuals: dict[str, float], tolerance: float) -> Checks:
    return [_below(f"brackets_{name}", value, tolerance) for name, value in residuals.items()]


def _relation_checks(numbers: QNumbers, tolerance: float) -> Checks:
    from .ladder import verify_relations

    residuals = verify_relations(numbers)
    return [_below(f"algebra_{r.relation}", r.max_abs_residual, tolerance) for r in residuals]


def _root_sweep_checks(max_m: int, tolerance: float) -> Checks:
    """The worst relation residual at each root up to order max_m, at dim = order."""
    from .ladder import verify_order_relations

    checks = []
    for m in range(2, max_m + 1):
        for j, residuals in enumerate(verify_order_relations(m), start=1):
            worst = max(r.max_abs_residual for r in residuals)
            checks.append(_below(f"algebra_root_{m}:{j}", worst, tolerance))
    return checks


def _realization_checks(numbers: QNumbers, tolerance: float) -> tuple[Checks, bool]:
    """The realization checks (unitarity listed for real q only) and whether it is unitary."""
    from .realization import UNITARITY_TOL, verify_realization
    from .roots import RealQ

    label = _label(numbers.param)
    report = verify_realization(numbers)
    checks = [
        _below(f"realization_matches_direct[{label}]", report.direct_mismatch, tolerance),
        _below(f"scaling_recurrence[{label}]", report.max_recurrence_residual, tolerance),
        _below(f"scaling_product_is_qnumber[{label}]", report.max_qnumber_mismatch, tolerance),
    ]
    if isinstance(numbers.param, RealQ):
        checks.append(_below(f"unitary_for_real_q[{label}]", report.unitarity_gap, UNITARITY_TOL))
    return checks, report.unitary


def _ham_checks(numbers: QNumbers, report: SpectrumReport, tolerance: float) -> Checks:
    from .reducibility import verify_invariant_subspaces

    param, dim = report.param, report.dim
    checks = [
        _below("three_constructions_agree", report.equivalence_gap, tolerance),
    ]
    if report.blocks is not None:
        verdict, gap = report.block_pattern_verified, report.block_pattern_gap
        checks.append(check_entry("block_pattern_repeats", verdict, gap))
        if dim == param.order:
            subspaces = verify_invariant_subspaces(numbers, report.blocks)
            boundary = subspaces.max_boundary_amplitude
            checks.append(check_entry("blocks_are_invariant", subspaces.ok, boundary))
    return checks


def _block_results(decomposition) -> dict[str, Any]:
    return {
        "block_count": decomposition.block_count,
        "block_dim": decomposition.block_dim,
        "blocks": [{"first_state": b[0], "last_state": b[-1]} for b in decomposition.blocks],
    }


def _polynomial_results(poly) -> dict[str, Any]:
    return {"coefficients": list(poly.coeffs), "degree": poly.degree, "value_at_one": poly(1)}


def _check_n(n: int, cap: int) -> None:
    if n < 0:
        raise UsageError(f"n must be nonnegative, got {n}")
    if n > cap:
        raise UsageError(f"n must be at most {cap}, got {n}")


def _check_block_count(root: RootOfUnity) -> None:
    blocks = math.gcd(root.order, root.index)
    if blocks > MAX_BLOCKS:
        raise UsageError(
            f"at most {MAX_BLOCKS} blocks are listed, but root {_label(root)} has {blocks}"
        )


def _cmd_gauss(args: argparse.Namespace) -> Report:
    from .gauss import gauss_binomial

    _check_n(args.n, MAX_GAUSS_N)
    return {"n": args.n, "m": args.m}, _polynomial_results(gauss_binomial(args.n, args.m)), []


def _cmd_qnumber(args: argparse.Namespace) -> Report:
    from .gauss import q_number

    _check_n(args.n, MAX_VECTOR_DIM)
    poly = q_number(args.n)
    results = _polynomial_results(poly)
    if args.root is not None:
        from .roots import eval_at_root, q_number_is_zero

        value = eval_at_root(poly, args.root)
        results["value_at_root"] = {"re": value.real, "im": value.imag}
        results["vanishes_exactly"] = q_number_is_zero(args.n, args.root)
    if args.real is not None:
        value = float(poly(args.real.value))
        if not math.isfinite(value):
            raise UsageError(f"{{{args.n}}}_q at --real {args.real.value} overflows float64")
        results["value_at_real"] = value
    return {"n": args.n, **_param_inputs(args)}, results, []


def _cmd_classify(args: argparse.Namespace) -> Report:
    from .reducibility import Reducible, classify, decompose
    from .roots import RootOfUnity

    try:
        root = RootOfUnity(args.m, args.j)
    except ValueError as exc:
        raise UsageError(str(exc))
    _check_block_count(root)
    reduced_order, reduced_index = root.canonical_reduce()
    rep = classify(root)
    results = {
        "primitive": root.is_primitive,
        "classification": rep.label,
        "reduced_order": reduced_order,
        "reduced_index": reduced_index,
        **_block_results(rep.decomposition if isinstance(rep, Reducible) else decompose(root)),
    }
    return {"m": args.m, "j": args.j}, results, []


def _cmd_ham(args: argparse.Namespace) -> Report:
    from .hamiltonian import spectrum_report

    numbers = _resolve_param(args, "ham")
    report = spectrum_report(numbers)
    results: dict[str, Any] = {
        "energy_unit": report.energy_unit,
        "dim": report.dim,
        "diagonal": list(report.diagonal),
    }
    if report.blocks is not None:
        results.update(primitive=numbers.param.is_primitive, **_block_results(report.blocks))
    checks = _ham_checks(numbers, report, args.tolerance)
    return _param_inputs(args, tolerance=args.tolerance), results, checks


def _cmd_polychronakos(args: argparse.Namespace) -> Report:
    numbers = _resolve_param(args, "realization")
    checks, unitary = _realization_checks(numbers, args.tolerance)
    results = {"unitary": unitary, "dim": numbers.dim}
    return _param_inputs(args, tolerance=args.tolerance), results, checks


def _cmd_verify(args: argparse.Namespace) -> Report:
    from .roots import verify_bracket_relations

    if args.max_m < 2:
        raise UsageError(f"--max-m must be at least 2, got {args.max_m}")
    if args.max_m > MAX_SWEEP_ORDER:
        raise UsageError(f"--max-m must be at most {MAX_SWEEP_ORDER}, got {args.max_m}")
    scopes = ("brackets", "algebra", "polychronakos") if args.scope == "all" else (args.scope,)
    given = args.root is not None or args.real is not None
    if args.scope == "brackets" and (given or args.dim is not None):
        raise UsageError("verify brackets reads none of --root, --real or --dim")
    if args.dim is not None and not given:
        raise UsageError("--dim needs --root m:j or --real q")
    # every parameter is resolved before the first sweep, so a usage error comes at once
    algebra = _resolve_param(args, "algebra") if given and "algebra" in scopes else None
    if given and "polychronakos" in scopes:
        realization = _resolve_param(args, "realization", built=algebra)
    results: dict[str, Any] = {}
    checks: Checks = []
    if "brackets" in scopes:
        results["bracket_residuals"] = verify_bracket_relations(args.max_m)
        checks += _bracket_checks(results["bracket_residuals"], args.tolerance)
    if "algebra" in scopes:
        if algebra is not None:
            results["algebra_dim"] = algebra.dim
            checks += _relation_checks(algebra, args.tolerance)
        else:
            sweep = _root_sweep_checks(args.max_m, args.tolerance)
            results["algebra_cases"] = len(sweep)
            checks += sweep
    if "polychronakos" in scopes:
        if given:
            results["realization_dim"] = realization.dim
            suite = [realization]
        else:
            from .ladder import q_numbers
            from .roots import RealQ, RootOfUnity

            suite = [q_numbers(RealQ(0.5), 40), q_numbers(RealQ(2.0), 40),
                     q_numbers(RootOfUnity(6, 1), 6)]
        for numbers in suite:
            checks += _realization_checks(numbers, args.tolerance)[0]
    inputs = _param_inputs(args, tolerance=args.tolerance, scope=args.scope)
    if "brackets" in scopes or ("algebra" in scopes and not given):
        inputs["max_m"] = args.max_m  # echoed only where a sweep reads it
    return inputs, results, checks


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inputs, results, checks = args.handler(args)
    except UsageError as exc:
        print(f"qdeform: error: {exc}", file=sys.stderr)
        return 2
    env = envelope(args.subcommand, inputs, results, checks, __version__)
    try:
        print(render_json(env) if args.format == "json" else render_table(env))
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
    except BrokenPipeError:
        # send what is still buffered to devnull, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # what a shell reports after SIGPIPE
    if all(c["passed"] for c in checks):
        return 0
    return 3 if args.subcommand == "ham" else 1


if __name__ == "__main__":
    raise SystemExit(main())
