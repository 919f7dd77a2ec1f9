"""Command-line front end.

Subcommands: gauss, qnumber, classify, ham, verify, polychronakos.
Exit codes: 0 success, 1 failed verification check, 2 usage error,
3 internal-consistency fault (a ham self-check exceeded tolerance).
Reports go to stdout as JSON (default) or a flat table; diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any

from . import __version__
from .gauss import gauss_binomial, q_number
from .hamiltonian import (
    eigensolver_agreement,
    hamiltonian_equivalence_check,
    spectrum_report,
)
from .ladder import verify_relations
from .realization import (
    UNITARITY_TOL, realization_mismatch, unitarity_mismatch, verify_scaling_recurrence
)
from .reducibility import decompose, verify_invariant_subspaces
from .report import check_entry, envelope, render_json, render_table
from .roots import (
    DeformParam,
    RealQ,
    RootOfUnity,
    eval_at_root,
    q_number_is_zero,
    q_number_value,
    verify_bracket_relations,
)

DEFAULT_TOLERANCE = 1e-10


class UsageError(Exception):
    """Semantic argument problem; mapped to exit code 2."""


def _root_spec(text: str) -> RootOfUnity:
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
    try:
        return RealQ(_finite_float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--tolerance", type=_finite_float, default=DEFAULT_TOLERANCE)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--root", type=_root_spec, metavar="m:j")
    parser.add_argument("--real", type=_real_spec, metavar="q")
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
    _add_common(p)
    p.set_defaults(handler=_cmd_gauss)

    p = sub.add_parser("qnumber", help="deformed integer {n}_q")
    p.add_argument("n", type=int)
    p.add_argument("--root", type=_root_spec, metavar="m:j")
    p.add_argument("--real", type=_real_spec, metavar="q")
    _add_common(p)
    p.set_defaults(handler=_cmd_qnumber)

    p = sub.add_parser("classify", help="representation class of a root of unity")
    p.add_argument("m", type=int)
    p.add_argument("j", type=int)
    _add_common(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("ham", help="deformed oscillator Hamiltonian and its blocks")
    _add_param_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_ham)

    p = sub.add_parser("verify", help="run identity/algebra verification sweeps")
    p.add_argument("scope", choices=("algebra", "brackets", "polychronakos", "all"))
    p.add_argument("--max-m", type=int, default=20, dest="max_m")
    _add_param_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("polychronakos", help="scaling-function realization checks")
    _add_param_flags(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_polychronakos)

    return parser


def _emit(env: dict[str, Any], fmt: str) -> None:
    if fmt == "json":
        print(render_json(env))
    else:
        print(render_table(env))


def _param_inputs(args: argparse.Namespace) -> dict[str, Any]:
    inputs: dict[str, Any] = {}
    if getattr(args, "root", None) is not None:
        inputs["root"] = f"{args.root.order}:{args.root.index}"
    if getattr(args, "real", None) is not None:
        inputs["real"] = args.real.value
    if getattr(args, "dim", None) is not None:
        inputs["dim"] = args.dim
    inputs["tolerance"] = args.tolerance
    return inputs


def _resolve_param(args: argparse.Namespace, default_real_dim: int | None = None) -> tuple[DeformParam, int]:
    root, real = args.root, args.real
    if (root is None) == (real is None):
        raise UsageError("exactly one of --root m:j or --real q is required")
    if root is not None:
        dim = args.dim if args.dim is not None else root.order
    else:
        dim = args.dim if args.dim is not None else default_real_dim
        if dim is None:
            raise UsageError("--real requires --dim")
    if dim < 1:
        raise UsageError(f"--dim must be positive, got {dim}")
    # every check reads {n}_q up to n = dim + 1 (the scaling recurrence)
    if real is not None and not math.isfinite(q_number_value(dim + 1, real)):
        overflow = f"{{{dim + 1}}}_q is not finite"
        raise UsageError(f"--real {real.value} with --dim {dim} overflows float64: {overflow}")
    return (root if root is not None else real), dim


def _block_list(decomposition) -> list[dict[str, int]]:
    return [
        {"first_state": b[0], "last_state": b[-1]} for b in decomposition.blocks
    ]


def _cmd_gauss(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise UsageError(f"n must be nonnegative, got {args.n}")
    poly = gauss_binomial(args.n, args.m)
    env = envelope(
        "gauss",
        {"n": args.n, "m": args.m},
        {
            "coefficients": list(poly.coeffs),
            "degree": poly.degree,
            "value_at_one": poly(1),
        },
        [],
        __version__,
    )
    _emit(env, args.format)
    return 0


def _cmd_qnumber(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise UsageError(f"n must be nonnegative, got {args.n}")
    poly = q_number(args.n)
    results: dict[str, Any] = {
        "coefficients": list(poly.coeffs),
        "degree": poly.degree,
        "value_at_one": poly(1),
    }
    inputs: dict[str, Any] = {"n": args.n}
    if args.root is not None:
        inputs["root"] = f"{args.root.order}:{args.root.index}"
        value = eval_at_root(poly, args.root)
        results["value_at_root"] = {"re": value.real, "im": value.imag}
        results["vanishes_exactly"] = q_number_is_zero(args.n, args.root)
    if args.real is not None:
        inputs["real"] = args.real.value
        value = float(poly(args.real.value))
        if not math.isfinite(value):
            raise UsageError(f"{{{args.n}}}_q at --real {args.real.value} overflows float64")
        results["value_at_real"] = value
    env = envelope("qnumber", inputs, results, [], __version__)
    _emit(env, args.format)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    try:
        root = RootOfUnity(args.m, args.j)
    except ValueError as exc:
        raise UsageError(str(exc))
    decomposition = decompose(root)
    reduced_order, reduced_index = root.canonical_reduce()
    env = envelope(
        "classify",
        {"m": args.m, "j": args.j},
        {
            "primitive": root.is_primitive,
            "classification": "irreducible_finite" if root.is_primitive else "reducible",
            "reduced_order": reduced_order,
            "reduced_index": reduced_index,
            "block_count": decomposition.block_count,
            "block_dim": decomposition.block_dim,
            "blocks": _block_list(decomposition),
        },
        [],
        __version__,
    )
    _emit(env, args.format)
    return 0


def _cmd_ham(args: argparse.Namespace) -> int:
    param, dim = _resolve_param(args)
    report = spectrum_report(param, dim)
    equivalence = hamiltonian_equivalence_check(param, dim)
    eigen_gap = eigensolver_agreement(param, dim)
    checks = [
        check_entry("three_constructions_agree", equivalence <= args.tolerance, equivalence),
        check_entry("eigensolver_agrees", eigen_gap <= args.tolerance, eigen_gap),
    ]
    results: dict[str, Any] = {
        "energy_unit": report.energy_unit,
        "dim": report.dim,
        "diagonal": list(report.diagonal),
    }
    if isinstance(param, RootOfUnity):
        blocks = report.blocks
        assert blocks is not None
        results["primitive"] = param.is_primitive
        results["block_count"] = blocks.block_count
        results["block_dim"] = blocks.block_dim
        results["blocks"] = _block_list(blocks)
        pattern_gap = max(
            abs(report.diagonal[n] - report.diagonal[n % blocks.block_dim])
            for n in range(dim)
        )
        checks.append(
            check_entry("block_pattern_repeats", report.block_pattern_verified, pattern_gap)
        )
        if dim == param.order:
            subspaces = verify_invariant_subspaces(param, decompose(param))
            boundary = subspaces.max_boundary_amplitude
            checks.append(check_entry("blocks_are_invariant", subspaces.ok, boundary))
    env = envelope("ham", _param_inputs(args), results, checks, __version__)
    _emit(env, args.format)
    return 0 if all(c["passed"] for c in checks) else 3


def _polychronakos_checks(
    label: str, param: DeformParam, dim: int, tolerance: float
) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    gap = realization_mismatch(param, dim)
    recurrence = verify_scaling_recurrence(param, dim)
    unitarity_gap = unitarity_mismatch(param, dim)
    unitary = unitarity_gap <= UNITARITY_TOL
    checks = [
        check_entry(f"realization_matches_direct[{label}]", gap <= tolerance, gap),
        check_entry(
            f"scaling_recurrence[{label}]",
            recurrence.max_recurrence_residual <= tolerance,
            recurrence.max_recurrence_residual,
        ),
        check_entry(
            f"scaling_product_is_qnumber[{label}]",
            recurrence.max_qnumber_mismatch <= tolerance,
            recurrence.max_qnumber_mismatch,
        ),
    ]
    if isinstance(param, RealQ):
        checks.append(check_entry(f"unitary_for_real_q[{label}]", unitary, unitarity_gap))
    results = {"unitary": unitary, "dim": dim}
    return checks, results


def _cmd_polychronakos(args: argparse.Namespace) -> int:
    param, dim = _resolve_param(args, default_real_dim=50)
    if dim < 2:
        raise UsageError("realization checks need --dim of at least 2")
    label = (
        f"{param.order}:{param.index}" if isinstance(param, RootOfUnity) else f"q={param.value}"
    )
    checks, results = _polychronakos_checks(label, param, dim, args.tolerance)
    env = envelope("polychronakos", _param_inputs(args), results, checks, __version__)
    _emit(env, args.format)
    return 0 if all(c["passed"] for c in checks) else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_m < 2:
        raise UsageError(f"--max-m must be at least 2, got {args.max_m}")
    checks: list[dict[str, Any]] = []
    results: dict[str, Any] = {}
    inputs = _param_inputs(args)
    inputs["scope"] = args.scope
    inputs["max_m"] = args.max_m

    if args.scope in ("brackets", "all"):
        residuals = verify_bracket_relations(args.max_m)
        results["bracket_residuals"] = residuals
        for name, value in residuals.items():
            checks.append(check_entry(f"brackets_{name}", value <= args.tolerance, value))

    if args.scope in ("algebra", "all"):
        if args.root is not None or args.real is not None:
            param, dim = _resolve_param(args, default_real_dim=20)
            if dim < 2:
                raise UsageError("algebra checks need --dim of at least 2")
            for residual in verify_relations(param, dim):
                checks.append(
                    check_entry(
                        f"algebra_{residual.relation}",
                        residual.max_abs_residual <= args.tolerance,
                        residual.max_abs_residual,
                    )
                )
        else:
            cases = 0
            for order in range(2, args.max_m + 1):
                for index in range(1, order):
                    root = RootOfUnity(order, index)
                    worst = max(
                        r.max_abs_residual for r in verify_relations(root, order)
                    )
                    checks.append(
                        check_entry(f"algebra_root_{order}:{index}", worst <= args.tolerance, worst)
                    )
                    cases += 1
            results["algebra_cases"] = cases

    if args.scope in ("polychronakos", "all"):
        if args.root is not None or args.real is not None:
            param, dim = _resolve_param(args, default_real_dim=50)
            label = (
                f"{param.order}:{param.index}"
                if isinstance(param, RootOfUnity)
                else f"q={param.value}"
            )
            suite = [(label, param, dim)]
        else:
            suite = [
                ("q=0.5", RealQ(0.5), 40),
                ("q=2.0", RealQ(2.0), 40),
                ("6:1", RootOfUnity(6, 1), 6),
            ]
        for label, param, dim in suite:
            case_checks, _ = _polychronakos_checks(label, param, dim, args.tolerance)
            checks.extend(case_checks)

    env = envelope("verify", inputs, results, checks, __version__)
    _emit(env, args.format)
    return 0 if all(c["passed"] for c in checks) else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"qdeform: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
