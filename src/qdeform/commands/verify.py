"""verify {algebra,brackets,polychronakos,all}: the algebra's relations at one
parameter or swept over the roots, the bracket sweep and the realization
checks.  Each sweep's module is imported only for the scope that runs it."""

from __future__ import annotations

from . import MAX_SWEEP_ORDER, UsageError, _checks, _param_inputs, _realization_checks, _resolve_param

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

    from ..cli import Args
    from . import Checks, Report


def handle(args: Args) -> Report:
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
        from ..brackets import verify_bracket_relations

        brackets = _checks(verify_bracket_relations(args.max_m), args.tolerance)
        results["bracket_residuals"] = {c["name"]: c["max_residual"] for c in brackets}  # null where inf
        checks += ({**c, "name": f"brackets_{c['name']}"} for c in brackets)
    if "algebra" in scopes:
        if algebra is not None:
            from ..relations import verify_relations

            results["algebra_dim"] = algebra.dim
            checks += _checks(verify_relations(algebra), args.tolerance, "algebra_{}")
        else:
            from ..relations import verify_root_relations

            # the worst relation residual at each root up to order max_m, at dim = order
            # listed in (m, j) order; a root the sweep missed would stay None and raise
            worst = dict.fromkeys(f"{m}:{j}" for m in range(2, args.max_m + 1) for j in range(1, m))
            for (m, j), row in verify_root_relations(args.max_m):
                worst[f"{m}:{j}"] = max(row.values())
            results["algebra_cases"] = len(worst)
            checks += _checks(worst, args.tolerance, "algebra_root_{}")
    if "polychronakos" in scopes:
        if given:
            results["realization_dim"] = realization.dim
            suite = [realization]
        else:
            from ..ladder import q_numbers
            from ..roots import RealQ, RootOfUnity

            suite = [q_numbers(RealQ(0.5), 40), q_numbers(RealQ(2.0), 40),
                     q_numbers(RootOfUnity(6, 1), 6)]
        for numbers in suite:
            checks += _realization_checks(numbers, args.tolerance)[0]
    inputs = _param_inputs(args, tolerance=args.tolerance, scope=args.scope)
    if "brackets" in scopes or ("algebra" in scopes and not given):
        inputs["max_m"] = args.max_m  # echoed only where a sweep reads it
    return inputs, results, checks
