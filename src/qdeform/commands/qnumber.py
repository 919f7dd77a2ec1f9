"""qnumber n: the deformed integer {n}_q, and its value at --root or --real."""

from __future__ import annotations

import math

from . import MAX_VECTOR_DIM, UsageError, _check_n, _param_inputs, _polynomial_results

TYPE_CHECKING = False
if TYPE_CHECKING:
    from ..cli import Args
    from . import Report


def handle(args: Args) -> Report:
    from ..gauss import q_number

    _check_n(args.n, MAX_VECTOR_DIM)
    results = _polynomial_results(q_number(args.n))
    if args.root is not None:
        from ..roots import q_number_is_zero, q_number_value

        value = q_number_value(args.n, args.root)
        results["value_at_root"] = {"re": value.real, "im": value.imag}
        results["vanishes_exactly"] = q_number_is_zero(args.n, args.root)
    if args.real is not None:
        from ..roots import q_number_value

        value = q_number_value(args.n, args.real)
        if not math.isfinite(value):
            raise UsageError(f"{{{args.n}}}_q at --real {args.real.value} overflows float64")
        results["value_at_real"] = value
    return {"n": args.n, **_param_inputs(args)}, results, []
