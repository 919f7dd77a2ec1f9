"""polychronakos: the scaling-function realization checks at one parameter."""

from __future__ import annotations

from . import _param_inputs, _realization_checks, _resolve_param

TYPE_CHECKING = False
if TYPE_CHECKING:
    from ..cli import Args
    from . import Report


def handle(args: Args) -> Report:
    numbers = _resolve_param(args, "realization")
    checks, unitary = _realization_checks(numbers, args.tolerance)
    results = {"unitary": unitary, "dim": numbers.dim}
    return _param_inputs(args, tolerance=args.tolerance), results, checks
