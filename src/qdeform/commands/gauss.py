"""gauss n m: the coefficients of the Gauss polynomial [n choose m]_q."""

from __future__ import annotations

from . import MAX_GAUSS_N, _check_n, _polynomial_results

TYPE_CHECKING = False
if TYPE_CHECKING:
    from ..cli import Args
    from . import Report


def handle(args: Args) -> Report:
    from ..gauss import gauss_binomial

    _check_n(args.n, MAX_GAUSS_N)
    return {"n": args.n, "m": args.m}, _polynomial_results(gauss_binomial(args.n, args.m)), []
