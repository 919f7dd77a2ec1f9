"""classify m j: the representation class of the root of unity m:j."""

from __future__ import annotations

from . import UsageError, _block_results, _check_block_count

TYPE_CHECKING = False
if TYPE_CHECKING:
    from ..cli import Args
    from . import Report


def handle(args: Args) -> Report:
    from ..reducibility import classify, decompose
    from ..roots import RootOfUnity

    try:
        root = RootOfUnity(args.m, args.j)
    except ValueError as exc:
        raise UsageError(str(exc))
    _check_block_count(root)
    reduced_order, reduced_index = root.canonical_reduce()
    results = {
        "primitive": root.is_primitive,
        "classification": classify(root),
        "reduced_order": reduced_order,
        "reduced_index": reduced_index,
        **_block_results(decompose(root)),
    }
    return {"m": args.m, "j": args.j}, results, []
