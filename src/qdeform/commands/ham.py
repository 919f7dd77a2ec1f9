"""ham: the deformed oscillator Hamiltonian's diagonal, its self-checks and,
at a root, its blocks."""

from __future__ import annotations

import math

from . import _block_results, _checks, _json_float, _param_inputs, _resolve_param

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

    from ..cli import Args
    from . import Report


def handle(args: Args) -> Report:
    from ..hamiltonian import BLOCK_PATTERN_TOL, ENERGY_UNIT, hamiltonian_diagonal, verify_hamiltonian

    numbers = _resolve_param(args, "ham")
    diagonal = hamiltonian_diagonal(numbers)
    results: dict[str, Any] = {"energy_unit": ENERGY_UNIT, "dim": numbers.dim, "diagonal": diagonal}
    residuals = verify_hamiltonian(numbers, diagonal)
    if residuals["three_constructions_agree"] == math.inf:  # as it is where an energy is not finite
        results["diagonal"] = list(map(_json_float, diagonal))
    # the block checks, present at a root only, are judged by their own fixed bounds
    bounds = {"block_pattern_repeats": BLOCK_PATTERN_TOL}
    if args.root is not None:  # only a root loads the blocks' layer
        from ..reducibility import INVARIANT_BLOCKS_TOL, decompose, verify_invariant_subspaces

        blocks = decompose(args.root)
        results.update(primitive=args.root.is_primitive, **_block_results(blocks))
        if numbers.dim == args.root.order:
            residuals.update(verify_invariant_subspaces(numbers, blocks))
            bounds["blocks_are_invariant"] = INVARIANT_BLOCKS_TOL
    checks = _checks(residuals, args.tolerance, bounds=bounds)
    return _param_inputs(args, tolerance=args.tolerance), results, checks
