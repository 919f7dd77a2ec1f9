"""Gauss-polynomial (Q-number) calculus and the q-deformed harmonic
oscillator it generates, for positive real deformation values and roots of
unity: exact q-binomials, vanishing predicates, ladder amplitudes, the
reducibility classification of the number-basis representation, diagonal
Hamiltonians with their block spectra, and the scaling-function realization.

The package uses the standard library alone: the numeric layer works on
tuples of CPython floats and complex numbers.

`import qdeform` loads none of the layers.  Each public name is imported
from the module that defines it the first time it is read, and is then
bound here, so a program pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# the layer that defines each public name
_LAYER_OF = {
    name: layer
    for layer, names in (
        ("gauss", ("NotDivisibleError", "QPoly", "gauss_binomial", "gauss_generating",
                   "partition_count", "q_number")),
        ("hamiltonian", ("ENERGY_UNIT", "SpectrumReport", "hamiltonian_diagonal",
                         "inverse_root_check", "palindrome_check", "spectrum_report")),
        ("ladder", ("DimensionTooSmallError", "QNumbers", "RelationResidual", "matrix_mismatch",
                    "q_numbers", "scaled_residual", "truncation_safe_dim", "verify_relations")),
        ("realization", ("RealizationReport", "u_minus", "u_plus", "verify_realization")),
        ("reducibility", ("IrreducibleFinite", "IrreducibleInfinite", "IrrepDecomposition",
                          "Reducible", "RepClass", "SubspaceReport", "classify", "decompose",
                          "verify_invariant_subspaces")),
        ("roots", ("DeformParam", "RealQ", "RootOfUnity", "cos_pi_times", "eval_at_root",
                   "q_bracket", "q_number_is_zero", "q_number_value", "q_values", "sin_pi_times",
                   "verify_bracket_relations")),
    )
    for name in names
}

__all__ = [*_LAYER_OF, "__version__"]


def __getattr__(name: str) -> object:
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return __all__
