"""Gauss-polynomial (Q-number) calculus and the q-deformed harmonic
oscillator it generates, for positive real deformation values and roots of
unity: exact q-binomials, vanishing predicates, ladder amplitudes, the
reducibility classification of the number-basis representation, diagonal
Hamiltonians with their block spectra, and the scaling-function realization.

The package uses the standard library alone: the numeric layer works on
tuples of CPython floats and complex numbers.
"""

from .gauss import (
    NotDivisibleError,
    QPoly,
    gauss_binomial,
    gauss_generating,
    partition_count,
    q_number,
)
from .hamiltonian import (
    ENERGY_UNIT,
    SpectrumReport,
    hamiltonian_diagonal,
    inverse_root_check,
    palindrome_check,
    spectrum_report,
)
from .ladder import (
    DimensionTooSmallError,
    QNumbers,
    RelationResidual,
    matrix_mismatch,
    q_numbers,
    scaled_residual,
    truncation_safe_dim,
    verify_relations,
)
from .realization import RealizationReport, u_minus, u_plus, verify_realization
from .reducibility import (
    IrreducibleFinite,
    IrreducibleInfinite,
    IrrepDecomposition,
    Reducible,
    RepClass,
    SubspaceReport,
    classify,
    decompose,
    verify_invariant_subspaces,
)
from .roots import (
    DeformParam,
    RealQ,
    RootOfUnity,
    cos_pi_times,
    eval_at_root,
    q_bracket,
    q_number_is_zero,
    q_number_value,
    q_values,
    sin_pi_times,
    verify_bracket_relations,
)

__version__ = "0.1.0"

__all__ = [
    "ENERGY_UNIT",
    "DeformParam",
    "DimensionTooSmallError",
    "IrreducibleFinite",
    "IrreducibleInfinite",
    "IrrepDecomposition",
    "NotDivisibleError",
    "QNumbers",
    "QPoly",
    "RealQ",
    "RealizationReport",
    "Reducible",
    "RelationResidual",
    "RepClass",
    "RootOfUnity",
    "SpectrumReport",
    "SubspaceReport",
    "classify",
    "cos_pi_times",
    "decompose",
    "eval_at_root",
    "gauss_binomial",
    "gauss_generating",
    "hamiltonian_diagonal",
    "inverse_root_check",
    "matrix_mismatch",
    "palindrome_check",
    "partition_count",
    "q_bracket",
    "q_number",
    "q_number_is_zero",
    "q_number_value",
    "q_numbers",
    "q_values",
    "scaled_residual",
    "sin_pi_times",
    "spectrum_report",
    "truncation_safe_dim",
    "u_minus",
    "u_plus",
    "verify_bracket_relations",
    "verify_invariant_subspaces",
    "verify_realization",
    "verify_relations",
    "__version__",
]
