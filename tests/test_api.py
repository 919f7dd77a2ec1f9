"""The public names of the package.

Adding or removing a public name changes this list, so every such change
shows in the diff of this file.
"""

import qdeform

PUBLIC = [
    "DeformParam",
    "DegenerateRootError",
    "DimensionTooSmallError",
    "ENERGY_UNIT",
    "HalfRoot",
    "IrreducibleFinite",
    "IrreducibleInfinite",
    "IrrepDecomposition",
    "NotDivisibleError",
    "QPoly",
    "RealQ",
    "RealizationReport",
    "Reducible",
    "RelationResidual",
    "RepClass",
    "RootOfUnity",
    "SpectrumReport",
    "SubspaceReport",
    "__version__",
    "abs_q_number",
    "abs_q_values",
    "amplitudes",
    "build_ladder",
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
]


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert sorted(qdeform.__all__) == PUBLIC
    assert len(set(qdeform.__all__)) == len(qdeform.__all__)


def test_every_public_name_resolves():
    for name in qdeform.__all__:
        assert hasattr(qdeform, name), name
