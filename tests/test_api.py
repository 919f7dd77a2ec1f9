"""The public names of the package, and the README's library quick start.

Adding or removing a public name changes this list, so every such change
shows in the diff of this file.  The quick start is run as written, so a
removed name or a changed value cannot leave the README stale.
"""

import ast
from pathlib import Path

import pytest

import qdeform

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = [
    "DeformParam",
    "DimensionTooSmallError",
    "ENERGY_UNIT",
    "IrrepDecomposition",
    "NotDivisibleError",
    "QNumbers",
    "QPoly",
    "RealQ",
    "RootOfUnity",
    "__version__",
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
    "truncation_safe_dim",
    "u_minus",
    "u_plus",
    "verify_bracket_relations",
    "verify_hamiltonian",
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


def test_star_import_and_dir_show_every_public_name():
    namespace = {}
    exec("from qdeform import *", namespace)
    assert set(qdeform.__all__) <= namespace.keys()
    assert set(qdeform.__all__) <= set(dir(qdeform))
    for name in qdeform.__all__:
        assert namespace[name] is getattr(qdeform, name), name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        qdeform.not_a_name
    with pytest.raises(ImportError):
        exec("from qdeform import not_a_name", {})


def quick_start_block():
    section = README.read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_gives_the_values_it_states():
    block = quick_start_block()
    lines = block.splitlines()
    namespace = {}
    stated = []  # (value, comment) of each expression line
    for statement in ast.parse(block).body:
        code = ast.get_source_segment(block, statement)
        if isinstance(statement, ast.Expr):
            comment = lines[statement.end_lineno - 1].split("#", 1)[1].strip()
            stated.append((eval(code, namespace), comment))
        else:
            exec(code, namespace)
    (coeffs, c1), (diagonal, c2), (block_count, c3), (residual, c4) = stated
    assert coeffs == ast.literal_eval(c1) == (1, 1, 2, 1, 1)
    assert diagonal == ast.literal_eval(c2) == (0.5, 1.0, 0.5, 0.5, 1.0, 0.5)
    assert block_count == ast.literal_eval(c3) == 2
    assert c4 == "~1e-16"
    assert residual <= 1e-15
