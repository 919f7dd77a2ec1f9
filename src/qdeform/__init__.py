"""Gauss-polynomial (Q-number) calculus and the q-deformed harmonic
oscillator it generates, for positive real deformation values and roots of
unity: exact q-binomials, vanishing predicates, ladder amplitudes, the
reducibility classification of the number-basis representation, diagonal
Hamiltonians with their block spectra, and the scaling-function realization.

The package uses the standard library alone: the numeric layer works on
tuples of CPython floats and complex numbers.  Every value class (the
deformation parameters, QPoly, QNumbers and the block decomposition) is a
frozen record on the one base defined here, _Record.  Every check family
(relations, brackets, Hamiltonian, invariant blocks, realization) returns a
{check: residual} dict, and classify returns its class's label.  A residual
is its check's worst term by the one rule defined here, _worst: a non-finite
operand or term makes it inf, never nan, a failed check printed null in JSON.
A check that two sequences agree takes their gap by the rule beside it, _gap.

`import qdeform` loads none of the layers.  Each public name is imported
from the module that defines it the first time it is read, and is then
bound here, so a program pays only for the layers it uses.  The relation
checks (`relations`) and the bracket sweep (`brackets`) are modules of their
own, apart from the q-numbers (`ladder`) and the roots (`roots`) they read,
so only a program that runs them compiles them; the CLI's handlers live in
`commands`, one module per subcommand, for the same reason.
"""

import importlib
import math
from operator import sub

__version__ = "0.1.0"

# the layer that defines each public name
_LAYER_OF = {
    name: layer
    for layer, names in (
        ("brackets", ("verify_bracket_relations",)),
        ("gauss", ("NotDivisibleError", "QPoly", "gauss_binomial", "gauss_generating",
                   "partition_count", "q_number")),
        ("hamiltonian", ("ENERGY_UNIT", "hamiltonian_diagonal", "inverse_root_check",
                         "palindrome_check", "verify_hamiltonian")),
        ("ladder", ("DimensionTooSmallError", "QNumbers", "matrix_mismatch", "q_numbers",
                    "scaled_residual", "truncation_safe_dim")),
        ("realization", ("u_minus", "u_plus", "verify_realization")),
        ("reducibility", ("IrrepDecomposition", "classify", "decompose",
                          "verify_invariant_subspaces")),
        ("relations", ("verify_relations",)),
        ("roots", ("DeformParam", "RealQ", "RootOfUnity", "cos_pi_times", "eval_at_root",
                   "q_bracket", "q_number_is_zero", "q_number_value", "q_values", "sin_pi_times")),
    )
    for name in names
}

__all__ = [*_LAYER_OF, "__version__"]


class _Record:
    """An immutable value whose fields are the names annotated in its class
    body, in order.

    Each subclass gets an __init__ compiled once with one parameter per
    field, so a missing, extra or unknown field is Python's own TypeError and
    building an instance costs a few dict stores; it ends by calling the
    subclass's __post_init__, if there is one.  Fields live in the instance
    __dict__ in that order, so copy, deepcopy and pickle need nothing more.
    Two records are equal when they are of one class with equal fields, and
    hash as the tuple of their fields; assigning or deleting any attribute
    raises AttributeError.
    """

    def __init_subclass__(cls) -> None:
        if "__init__" in cls.__dict__:
            return
        fields = cls.__dict__.get("__annotations__", {})
        lines = [f"def __init__({', '.join(('self', *fields))}):", " d = self.__dict__"]
        lines += [f" d[{name!r}] = {name}" for name in fields]
        if hasattr(cls, "__post_init__"):
            lines.append(" self.__post_init__()")
        namespace: dict[str, object] = {}
        exec("\n".join(lines), {}, namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _worst(terms) -> float:
    """The largest |term|, 0.0 for none, and inf when any term is not finite.
    A max skips a nan that is not first (nan > x is false), so the sizes' sum,
    nan only through a nan, stands guard; a max of residuals needs no test."""
    sizes = list(map(abs, terms))
    worst = max(sizes, default=0.0)
    return worst if math.isfinite(worst) and not math.isnan(sum(sizes)) else math.inf


def _gap(a, b) -> float:
    """_worst(map(sub, a, b)), bit for bit, 0.0 at once where a == b and sum(a)
    is finite (0 x is 0 for finite x only, float or complex): a list takes a
    nan as equal to itself, so equality alone would pass it."""
    return 0.0 if a == b and 0 * sum(a) == 0 else _worst(map(sub, a, b))


def __getattr__(name: str) -> object:
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return __all__
