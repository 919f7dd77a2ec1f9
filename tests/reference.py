"""Reference constructions the tests compare the library against.

None is used by the library itself: the dense ladder matrices rebuild the
products that `verify_relations` reads off the amplitude vector, the scalar
|{n}_q| backs the moduli of `q_numbers`, exact long division of
polynomials recovers the Gauss polynomials from their full product formula,
and the argparse parser the CLI once read argv with backs `cli.parse_args`.
"""

import argparse
import cmath

import numpy as np

import qdeform.cli as cli
import qdeform.ladder as ladder
from qdeform.commands import classify, gauss, ham, polychronakos, qnumber, verify
from qdeform.roots import exp_i_pi_times
from qdeform import NotDivisibleError, QNumbers, QPoly, RealQ, q_bracket, q_number_value, q_values


def build_ladder(param, dim):
    """Dense raising and lowering matrices carrying the amplitude vector.

    raising[n+1, n] = lowering[n, n+1] = sqrt({n+1}_q); the lowering operator
    annihilates state 0.  The amplitudes are those of ladder.q_numbers, looked
    up on the ladder module, so a test that patches it there perturbs these
    matrices too.
    """
    amps = ladder.q_numbers(param, dim).amplitudes[: dim - 1]
    return np.diag(amps, -1), np.diag(amps, 1)


def unchecked_q_numbers(param, dim):
    """The q-numbers of a real q as ladder.q_numbers builds them, but without
    its refusal of a sum that overflows float64, so that the checks' own
    handling of non-finite operands can be tested."""
    values = tuple(q_values(param, dim + 2))
    return QNumbers(param, dim, values, values, tuple(map(cmath.sqrt, values[1 : dim + 1])))


def eval_at_root_all_buckets(p, root):
    """eval_at_root with one residue bucket per power of the root, as many as
    its order, however few coefficients the polynomial has."""
    m = root.order
    buckets = [0] * m
    for k, c in enumerate(p.coeffs):
        buckets[k % m] += c
    total = 0j
    for r, b in enumerate(buckets):
        if b == 0:
            continue
        total += b * exp_i_pi_times(2 * root.index * r, m)
    return total


def abs_q_number(n, param):
    """|{n}_q| as a float: at a root, the modulus of the signed sine ratio.

    Avoiding the complex modulus keeps equal magnitudes bit-identical, which
    is what makes spectra of equivalent blocks agree exactly.
    """
    if isinstance(param, RealQ):
        return q_number_value(n, param)
    return abs(q_bracket(n, param))


def divide_exact(num: QPoly, den: QPoly) -> QPoly:
    """Quotient of an exact division: ``num == quotient * den`` over the ints.

    Raises NotDivisibleError if den does not divide num exactly.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(num.coeffs)
    dc = den.coeffs
    shift = len(dc) - 1
    lead = dc[-1]
    quot = [0] * max(len(rem) - shift, 0)
    for k in range(len(rem) - 1, shift - 1, -1):
        c = rem[k]
        if c == 0:
            continue
        step, leftover = divmod(c, lead)
        if leftover:
            raise NotDivisibleError(
                f"leading coefficient {lead} does not divide {c} at degree {k}"
            )
        quot[k - shift] = step
        for i, d in enumerate(dc):
            rem[k - shift + i] -= step * d
    if any(rem):
        raise NotDivisibleError("nonzero remainder after division")
    return QPoly(quot)


def _add_param_flags(parser: argparse.ArgumentParser, dim: bool = True) -> None:
    parser.add_argument("--root", type=cli._root_spec, metavar="m:j")
    parser.add_argument("--real", type=cli._real_spec, metavar="q")
    if dim:
        parser.add_argument("--dim", type=int)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser, with the converters it had and the
    handlers, each the handle of its command's module.

    The converters now raise ValueError, which argparse also turns into a
    usage error, only with another message."""
    parser = argparse.ArgumentParser(
        prog="qdeform",
        description="Gauss-polynomial calculus and the q-deformed oscillator it generates",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gauss", help="q-binomial coefficients")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(handler=gauss.handle)

    p = sub.add_parser("qnumber", help="deformed integer {n}_q")
    p.add_argument("n", type=int)
    _add_param_flags(p, dim=False)
    p.set_defaults(handler=qnumber.handle)

    p = sub.add_parser("classify", help="representation class of a root of unity")
    p.add_argument("m", type=int)
    p.add_argument("j", type=int)
    p.set_defaults(handler=classify.handle)

    p = sub.add_parser("ham", help="deformed oscillator Hamiltonian and its blocks")
    _add_param_flags(p)
    p.set_defaults(handler=ham.handle)

    p = sub.add_parser("verify", help="run identity/algebra verification sweeps")
    p.add_argument("scope", choices=("algebra", "brackets", "polychronakos", "all"))
    p.add_argument("--max-m", type=int, default=20, dest="max_m")
    _add_param_flags(p)
    p.set_defaults(handler=verify.handle)

    p = sub.add_parser("polychronakos", help="scaling-function realization checks")
    _add_param_flags(p)
    p.set_defaults(handler=polychronakos.handle)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--tolerance", type=cli._finite_float, default=cli.DEFAULT_TOLERANCE)
    return parser
