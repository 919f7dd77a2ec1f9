"""Reference constructions the tests compare the library against.

Neither is used by the library itself: the dense ladder matrices rebuild the
products that `verify_relations` reads off the amplitude vector, and exact
long division of polynomials recovers the Gauss polynomials from their full
product formula.
"""

import numpy as np

import qdeform.ladder as ladder
from qdeform import NotDivisibleError, QPoly


def build_ladder(param, dim):
    """Dense raising and lowering matrices carrying the amplitude vector.

    raising[n+1, n] = lowering[n, n+1] = sqrt({n+1}_q); the lowering operator
    annihilates state 0.  The amplitudes are looked up on the ladder module,
    so a test that patches them there perturbs these matrices too.
    """
    amps = ladder.amplitudes(param, dim)
    return np.diag(amps, -1), np.diag(amps, 1)


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
