"""Deformed ladder operators as number-diagonal rescalings of the undeformed
pair (the Polychronakos-style realization).

a_minus = U_minus(N) a and a_plus = U_plus(N) a_dag with U chosen so the
product U_plus(n) U_minus(n-1) n reproduces the deformed integer {n}_q.  For
real q this reproduces the direct construction entrywise and is unitary
(a_plus is the adjoint of a_minus); at roots of unity the entries agree in
modulus only and the representation is in general non-unitary.

Both rescaled operators are bidiagonal and share one amplitude vector, so
verify_realization measures every check from one pass over the QNumbers
value: agreement with the direct ladder, the recurrence that forces the
scaling, and unitarity, returned as {check: residual}: each the worst of its
per-entry terms, inf where any operand or term is not finite.
"""

from __future__ import annotations

import cmath
import math
from itertools import pairwise
from operator import mul

from . import _worst
from .ladder import DimensionTooSmallError, QNumbers, matrix_mismatch
from .roots import DeformParam, RealQ, q_number_value

# the bound on unitary_for_real_q: a_plus is the adjoint of a_minus.  It holds
# for every real q; at roots of unity the phases of {n}_q generally break it
# (the order-2 root, whose deformed integers are all real, is the exception).
UNITARITY_TOL = 1e-12


def _scaling(value: float | complex, n: int) -> complex:
    # sqrt({n}_q / n) from the value of {n}_q; the 0/0 point n = 0 is 1
    return 1.0 + 0j if n == 0 else cmath.sqrt(complex(value) / n)


def u_plus(param: DeformParam, n: int) -> complex:
    """sqrt({n}_q / n).  The 0/0 point at n = 0 is fixed to 1: the realization
    only ever multiplies it by a vanishing ladder entry, and 1 keeps the
    function continuous with the q -> 1 limit."""
    return _scaling(q_number_value(n, param), n)


def u_minus(param: DeformParam, n: int) -> complex:
    """sqrt({n+1}_q / (n+1)) = u_plus(n+1); the singular point n = -1 is fixed to 1."""
    return u_plus(param, n + 1)


def verify_realization(numbers: QNumbers) -> dict[str, float]:
    """{check: residual} for every realization check at dimension dim, from
    one sequence of {n}_q.

    realization_matches_direct compares the rescaled pair with the direct
    ladder, entrywise for real q and in modulus at roots of unity
    (sqrt(a)*sqrt(b) and sqrt(a*b) may differ by a sign for complex
    arguments).  scaling_recurrence and scaling_product_is_qnumber check the
    recurrence F(n+1) - q F(n) = 1 and the identification F(n) = {n}_q, where
    F(n) = U_plus(n) U_minus(n-1) n, for n <= dim.  unitary_for_real_q
    compares the realized a_plus with the conjugate transpose of a_minus.

    a_minus[n, n+1] = a_plus[n+1, n] = U_plus(n+1) sqrt(n+1), since
    U_minus(n) = U_plus(n+1), so one realized amplitude vector carries both
    operators.  Residuals are scaled by the operand magnitude (F grows like
    q**n for real q > 1, where absolute doubles cannot reach 1e-12).
    """
    param, dim = numbers.param, numbers.dim
    if dim < 2:
        raise DimensionTooSmallError(f"need dim >= 2, got {dim}")
    q, values = param.value, numbers.values
    scalings = [_scaling(value, n) for n, value in enumerate(values)]
    realized = list(map(mul, scalings[1:dim], map(math.sqrt, range(1, dim))))
    direct = numbers.amplitudes[: dim - 1]
    if isinstance(param, RealQ):
        direct_mismatch = matrix_mismatch(realized, direct)
    else:
        direct_mismatch = matrix_mismatch(list(map(abs, realized)), list(map(abs, direct)))
    # U_minus(n-1) = U_plus(n), so F(n) = U_plus(n)**2 n
    f = [s * s * n for n, s in enumerate(scalings)]
    return {
        "realization_matches_direct": direct_mismatch,
        "scaling_recurrence": _worst([abs(b - q * a - 1.0) / max(1.0, abs(b), abs(q * a))
                                      for a, b in pairwise(f)]),
        "scaling_product_is_qnumber": _worst([abs(x - value) / max(1.0, abs(value))
                                              for x, value in zip(f, values[: dim + 1])]),
        "unitary_for_real_q": matrix_mismatch(realized, [z.conjugate() for z in realized]),
    }
