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
scaling, and unitarity.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .ladder import DimensionTooSmallError, QNumbers, matrix_mismatch
from .roots import DeformParam, RealQ, q_number_value

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


@dataclass(frozen=True)
class RealizationReport:
    """Scaled residuals of every realization check at one dimension.

    direct_mismatch compares the rescaled pair with the direct ladder,
    entrywise for real q and in modulus at roots of unity (sqrt(a)*sqrt(b)
    and sqrt(a*b) may differ by a sign for complex arguments).  The
    recurrence F(n+1) - q F(n) = 1 and the identification F(n) = {n}_q,
    where F(n) = U_plus(n) U_minus(n-1) n, are checked for n <= dim.
    unitarity_gap compares the realized a_plus with the conjugate transpose
    of a_minus.
    """

    dim: int
    direct_mismatch: float
    max_recurrence_residual: float
    max_qnumber_mismatch: float
    unitarity_gap: float

    @property
    def unitary(self) -> bool:
        """True iff a_plus is the adjoint of a_minus within UNITARITY_TOL.

        Holds for every real q; at roots of unity the phases of {n}_q
        generally break it (the order-2 root, whose deformed integers are all
        real, is the exception).
        """
        return self.unitarity_gap <= UNITARITY_TOL


def verify_realization(numbers: QNumbers) -> RealizationReport:
    """Every realization check at dimension dim, from one sequence of {n}_q.

    a_minus[n, n+1] = a_plus[n+1, n] = U_plus(n+1) sqrt(n+1), since
    U_minus(n) = U_plus(n+1), so one realized amplitude vector carries both
    operators.  Residuals are scaled by the operand magnitude (F grows like
    q**n for real q > 1, where absolute doubles cannot reach 1e-12).
    """
    import numpy as np

    param, dim = numbers.param, numbers.dim
    if dim < 2:
        raise DimensionTooSmallError(f"need dim >= 2, got {dim}")
    q = param.value
    values = numbers.values.tolist()
    scalings = [_scaling(value, n) for n, value in enumerate(values)]
    realized = np.array(scalings[1:dim]) * np.sqrt(np.arange(1, dim, dtype=float))
    direct = numbers.amplitudes[: dim - 1]
    if isinstance(param, RealQ):
        direct_mismatch = matrix_mismatch(realized, direct)
    else:
        direct_mismatch = matrix_mismatch(np.abs(realized), np.abs(direct))
    # U_minus(n-1) = U_plus(n), so F(n) = U_plus(n)**2 n
    f = [scalings[n] * scalings[n] * n for n in range(dim + 2)]
    recurrence = 0.0
    mismatch = 0.0
    for n in range(dim + 1):
        residual = abs(f[n + 1] - q * f[n] - 1.0)
        scale = max(1.0, abs(f[n + 1]), abs(q * f[n]))
        recurrence = max(recurrence, residual / scale)
        target = complex(values[n])
        mismatch = max(mismatch, abs(f[n] - target) / max(1.0, abs(target)))
    return RealizationReport(
        dim=dim,
        direct_mismatch=direct_mismatch,
        max_recurrence_residual=recurrence,
        max_qnumber_mismatch=mismatch,
        unitarity_gap=matrix_mismatch(realized, realized.conj()),
    )
