"""Deformed ladder operators as number-diagonal rescalings of the undeformed
pair (the Polychronakos-style realization).

a_minus = U_minus(N) a and a_plus = U_plus(N) a_dag with U chosen so the
product U_plus(n) U_minus(n-1) n reproduces the deformed integer {n}_q.  For
real q this reproduces the direct construction entrywise and is unitary
(a_plus is the adjoint of a_minus); at roots of unity the entries agree in
modulus only and the representation is in general non-unitary.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .ladder import amplitudes, matrix_mismatch
from .roots import DeformParam, RealQ, q_number_value, q_values

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


def undeformed_ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The ordinary oscillator pair: raising[n+1, n] = lowering[n, n+1] = sqrt(n+1)."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    amps = np.sqrt(np.arange(1, dim, dtype=float)).astype(complex)
    return np.diag(amps, -1), np.diag(amps, 1)


def _realized_amplitudes(param: DeformParam, dim: int) -> np.ndarray:
    """U_plus(n+1) sqrt(n+1), n = 0..dim-2: both a_plus[n+1, n] and
    a_minus[n, n+1], since U_minus(n) = U_plus(n+1)."""
    if dim < 2:
        raise ValueError(f"need dim >= 2, got {dim}")
    scalings = [_scaling(value, n) for n, value in enumerate(q_values(param, dim))]
    return np.array(scalings[1:]) * np.sqrt(np.arange(1, dim, dtype=float))


def realize_deformed(param: DeformParam, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(a_minus, a_plus) built by rescaling the undeformed pair.

    a_minus = U_minus(N) lowering has entries sqrt(n) sqrt({n}_q/n);
    a_plus = U_plus(N) raising has sqrt(n+1) sqrt({n+1}_q/(n+1)).
    """
    realized = _realized_amplitudes(param, dim)
    return np.diag(realized, 1), np.diag(realized, -1)


def realization_mismatch(param: DeformParam, dim: int) -> float:
    """Scaled gap between the rescaled pair and the direct construction.

    Entrywise for real q; in modulus for roots of unity (sqrt(a)*sqrt(b) and
    sqrt(a*b) may differ by a sign for complex arguments, so entrywise phase
    equality is not claimed there).  a_minus and a_plus share one amplitude
    vector, as lowering and raising do, so one comparison covers both.
    """
    realized = _realized_amplitudes(param, dim)
    direct = amplitudes(param, dim)
    if isinstance(param, RealQ):
        return matrix_mismatch(realized, direct)
    return matrix_mismatch(np.abs(realized), np.abs(direct))


@dataclass(frozen=True)
class ScalingRecurrenceReport:
    """Residuals of the product recurrence F(n+1) - q F(n) = 1 and of the
    identification F(n) = {n}_q, where F(n) = U_plus(n) U_minus(n-1) n."""

    n_max: int
    max_recurrence_residual: float
    max_qnumber_mismatch: float


def verify_scaling_recurrence(param: DeformParam, n_max: int) -> ScalingRecurrenceReport:
    """Check the recurrence that forces the scaling choice, up to n_max.

    Residuals are scaled by the operand magnitude (F grows like q**n for real
    q > 1, where absolute doubles cannot reach 1e-12).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    q = param.value
    values = q_values(param, n_max + 2)
    # U_minus(n-1) = U_plus(n), so F(n) = U_plus(n)**2 n
    scalings = [_scaling(value, n) for n, value in enumerate(values)]
    f = [scalings[n] * scalings[n] * n for n in range(n_max + 2)]
    recurrence = 0.0
    for n in range(n_max + 1):
        residual = abs(f[n + 1] - q * f[n] - 1.0)
        scale = max(1.0, abs(f[n + 1]), abs(q * f[n]))
        recurrence = max(recurrence, residual / scale)
    mismatch = 0.0
    for n in range(n_max + 1):
        target = complex(values[n])
        mismatch = max(mismatch, abs(f[n] - target) / max(1.0, abs(target)))
    return ScalingRecurrenceReport(
        n_max=n_max, max_recurrence_residual=recurrence, max_qnumber_mismatch=mismatch
    )


def unitarity_mismatch(param: DeformParam, dim: int) -> float:
    """Scaled gap between the realized a_plus and the conjugate transpose of
    a_minus: entrywise, the realized amplitudes against their conjugates."""
    realized = _realized_amplitudes(param, dim)
    return matrix_mismatch(realized, realized.conj())


def unitarity_check(param: DeformParam, dim: int) -> bool:
    """True iff the realized a_plus is the conjugate transpose of a_minus.

    Holds for every real q; at roots of unity the phases of {n}_q generally
    break it (the order-2 root, whose deformed integers are all real, is the
    exception).
    """
    return unitarity_mismatch(param, dim) <= UNITARITY_TOL
