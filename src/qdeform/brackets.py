"""The bracket sweep: the complement and inversion identities of the
symmetric bracket [x] = sin(pi j x / m) / sin(pi j / m), swept over every root
of unity up to an order.

Only the primitive roots are read, one array of bracket rows per order from
roots.sine_ratio_rows: a non-primitive root repeats the row of its reduced
root, with an exact sign on each further period, and the root m - j is the
inverse of the root j, whose row is row j's times (-1)**(n-1) (roots has the
derivation, and tests/test_roots.py pins both identities).  The identities
these give are exact, so each residual is the gap between the two sides of
its identity (_gap), 0.0 where they agree.
"""

from __future__ import annotations

import math
from operator import neg

from . import _gap
from .roots import sine_ratio_rows


def _complement(row: list[float], j: int) -> float:
    """max |[m-k] - (-1)**(j-1) [k]| over a bracket row [0..m] at index j, read
    for k <= m/2, since the residual is symmetric in k <-> m-k."""
    half = (len(row) + 1) // 2
    ends = row[:half]  # [k], against [m-k]
    return _gap(row[: -half - 1 : -1], ends if j % 2 else list(map(neg, ends)))


def _order_bracket_residuals(m: int) -> tuple[float, float, float]:
    """(complement, complement_fundamental, inverse_parity) over the primitive
    roots of order m, from one array of bracket rows released on return."""
    primitive = [j for j in range(1, m) if math.gcd(j, m) == 1]  # j and m - j together
    rows = sine_ratio_rows(m, primitive, m + 1)  # rows[i][k] = [k] at index primitive[i]
    worst = fundamental = inverse_parity = 0.0
    for j, row, inv in zip(primitive, rows, reversed(rows[len(rows) // 2 :])):  # j <= m/2
        signed = row.copy()  # (-1)**(k-1) [k], against [k] at m - j
        signed[::2] = map(neg, row[::2])
        parity, complement = _gap(inv, signed), _complement(row, j)
        if j == 1:
            fundamental = complement
        if m - j != j and parity != 0.0:  # row m - j is not row j's mirror
            complement = max(complement, _complement(inv, m - j))
        worst, inverse_parity = max(worst, complement), max(inverse_parity, parity)
    return worst, fundamental, inverse_parity


def verify_bracket_relations(m_max: int) -> dict[str, float]:
    """The worst residual of each of the four complement/inversion bracket
    identities, exactly 0.0 with exact angle reduction.

    Sweeps every order 2 <= m <= m_max, every index j, every 0 <= k <= m, and
    checks, at the fixed half-root branch:

    * complement:              [m-k] = (-1)**(j-1) [k]
    * complement_fundamental:  [m-k] = [k] at j = 1
    * inverse_parity:          [k] at the inverse root's half = (-1)**(k-1) [k]
    * inverse_complement:      [m-k] at the inverse root's half
                               = (-1)**(m-k-1) [m-k]

    Only primitive indices are read: a non-primitive root j, g = gcd(j, m),
    repeats the bracket row of the primitive root j/g of order m/g, with the
    sign (-1)**(j/g) on each further period, so its residuals are that
    root's up to an exact sign, taken at order m/g.  Each order is one array
    of bracket rows [0..m], one per primitive index, from sine_ratio_rows;
    the inverse root's is the row of index m - j, not evaluated again.  Each
    pair (j, m - j) is visited once, for j <= m/2: the inverse parity of
    (m - j, j) is that of (j, m - j) up to an exact sign.  Each residual is
    the _gap between the two sides of its identity: 0.0 where they compare
    equal and are finite, else their worst difference, inf where an entry is
    not.  Where the inverse parity is 0.0, row m - j is row j's finite
    mirror, so its complement residual is row j's; otherwise it is taken on
    its own.  complement_fundamental is complement at j = 1 and
    inverse_complement is inverse_parity with k relabelled m-k, so each is
    read off its twin and reported under its own name.
    """
    if m_max < 2:
        raise ValueError(f"m_max must be at least 2, got {m_max}")
    per_order = [_order_bracket_residuals(m) for m in range(2, m_max + 1)]
    complement, fundamental, parity = map(max, zip(*per_order))
    return {
        "complement": complement,
        "complement_fundamental": fundamental,
        "inverse_parity": parity,
        "inverse_complement": parity,
    }
