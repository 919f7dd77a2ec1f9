"""The amplitude-vector checks against dense matrix products.

The library reads every relation off the amplitude vector.  Here the dense
raising and lowering matrices are multiplied out in full, the way the
relations are written, as an independent oracle at small dimension; both
paths must report the same relations, subspaces and verdicts, with residuals
that differ only by product rounding.
"""

import numpy as np

from qdeform import (
    HalfRoot,
    RealQ,
    RootOfUnity,
    abs_q_number,
    build_ladder,
    hamiltonian_diagonal,
    hamiltonian_equivalence_check,
    realization_mismatch,
    realize_deformed,
    scaled_residual,
    truncation_safe_dim,
    u_minus,
    u_plus,
    undeformed_ladder,
    unitarity_mismatch,
    verify_relations,
)
from qdeform.roots import cos_pi_times, sin_pi_times

ROUNDING = 1e-15
VERDICT_TOL = 1e-12

CASES = [
    (RootOfUnity(m, j), dim)
    for m in range(2, 25)
    for j in range(1, m)
    for dim in (m, 2 * m)
] + [(RealQ(q), dim) for q in (0.3, 1.0, 2.5) for dim in (2, 3, 17, 64)]


def dense_relations(param, dim):
    """Every relation as a product of dense matrices."""
    raising, lowering = build_ladder(param, dim)
    raising_dag = raising.conj().T
    lowering_dag = lowering.conj().T
    identity = np.eye(dim)
    q = param.value
    upto = truncation_safe_dim(param, dim)
    window = (slice(0, upto), slice(0, upto))
    results = {}

    def check(name, delta, *refs):
        results[name] = scaled_residual(delta[window], *(r[window] for r in refs))

    down_up = lowering @ raising
    up_down = raising @ lowering
    check("deformed_commutator", down_up - q * up_down - identity, down_up, up_down)
    conj_left = raising_dag @ lowering_dag
    conj_right = lowering_dag @ raising_dag
    check(
        "deformed_commutator_conjugate",
        conj_left - np.conj(q) * conj_right - identity,
        conj_left,
        conj_right,
    )
    up_norm = raising_dag @ raising
    up_norm_rev = raising @ raising_dag
    moduli_up = np.diag([abs_q_number(n + 1, param) for n in range(dim)])
    moduli = np.diag([abs_q_number(n, param) for n in range(dim)])
    check("product_updag_up", up_norm - moduli_up, up_norm)
    check("product_up_updag", up_norm_rev - moduli, up_norm_rev)
    down_norm_rev = lowering @ lowering_dag
    down_norm = lowering_dag @ lowering
    if isinstance(param, RealQ):
        check(
            "real_q_adjoint_commutator_down",
            down_norm_rev - q * down_norm - identity,
            down_norm_rev,
            down_norm,
        )
        check(
            "real_q_adjoint_commutator_up",
            up_norm - q * up_norm_rev - identity,
            up_norm,
            up_norm_rev,
        )
    elif param.index == 1:
        m = param.order
        h = HalfRoot(param).value
        h_inverse_powers = np.diag(
            [complex(cos_pi_times(-n, m), sin_pi_times(-n, m)) for n in range(dim)]
        )
        check(
            "biedenharn_macfarlane_down",
            down_norm_rev - h * down_norm - h_inverse_powers,
            down_norm_rev,
            down_norm,
        )
        check(
            "biedenharn_macfarlane_up",
            up_norm - h * up_norm_rev - h_inverse_powers,
            up_norm,
            up_norm_rev,
        )
    number = np.diag(np.arange(dim, dtype=float))
    check("number_commutator_up", number @ raising - raising @ number - raising, raising)
    check(
        "number_commutator_down", number @ lowering - lowering @ number + lowering, lowering
    )
    return results, range(upto)


def dense_hamiltonian_equivalence(param, dim):
    raising, lowering = build_ladder(param, dim)
    raising_dag = raising.conj().T
    lowering_dag = lowering.conj().T
    from_lowering = 0.5 * (lowering @ lowering_dag + lowering_dag @ lowering)
    from_raising = 0.5 * (raising @ raising_dag + raising_dag @ raising)
    direct = np.diag(hamiltonian_diagonal(param, dim)).astype(complex)
    upto = truncation_safe_dim(param, dim)
    window = (slice(0, upto), slice(0, upto))
    candidates = [from_lowering[window], from_raising[window], direct[window]]
    return max(
        scaled_residual(candidates[i] - candidates[k], candidates[i], candidates[k])
        for i in range(3)
        for k in range(i + 1, 3)
    )


def dense_gap(a, b):
    return scaled_residual(a - b, a, b)


def test_relations_match_dense_products():
    for param, dim in CASES:
        dense, subspace = dense_relations(param, dim)
        vector = verify_relations(param, dim)
        assert [r.relation for r in vector] == list(dense), (param, dim)
        for record in vector:
            expected = dense[record.relation]
            where = (param, dim, record.relation)
            assert record.checked_subspace == subspace, where
            assert abs(record.max_abs_residual - expected) <= ROUNDING, where
            assert (record.max_abs_residual <= VERDICT_TOL) == (expected <= VERDICT_TOL), where


def test_hamiltonian_equivalence_matches_dense_products():
    for param, dim in CASES:
        expected = dense_hamiltonian_equivalence(param, dim)
        assert abs(hamiltonian_equivalence_check(param, dim) - expected) <= ROUNDING, (param, dim)


def test_realization_matches_dense_rescaling():
    for param, dim in CASES:
        plain_raising, plain_lowering = undeformed_ladder(dim)
        a_minus = np.diag([u_minus(param, n) for n in range(dim)]) @ plain_lowering
        a_plus = np.diag([u_plus(param, n) for n in range(dim)]) @ plain_raising
        realized_minus, realized_plus = realize_deformed(param, dim)
        assert np.array_equal(realized_minus, a_minus), (param, dim)
        assert np.array_equal(realized_plus, a_plus), (param, dim)
        raising, lowering = build_ladder(param, dim)
        if isinstance(param, RealQ):
            expected = max(dense_gap(a_plus, raising), dense_gap(a_minus, lowering))
        else:
            expected = max(
                dense_gap(np.abs(a_plus), np.abs(raising)),
                dense_gap(np.abs(a_minus), np.abs(lowering)),
            )
        assert abs(realization_mismatch(param, dim) - expected) <= ROUNDING, (param, dim)
        unitarity = dense_gap(a_plus, a_minus.conj().T)
        assert abs(unitarity_mismatch(param, dim) - unitarity) <= ROUNDING, (param, dim)
