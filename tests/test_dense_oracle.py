"""The amplitude-vector checks against dense matrix products.

The library reads every relation off the amplitude vector.  Here the dense
raising and lowering matrices are multiplied out in full, the way the
relations are written, as an independent oracle at small dimension, on the
states truncation_safe_dim leaves; both paths must report the same relations
and verdicts, with residuals that differ only by product rounding (on a
perturbed ladder, where a wrong window would show).  The scaling realization is rebuilt as
diag(U±) times the undeformed pair, and its gaps to the dense ladder must
match the reported ones.  The Hamiltonian diagonal is handed, as a dense
matrix, to a general Hermitian eigensolver.
"""

import numpy as np

import qdeform.ladder as ladder
from qdeform import (
    RealQ,
    RootOfUnity,
    hamiltonian_diagonal,
    q_numbers,
    scaled_residual,
    truncation_safe_dim,
    u_minus,
    u_plus,
    verify_hamiltonian,
    verify_realization,
    verify_relations,
)
from qdeform.roots import cos_pi_times, sin_pi_times

from reference import abs_q_number, build_ladder

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
        results[name] = scaled_residual(delta[window].ravel(), *(r[window].ravel() for r in refs))

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
        h = param.half_value
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
    number_raising = number @ raising
    lowering_number = lowering @ number
    check(
        "number_commutator_up",
        number_raising - raising @ number - raising,
        raising,
        number_raising,
    )
    check(
        "number_commutator_down",
        number @ lowering - lowering_number + lowering,
        lowering,
        lowering_number,
    )
    return results


def dense_hamiltonian_equivalence(param, dim):
    raising, lowering = build_ladder(param, dim)
    raising_dag = raising.conj().T
    lowering_dag = lowering.conj().T
    from_lowering = 0.5 * (lowering @ lowering_dag + lowering_dag @ lowering)
    from_raising = 0.5 * (raising @ raising_dag + raising_dag @ raising)
    direct = np.diag(hamiltonian_diagonal(q_numbers(param, dim))).astype(complex)
    upto = truncation_safe_dim(param, dim)
    window = (slice(0, upto), slice(0, upto))
    candidates = [c[window].ravel() for c in (from_lowering, from_raising, direct)]
    return max(
        scaled_residual(candidates[i] - candidates[k], candidates[i], candidates[k])
        for i in range(3)
        for k in range(i + 1, 3)
    )


def dense_gap(a, b):
    return scaled_residual((a - b).ravel(), a.ravel(), b.ravel())


def test_relations_match_dense_products():
    for param, dim in CASES:
        dense = dense_relations(param, dim)
        vector = verify_relations(q_numbers(param, dim))
        assert list(vector) == list(dense), (param, dim)
        for name, value in vector.items():
            expected = dense[name]
            where = (param, dim, name)
            assert abs(value - expected) <= ROUNDING, where
            assert (value <= VERDICT_TOL) == (expected <= VERDICT_TOL), where


def test_hamiltonian_equivalence_matches_dense_products():
    for param, dim in CASES:
        expected = dense_hamiltonian_equivalence(param, dim)
        numbers = q_numbers(param, dim)
        gap = verify_hamiltonian(numbers, hamiltonian_diagonal(numbers))["three_constructions_agree"]
        assert abs(gap - expected) <= ROUNDING, (param, dim)


def test_eigensolver_cross_check():
    # H is diagonal by construction; a general Hermitian solver, run on the
    # dense matrix, must return exactly the sorted diagonal
    for param, dim in CASES:
        diagonal = hamiltonian_diagonal(q_numbers(param, dim))
        solved = np.linalg.eigvalsh(np.diag(diagonal))
        assert np.array_equal(solved, np.sort(diagonal)), (param, dim)


def test_realization_matches_dense_rescaling():
    for param, dim in CASES:
        plain = np.sqrt(np.arange(1, dim, dtype=float)).astype(complex)
        a_minus = np.diag([u_minus(param, n) for n in range(dim)]) @ np.diag(plain, 1)
        a_plus = np.diag([u_plus(param, n) for n in range(dim)]) @ np.diag(plain, -1)
        raising, lowering = build_ladder(param, dim)
        if isinstance(param, RealQ):
            expected = max(dense_gap(a_plus, raising), dense_gap(a_minus, lowering))
        else:
            expected = max(
                dense_gap(np.abs(a_plus), np.abs(raising)),
                dense_gap(np.abs(a_minus), np.abs(lowering)),
            )
        residuals = verify_realization(q_numbers(param, dim))
        assert abs(residuals["realization_matches_direct"] - expected) <= ROUNDING, (param, dim)
        unitarity = dense_gap(a_plus, a_minus.conj().T)
        assert abs(residuals["unitary_for_real_q"] - unitarity) <= ROUNDING, (param, dim)


def test_relations_match_dense_products_on_a_perturbed_ladder(monkeypatch):
    # on the true amplitudes most residuals are 0.0 or rounding, so a relation
    # reported under its twin's name would pass unseen; perturbed amplitudes
    # make every relation fail by its own amount
    exact = ladder.q_numbers

    def perturbed(param, dim):
        numbers = exact(param, dim)
        amps = list(numbers.amplitudes)
        amps[1] *= 1 + 1e-3
        amps[dim - 3] += 2e-3j  # the last transition but one inside the space
        return ladder.QNumbers(**{**vars(numbers), "amplitudes": tuple(amps)})

    monkeypatch.setattr(ladder, "q_numbers", perturbed)
    cases = [(RealQ(0.5), 8), (RealQ(2.5), 9), (RootOfUnity(7, 1), 7), (RootOfUnity(8, 3), 8)]
    cases += [(RootOfUnity(6, 2), 12), (RootOfUnity(9, 1), 14)]
    for param, dim in cases:
        dense = dense_relations(param, dim)
        vector = verify_relations(ladder.q_numbers(param, dim))
        assert list(vector) == list(dense), (param, dim)
        assert max(dense.values()) > 1e-6, (param, dim)
        for name, value in vector.items():
            assert abs(value - dense[name]) <= ROUNDING, (param, dim, name)
