"""Acceptance suite: one test per criterion, at the stated tolerances and
runtime bounds.  Each test prints a single pass/fail line (visible with -s,
or in captured output on failure)."""

import contextlib
import functools
import io
import json
import math
import time

import numpy as np

from qdeform import (
    RealQ,
    RootOfUnity,
    decompose,
    gauss_binomial,
    hamiltonian_diagonal,
    partition_count,
    q_number_is_zero,
    q_numbers,
    truncation_safe_dim,
    verify_bracket_relations,
    verify_invariant_subspaces,
    verify_realization,
    verify_relations,
)
from qdeform.cli import main as cli_main
from qdeform.gauss import QPoly
from qdeform.realization import UNITARITY_TOL

from reference import build_ladder

SQRT3 = math.sqrt(3)


def criterion(num, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            started = time.perf_counter()
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num:02d} FAIL  {description}")
                raise
            elapsed = time.perf_counter() - started
            print(f"ACCEPTANCE {num:02d} PASS  {description}  [{elapsed:.2f}s]")
        return run
    return wrap


def cli_json(*argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(list(argv))
    return code, json.loads(buffer.getvalue())


@criterion(1, "order-2 Hamiltonian is (0.5, 0.5) exactly, under 1 s")
def test_criterion_01():
    started = time.perf_counter()
    code, payload = cli_json("ham", "--root", "2:1")
    assert code == 0
    assert payload["results"]["diagonal"] == [0.5, 0.5]
    assert time.perf_counter() - started < 1.0


@criterion(2, "order-3 Hamiltonian is (0.5, 1.0, 0.5) exactly, under 1 s")
def test_criterion_02():
    started = time.perf_counter()
    code, payload = cli_json("ham", "--root", "3:1")
    assert code == 0
    assert payload["results"]["diagonal"] == [0.5, 1.0, 0.5]
    assert time.perf_counter() - started < 1.0


@criterion(3, "order-6 fundamental diagonal matches sin ratios; palindrome exact")
def test_criterion_03():
    code, payload = cli_json("ham", "--root", "6:1")
    assert code == 0
    diagonal = payload["results"]["diagonal"]
    expected = [0.5 * v for v in (1, 1 + SQRT3, 2 + SQRT3, 2 + SQRT3, 1 + SQRT3, 1)]
    assert max(abs(a - b) for a, b in zip(diagonal, expected)) < 1e-12
    assert diagonal == diagonal[::-1]


@criterion(4, "order-6 roots 2 and 4: (1,2,1,1,2,1)/2, identical, 2 blocks of 3")
def test_criterion_04():
    code2, payload2 = cli_json("ham", "--root", "6:2")
    code4, payload4 = cli_json("ham", "--root", "6:4")
    assert code2 == 0 and code4 == 0
    expected = [0.5 * v for v in (1, 2, 1, 1, 2, 1)]
    for payload in (payload2, payload4):
        diagonal = payload["results"]["diagonal"]
        assert max(abs(a - b) for a, b in zip(diagonal, expected)) < 1e-12
        assert payload["results"]["block_count"] == 2
        assert payload["results"]["block_dim"] == 3
        pattern = next(c for c in payload["checks"] if c["name"] == "block_pattern_repeats")
        assert pattern["passed"]
    assert payload2["results"]["diagonal"] == payload4["results"]["diagonal"]


@criterion(5, "order-6 root 3: all entries 0.5, 3 blocks of 2")
def test_criterion_05():
    code, payload = cli_json("ham", "--root", "6:3")
    assert code == 0
    diagonal = payload["results"]["diagonal"]
    assert max(abs(v - 0.5) for v in diagonal) < 1e-12
    assert payload["results"]["block_count"] == 3
    assert payload["results"]["block_dim"] == 2


@criterion(6, "every q-binomial coefficient equals the partition count, n <= 12, under 10 s")
def test_criterion_06():
    started = time.perf_counter()
    mismatches = 0
    for n in range(13):
        for m in range(n + 1):
            poly = gauss_binomial(n, m)
            for target in range(m * (n - m) + 1):
                if poly.coefficient(target) != partition_count(target, m, n - m):
                    mismatches += 1
    assert mismatches == 0
    assert time.perf_counter() - started < 10.0


@criterion(7, "polynomial identities to n = 20 exact; bracket identities to m = 50 under 1e-10; under 30 s")
def test_criterion_07():
    started = time.perf_counter()
    for n in range(21):
        for m in range(n + 1):
            assert gauss_binomial(n, m) == gauss_binomial(n, n - m)
    for n in range(2, 21):
        for m in range(1, n):
            this = gauss_binomial(n, m)
            assert this == gauss_binomial(n - 1, m) + QPoly.monomial(n - m) * gauss_binomial(n - 1, m - 1)
            assert this == gauss_binomial(n - 1, m - 1) + QPoly.monomial(m) * gauss_binomial(n - 1, m)
    residuals = verify_bracket_relations(50)
    assert all(value < 1e-10 for value in residuals.values()), residuals
    assert time.perf_counter() - started < 30.0


@criterion(8, "algebra closure: roots to m = 40 full space; BM pair at fundamental roots; real q at dim 50")
def test_criterion_08():
    for m in range(2, 41):
        for j in range(1, m):
            root = RootOfUnity(m, j)
            assert truncation_safe_dim(root, m) == m
            assert verify_relations(q_numbers(root, m))["deformed_commutator"] < 1e-12, (m, j)
    for m in range(2, 41):
        by_name = verify_relations(q_numbers(RootOfUnity(m, 1), m))
        assert by_name["biedenharn_macfarlane_down"] < 1e-12, m
        assert by_name["biedenharn_macfarlane_up"] < 1e-12, m
    for q in (0.3, 0.9, 2.5):
        by_name = verify_relations(q_numbers(RealQ(q), 50))
        assert by_name["real_q_adjoint_commutator_down"] < 1e-12, q
        assert by_name["real_q_adjoint_commutator_up"] < 1e-12, q
        assert truncation_safe_dim(RealQ(q), 50) == 49


@criterion(9, "gcd reducibility law and invariant subspaces for all m <= 60, under 30 s")
def test_criterion_09():
    started = time.perf_counter()
    for m in range(2, 61):
        for j in range(1, m):
            root = RootOfUnity(m, j)
            decomposition = decompose(root)
            r = math.gcd(j, m)
            assert decomposition.block_count == r
            assert decomposition.block_dim == m // r
            smallest = next(n for n in range(1, m + 1) if q_number_is_zero(n, root))
            assert smallest == m // r
            residuals = verify_invariant_subspaces(q_numbers(root), decomposition)
            assert residuals == {"blocks_are_invariant": 0.0}, (m, j)
    assert time.perf_counter() - started < 30.0


@criterion(10, "realization equals direct ladder; recurrence to n = 50; unitarity real yes / root 5:2 no")
def test_criterion_10():
    for q in (0.3, 0.9, 2.5):
        residuals = verify_realization(q_numbers(RealQ(q), 50))
        assert residuals["realization_matches_direct"] < 1e-12
        assert residuals["scaling_recurrence"] < 1e-12
        assert residuals["scaling_product_is_qnumber"] < 1e-12
        assert residuals["unitary_for_real_q"] <= UNITARITY_TOL
    root_residuals = verify_realization(q_numbers(RootOfUnity(5, 2), 50))
    assert root_residuals["scaling_recurrence"] < 1e-12
    assert verify_realization(q_numbers(RootOfUnity(5, 2), 5))["unitary_for_real_q"] > UNITARITY_TOL


@criterion(11, "q = 1 recovers the undeformed ladder and spectrum n + 1/2 exactly, dim 50")
def test_criterion_11():
    raising, lowering = build_ladder(RealQ(1.0), 50)
    plain = np.sqrt(np.arange(1, 50, dtype=float))
    assert np.array_equal(raising, np.diag(plain, -1))
    assert np.array_equal(lowering, np.diag(plain, 1))
    diagonal = hamiltonian_diagonal(q_numbers(RealQ(1.0), 50))
    for n in range(50):
        assert diagonal[n] == n + 0.5
