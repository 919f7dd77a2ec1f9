"""Representation classification and the gcd block decomposition."""

import json
import math

import numpy as np
import pytest

import qdeform.cli as cli
from qdeform import (
    RealQ,
    RootOfUnity,
    classify,
    decompose,
    q_number_is_zero,
    q_number_value,
    q_numbers,
    verify_invariant_subspaces,
)

from reference import abs_q_number, build_ladder


def test_classify_examples():
    assert classify(RealQ(0.7)) == "irreducible_infinite"
    assert classify(RootOfUnity(5, 2)) == "irreducible_finite"
    assert decompose(RootOfUnity(5, 2)).block_dim == 5
    assert classify(RootOfUnity(6, 2)) == "reducible"
    assert decompose(RootOfUnity(6, 2)).block_count == 2
    assert decompose(RootOfUnity(6, 2)).block_dim == 3


def test_each_class_carries_the_label_the_cli_reports(capsys):
    for m, j in ((5, 2), (6, 2)):
        assert cli.main(["classify", str(m), str(j)]) == 0
        reported = json.loads(capsys.readouterr().out)["results"]["classification"]
        assert reported == classify(RootOfUnity(m, j))
    assert type(classify(RealQ(0.7))) is str


def test_classify_finite_iff_coprime():
    for m in range(2, 61):
        for j in range(1, m):
            result = classify(RootOfUnity(m, j))
            if math.gcd(j, m) == 1:
                assert result == "irreducible_finite"
                assert decompose(RootOfUnity(m, j)).block_dim == m
            else:
                assert result == "reducible"


def test_decompose_examples():
    three_blocks = decompose(RootOfUnity(6, 3))
    assert three_blocks.block_count == 3
    assert three_blocks.block_dim == 2
    assert three_blocks.blocks == (range(0, 2), range(2, 4), range(4, 6))

    single = decompose(RootOfUnity(6, 1))
    assert single.block_count == 1
    assert single.blocks == (range(0, 6),)

    same_as_inverse = decompose(RootOfUnity(6, 4))
    assert same_as_inverse.block_count == 2
    assert same_as_inverse.block_dim == 3


def test_gcd_law_sweep():
    for m in range(2, 61):
        for j in range(1, m):
            root = RootOfUnity(m, j)
            reduced = RootOfUnity(*root.canonical_reduce())
            decomposition = decompose(root)
            r = math.gcd(j, m)
            assert root.block_count == r
            assert decomposition.block_count == r
            assert decomposition.block_dim == m // r
            assert decomposition.block_count * decomposition.block_dim == m
            smallest = next(n for n in range(1, m + 1) if q_number_is_zero(n, root))
            assert smallest == decomposition.block_dim


def test_invariant_subspaces_sweep():
    for m in range(2, 41):
        for j in range(1, m):
            root = RootOfUnity(m, j)
            residuals = verify_invariant_subspaces(q_numbers(root), decompose(root))
            assert residuals == {"blocks_are_invariant": 0.0}, (m, j)


def test_wrong_blocks_count_their_misplaced_transitions():
    # the fundamental order-6 root is irreducible: cutting it into the (6, 2)
    # blocks puts a block top at n = 2, where the amplitude sqrt({3}_q) is
    # nonzero; the top at n = 5 is the root's own vanishing transition
    root = RootOfUnity(6, 1)
    residuals = verify_invariant_subspaces(q_numbers(root), decompose(RootOfUnity(6, 2)))
    assert q_number_value(3, root) != 0
    assert residuals == {"blocks_are_invariant": 1.0}


def test_boundary_states_explicit():
    raising, lowering = build_ladder(RootOfUnity(6, 2), 6)
    # raising annihilates the top of each 3-dim block, lowering the bottom
    for top in (2, 5):
        assert np.all(raising[:, top] == 0)
    for bottom in (0, 3):
        assert np.all(lowering[:, bottom] == 0)
    # interior transitions stay nonzero
    assert raising[1, 0] != 0 and raising[2, 1] != 0
    assert raising[4, 3] != 0 and raising[5, 4] != 0


def test_single_block_boundary():
    raising, _ = build_ladder(RootOfUnity(6, 1), 6)
    zero_columns = [n for n in range(6) if np.all(raising[:, n] == 0)]
    assert zero_columns == [5]


def test_blocks_equivalent_to_reduced_root():
    # each block of the ambient ladder matches the ladder built directly at
    # the reduced root: exactly in |{n}| (shared reduced angle), within
    # 1e-12 in entry modulus (phases are out of scope)
    for m in range(2, 21):
        for j in range(1, m):
            root = RootOfUnity(m, j)
            reduced = RootOfUnity(*root.canonical_reduce())
            decomposition = decompose(root)
            l = decomposition.block_dim
            for k in range(decomposition.block_count):
                for i in range(1, l):
                    assert abs_q_number(k * l + i, root) == abs_q_number(i, reduced)
            if root.is_primitive:
                continue
            ambient_raising, _ = build_ladder(root, m)
            reduced_raising, _ = build_ladder(reduced, l)
            for block in decomposition.blocks:
                window = slice(block[0], block[-1] + 1)
                sub = ambient_raising[window, window]
                assert np.max(np.abs(np.abs(sub) - np.abs(reduced_raising))) < 1e-12


def test_blocks_of_another_root_are_invariant_iff_the_gcds_agree():
    # blocks of (m, k) are invariant at (m, j) exactly when both roots cut the
    # order-m space into the same number of blocks; otherwise some transition
    # vanishes inside a block or some block top has a nonzero amplitude.  The
    # misplaced transitions are |P ^ T|: P the transitions n -> n+1 that vanish
    # at root j, T the block tops of (m, k), both read off the gcds alone
    for m in range(2, 25):
        for j in range(1, m):
            numbers = q_numbers(RootOfUnity(m, j))
            vanishing = {n for n in range(m) if (n + 1) % (m // math.gcd(j, m)) == 0}
            for k in range(1, m):
                residuals = verify_invariant_subspaces(numbers, decompose(RootOfUnity(m, k)))
                tops = {n for n in range(m) if (n + 1) % (m // math.gcd(k, m)) == 0}
                misplaced = residuals["blocks_are_invariant"]
                assert misplaced == len(vanishing ^ tops), (m, j, k)
                assert (misplaced == 0.0) == (math.gcd(j, m) == math.gcd(k, m)), (m, j, k)


def test_invariant_subspaces_need_the_root_order():
    # the blocks cover the order-m space, and the last amplitude read is the one out of state m-1
    root = RootOfUnity(6, 2)
    for dim in (5, 7):
        with pytest.raises(ValueError, match="dim == order 6"):
            verify_invariant_subspaces(q_numbers(root, dim), decompose(root))
