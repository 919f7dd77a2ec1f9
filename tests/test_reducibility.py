"""Representation classification and the gcd block decomposition."""

import cmath
import math

import numpy as np

from qdeform import (
    IrreducibleFinite,
    IrreducibleInfinite,
    RealQ,
    Reducible,
    RootOfUnity,
    abs_q_number,
    build_ladder,
    classify,
    decompose,
    q_number_is_zero,
    q_number_value,
    verify_invariant_subspaces,
)


def test_classify_examples():
    assert classify(RealQ(0.7)) == IrreducibleInfinite()
    assert classify(RootOfUnity(5, 2)) == IrreducibleFinite(5)
    result = classify(RootOfUnity(6, 2))
    assert isinstance(result, Reducible)
    assert result.decomposition.block_count == 2
    assert result.decomposition.block_dim == 3


def test_classify_finite_iff_coprime():
    for m in range(2, 61):
        for j in range(1, m):
            result = classify(RootOfUnity(m, j))
            if math.gcd(j, m) == 1:
                assert result == IrreducibleFinite(m)
            else:
                assert isinstance(result, Reducible)


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
            decomposition = decompose(root)
            r = math.gcd(j, m)
            assert decomposition.block_count == r
            assert decomposition.block_dim == m // r
            assert decomposition.block_count * decomposition.block_dim == m
            smallest = next(n for n in range(1, m + 1) if q_number_is_zero(n, root))
            assert smallest == decomposition.block_dim


def test_invariant_subspaces_sweep():
    for m in range(2, 41):
        for j in range(1, m):
            root = RootOfUnity(m, j)
            report = verify_invariant_subspaces(root, decompose(root))
            assert report.ok, report.violations
            assert report.max_boundary_amplitude == 0.0


def test_wrong_blocks_report_the_boundary_amplitude():
    # the fundamental order-6 root is irreducible: cutting it into the
    # (6, 2) blocks puts the nonvanishing amplitude sqrt({3}_q) on a boundary
    root = RootOfUnity(6, 1)
    report = verify_invariant_subspaces(root, decompose(RootOfUnity(6, 2)))
    assert not report.ok
    assert report.max_boundary_amplitude == abs(cmath.sqrt(q_number_value(3, root)))


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
            decomposition = decompose(root)
            l = decomposition.block_dim
            for k in range(decomposition.block_count):
                for i in range(1, l):
                    assert abs_q_number(k * l + i, root) == abs_q_number(i, root.reduced())
            if root.is_primitive:
                continue
            ambient_raising, _ = build_ladder(root, m)
            reduced_raising, _ = build_ladder(root.reduced(), l)
            for block in decomposition.blocks:
                window = slice(block[0], block[-1] + 1)
                sub = ambient_raising[window, window]
                assert np.max(np.abs(np.abs(sub) - np.abs(reduced_raising))) < 1e-12
