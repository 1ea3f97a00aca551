"""Property tests for the batch query API and the flat-node wavelet refactor.

The contract of every ``*_many`` method is *bit-identical* agreement with its
scalar counterpart: batching is purely an execution strategy.  These tests pin
that contract on randomized inputs across every bitvector backend, every
wavelet structure and every FM-index variant, and additionally pin the wavelet
``rank``/``access`` results against naive reference implementations so the
flat-node refactor cannot drift from the original tuple-keyed tree.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CiNCT
from repro.exceptions import QueryError
from repro.fmindex import FixedBlockFMIndex
from repro.fmindex.variants import available_baselines, build_baseline
from repro.succinct import BitVector, RRRBitVector, decode_block
from repro.wavelet import (
    BalancedWaveletTree,
    HuffmanWaveletTree,
    WaveletMatrix,
    WaveletTree,
    rrr_bitvector_factory,
)

BITVECTOR_BACKENDS = {
    "plain": lambda bits: BitVector(bits),
    "rrr-15": lambda bits: RRRBitVector(bits, block_size=15),
    "rrr-63": lambda bits: RRRBitVector(bits, block_size=63, sample_rate=4),
}


# --------------------------------------------------------------------- #
# succinct layer
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", sorted(BITVECTOR_BACKENDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_rank_many_matches_scalar(backend, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    bv = BITVECTOR_BACKENDS[backend](bits)
    positions = data.draw(
        st.lists(st.integers(0, len(bits)), min_size=0, max_size=50)
    )
    expected1 = [bv.rank1(p) for p in positions]
    expected0 = [bv.rank0(p) for p in positions]
    assert bv.rank1_many(positions).tolist() == expected1
    assert bv.rank0_many(positions).tolist() == expected0


@pytest.mark.parametrize("backend", sorted(BITVECTOR_BACKENDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_access_many_matches_scalar(backend, data):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=1, max_size=300))
    bv = BITVECTOR_BACKENDS[backend](bits)
    positions = data.draw(
        st.lists(st.integers(0, len(bits) - 1), min_size=0, max_size=50)
    )
    assert bv.access_many(positions).tolist() == [bv.access(p) for p in positions]
    assert bv.to_list() == [int(b) for b in bits]


@pytest.mark.parametrize("backend", sorted(BITVECTOR_BACKENDS))
def test_rank_many_bounds_checked(backend):
    bv = BITVECTOR_BACKENDS[backend]([1, 0, 1])
    with pytest.raises(QueryError):
        bv.rank1_many([0, 4])
    with pytest.raises(QueryError):
        bv.access_many([-1])


@pytest.mark.parametrize("backend", sorted(BITVECTOR_BACKENDS))
def test_select_directories_on_long_vectors(backend):
    """Select must agree with rank over multiple select-sample buckets."""
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, 3000).tolist()
    bv = BITVECTOR_BACKENDS[backend](bits)
    ones = 0
    zeros = 0
    for position, bit in enumerate(bits):
        if bit:
            ones += 1
            if ones % 97 == 0:
                assert bv.select1(ones) == position
        else:
            zeros += 1
            if zeros % 97 == 0:
                assert bv.select0(zeros) == position


# --------------------------------------------------------------------- #
# wavelet layer
# --------------------------------------------------------------------- #
WAVELET_STRUCTURES = {
    "hwt-plain": lambda seq: HuffmanWaveletTree(seq),
    "hwt-rrr": lambda seq: HuffmanWaveletTree(seq, rrr_bitvector_factory(31)),
    "hwt-rrr-15": lambda seq: HuffmanWaveletTree(seq, rrr_bitvector_factory(15)),
    "hwt-rrr-63": lambda seq: HuffmanWaveletTree(seq, rrr_bitvector_factory(63)),
    "balanced": lambda seq: BalancedWaveletTree(seq),
    "balanced-rrr-15": lambda seq: BalancedWaveletTree(seq, rrr_bitvector_factory(15)),
    "wm": lambda seq: WaveletMatrix(seq),
}


def boundary_positions(n: int) -> list[int]:
    """0, ``n`` and every multiple of a block size in use (RRR 15/31/63, 64-bit
    words), with its neighbours, clipped to ``[0, n]``."""
    positions = {0, n}
    for block in (15, 31, 63, 64):
        for k in range(block, n + 1, block):
            positions.update((k - 1, k, k + 1))
    return sorted(p for p in positions if 0 <= p <= n)


def node_bitmaps(tree: WaveletTree) -> list[list[int]]:
    """Each node's bitmap, decoded block by block from the flat arrays.

    RRR blocks go through the scalar reference decoder :func:`decode_block`;
    plain blocks are the low bits of each 64-bit word.  Neither reads the
    tree's word memo.
    """
    flat = tree.arrays()
    lengths = flat["node_lengths"].tolist()
    if "classes" in flat:
        b = int(flat["block_bits"][0])
        blocks = [
            decode_block(cls, offset, b)
            for cls, offset in zip(flat["classes"].tolist(), flat["offsets"].tolist())
        ]
    else:
        b = 64
        blocks = [[(word >> i) & 1 for i in range(64)] for word in flat["words"].tolist()]
    bitmaps, start = [], 0
    for length in lengths:
        n_blocks = -(-length // b)
        bits = [bit for block in blocks[start : start + n_blocks] for bit in block]
        bitmaps.append(bits[:length])
        start += n_blocks
    assert start == len(blocks) - 1  # one zero block ends the directory
    return bitmaps


def assert_kernel_matches_nodes(tree: WaveletTree) -> None:
    """The flat block directory against a naive count over each node's bitmap.

    Every node at 0, at its end and around each block boundary, all in one
    mixed-node kernel call.
    """
    nodes, positions, expected = [], [], []
    for node, bitmap in enumerate(node_bitmaps(tree)):
        for p in boundary_positions(len(bitmap)):
            nodes.append(node)
            positions.append(p)
            expected.append(sum(bitmap[:p]))
    assert len(nodes) >= tree.node_count()
    ones = tree._node_rank1(np.asarray(nodes), np.asarray(positions))[0]
    assert ones.tolist() == expected


def assert_inverse_select_matches_naive(tree: WaveletTree, sequence: list[int], positions) -> None:
    """``inverse_select`` (scalar and batched) against the sequence itself."""
    positions = list(positions)
    expected = [(sequence[p], sequence[:p].count(sequence[p])) for p in positions]
    assert [tree.inverse_select(p) for p in positions] == expected
    symbols, ranks = tree.inverse_select_many(positions)
    assert list(zip(symbols.tolist(), ranks.tolist())) == expected


@pytest.mark.parametrize("name", sorted(WAVELET_STRUCTURES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_wavelet_flat_nodes_match_naive(name, data):
    """Regression: the flat-node refactor leaves rank/access unchanged."""
    sequence = data.draw(
        st.lists(st.integers(0, 15), min_size=1, max_size=150)
    )
    structure = WAVELET_STRUCTURES[name](np.asarray(sequence, dtype=np.int64))
    n = len(sequence)
    boundaries = boundary_positions(n)
    for i in boundaries:
        for symbol in set(sequence[:4]) | {0, 15, 17}:
            assert structure.rank(symbol, i) == sequence[:i].count(symbol)
    for i in boundaries:
        if i < n:
            assert structure.access(i) == sequence[i]
    if isinstance(structure, WaveletTree):
        assert_inverse_select_matches_naive(structure, sequence, (p for p in boundaries if p < n))


@pytest.mark.parametrize("name", sorted(WAVELET_STRUCTURES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_wavelet_many_matches_scalar(name, data):
    sequence = data.draw(
        st.lists(st.integers(0, 15), min_size=1, max_size=150)
    )
    structure = WAVELET_STRUCTURES[name](np.asarray(sequence, dtype=np.int64))
    n = len(sequence)
    boundaries = boundary_positions(n)
    rank_positions = data.draw(st.lists(st.integers(0, n), min_size=0, max_size=30))
    rank_positions += boundaries
    symbol = data.draw(st.integers(0, 16))
    expected = [structure.rank(symbol, p) for p in rank_positions]
    assert expected == [sequence[:p].count(symbol) for p in rank_positions]
    assert structure.rank_many(symbol, rank_positions).tolist() == expected
    access_positions = data.draw(
        st.lists(st.integers(0, n - 1), min_size=0, max_size=30)
    )
    access_positions += [p for p in boundaries if p < n]
    symbols = [structure.access(p) for p in access_positions]
    assert symbols == [sequence[p] for p in access_positions]
    assert structure.access_many(access_positions).tolist() == symbols
    if not isinstance(structure, WaveletTree):
        return
    # The fused descent: each position's symbol and that symbol's rank.
    ranks = [structure.rank(s, p) for s, p in zip(symbols, access_positions)]
    got_symbols, got_ranks = structure.inverse_select_many(access_positions)
    assert got_symbols.tolist() == symbols
    assert got_ranks.tolist() == ranks
    assert [structure.inverse_select(p) for p in access_positions] == list(zip(symbols, ranks))
    assert_inverse_select_matches_naive(structure, sequence, access_positions)
    # rank(s, n) visits every node on s's path at that node's end.
    alphabet = sorted(set(sequence)) + [-1, 17]
    assert structure.rank_pairs(alphabet, [n] * len(alphabet)).tolist() == [
        sequence.count(s) for s in alphabet
    ]
    assert_kernel_matches_nodes(structure)


# --------------------------------------------------------------------- #
# FM-index layer
# --------------------------------------------------------------------- #
def _workload(bwt_result, rng, n_patterns=25, max_length=8):
    """Random patterns: data windows, absent paths and short single symbols."""
    text = bwt_result.text
    patterns = []
    for _ in range(n_patterns):
        length = int(rng.integers(1, max_length + 1))
        start = int(rng.integers(0, max(text.size - length, 1)))
        window = text[start : start + length]
        if window.size == 0:
            window = text[:1]
        patterns.append([int(s) for s in window[::-1]])
    # Patterns that likely do not occur at all.
    patterns.append([2] * 3)
    patterns.append([int(bwt_result.sigma - 1), 2])
    return patterns


@pytest.fixture(scope="module")
def fm_variants(medium_bwt):
    variants = [build_baseline(name, medium_bwt, block_size=31) for name in available_baselines()]
    variants.append(FixedBlockFMIndex(medium_bwt, block_length=256, rrr_block_size=31))
    return variants


def test_fm_batch_matches_scalar(fm_variants, medium_bwt, rng):
    patterns = _workload(medium_bwt, rng)
    for variant in fm_variants:
        expected_ranges = [variant.suffix_range(p) for p in patterns]
        assert variant.suffix_range_many(patterns) == expected_ranges, variant.name
        assert variant.count_many(patterns) == [variant.count(p) for p in patterns]


def test_fm_extract_many_matches_scalar(fm_variants, rng):
    for variant in fm_variants:
        rows = rng.integers(0, variant.length, 20).tolist()
        for length in (0, 1, 5):
            assert variant.extract_many(rows, length) == [
                variant.extract(row, length) for row in rows
            ], variant.name


def test_fm_rank_bwt_many_matches_scalar(fm_variants, medium_bwt, rng):
    positions = rng.integers(0, medium_bwt.length + 1, 40)
    symbols = rng.integers(0, medium_bwt.sigma, 6)
    for variant in fm_variants:
        for symbol in symbols:
            expected = [variant.rank_bwt(int(symbol), int(p)) for p in positions]
            assert variant.rank_bwt_many(int(symbol), positions).tolist() == expected
        rows = rng.integers(0, medium_bwt.length, 40)
        assert variant.access_bwt_many(rows).tolist() == [
            variant.access_bwt(int(j)) for j in rows
        ]


# --------------------------------------------------------------------- #
# CiNCT
# --------------------------------------------------------------------- #
def test_cinct_batch_matches_scalar(medium_cinct, medium_bwt, rng):
    patterns = _workload(medium_bwt, rng, n_patterns=40)
    expected = [medium_cinct.suffix_range(p) for p in patterns]
    assert medium_cinct.suffix_range_many(patterns) == expected
    assert medium_cinct.count_many(patterns) == [medium_cinct.count(p) for p in patterns]


def test_cinct_extract_many_matches_scalar(medium_cinct, rng):
    rows = rng.integers(0, medium_cinct.length, 25).tolist()
    for length in (0, 1, 6):
        assert medium_cinct.extract_many(rows, length) == [
            medium_cinct.extract(row, length) for row in rows
        ]


def test_cinct_locate_many_matches_scalar(medium_bwt, rng):
    index = CiNCT(medium_bwt, block_size=31, sa_sample_rate=4)
    rows = rng.integers(0, index.length, 30).tolist()
    assert index.locate_many(rows) == [index.locate(row) for row in rows]
    assert index.locate_many([]) == []


def test_cinct_locate_many_requires_sampling(medium_cinct):
    with pytest.raises(QueryError):
        medium_cinct.locate_many([0])


def test_batch_empty_and_validation(medium_cinct, fm_variants):
    assert medium_cinct.suffix_range_many([]) == []
    assert medium_cinct.count_many([]) == []
    for variant in fm_variants[:1]:
        assert variant.suffix_range_many([]) == []
        with pytest.raises(QueryError):
            variant.suffix_range_many([[0, 1], []])
    with pytest.raises(QueryError):
        medium_cinct.suffix_range_many([[medium_cinct.sigma + 5]])


# --------------------------------------------------------------------- #
# strict-path batch surface
# --------------------------------------------------------------------- #
def test_count_paths_matches_count_path(medium_dataset):
    from repro.queries import StrictPathIndex

    index = StrictPathIndex(medium_dataset, block_size=31, sa_sample_rate=8)
    paths = [list(t.edges[:3]) for t in medium_dataset.trajectories[:10] if len(t.edges) >= 3]
    assert index.count_paths(paths) == [index.count_path(p) for p in paths]
