"""Tests for wavelet trees (Huffman-shaped, balanced) and the wavelet matrix."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConstructionError, QueryError
from repro.wavelet import (
    BalancedWaveletTree,
    HuffmanWaveletTree,
    WaveletMatrix,
    WaveletTree,
    fixed_width_codes,
    plain_bitvector_factory,
    rrr_bitvector_factory,
)

STRUCTURES = {
    "hwt-plain": lambda seq: HuffmanWaveletTree(seq, plain_bitvector_factory()),
    "hwt-rrr": lambda seq: HuffmanWaveletTree(seq, rrr_bitvector_factory(31)),
    "balanced": lambda seq: BalancedWaveletTree(seq),
    "wm-plain": lambda seq: WaveletMatrix(seq),
    "wm-rrr": lambda seq: WaveletMatrix(seq, bitvector_factory=rrr_bitvector_factory(15)),
}


def naive_rank(sequence, symbol, i):
    return int(np.count_nonzero(np.asarray(sequence[:i]) == symbol))


@pytest.fixture(scope="module")
def skewed_sequence():
    rng = np.random.default_rng(5)
    return rng.choice(30, size=600, p=np.array([0.4] + [0.6 / 29] * 29)).astype(np.int64)


class TestRankAndAccess:
    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_rank_matches_naive(self, name, skewed_sequence):
        structure = STRUCTURES[name](skewed_sequence)
        for i in range(0, len(skewed_sequence) + 1, 37):
            for symbol in (0, 1, 7, 29, 31):
                assert structure.rank(symbol, i) == naive_rank(skewed_sequence, symbol, i)

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_access_matches_sequence(self, name, skewed_sequence):
        structure = STRUCTURES[name](skewed_sequence)
        for i in range(0, len(skewed_sequence), 23):
            assert structure.access(i) == skewed_sequence[i]

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_full_rank_equals_counts(self, name, skewed_sequence):
        structure = STRUCTURES[name](skewed_sequence)
        counts = np.bincount(skewed_sequence)
        for symbol, count in enumerate(counts):
            assert structure.rank(symbol, len(skewed_sequence)) == count

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_absent_symbol_rank_zero(self, name):
        structure = STRUCTURES[name]([2, 3, 2, 5])
        assert structure.rank(4, 4) == 0

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_bounds_checking(self, name):
        structure = STRUCTURES[name]([1, 2, 3])
        with pytest.raises(QueryError):
            structure.rank(1, 4)
        with pytest.raises(QueryError):
            structure.access(3)

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_single_symbol_sequence(self, name):
        structure = STRUCTURES[name]([4, 4, 4, 4])
        assert structure.rank(4, 3) == 3
        assert structure.access(2) == 4

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_empty_rejected(self, name):
        with pytest.raises(ConstructionError):
            STRUCTURES[name]([])


class TestHuffmanShape:
    def test_depth_reflects_frequency(self, skewed_sequence):
        tree = HuffmanWaveletTree(skewed_sequence)
        dominant = 0  # symbol 0 has ~40% of the mass
        rare = int(skewed_sequence[-1])
        assert tree.depth_of(dominant) <= tree.depth_of(rare) or dominant == rare

    def test_average_depth_close_to_entropy(self, skewed_sequence):
        from repro.analysis import empirical_entropy_h0

        tree = HuffmanWaveletTree(skewed_sequence)
        entropy = empirical_entropy_h0(skewed_sequence)
        assert entropy - 1e-9 <= tree.average_depth() < entropy + 1.0

    def test_depth_of_unknown_symbol(self, skewed_sequence):
        tree = HuffmanWaveletTree(skewed_sequence)
        from repro.exceptions import AlphabetError

        with pytest.raises(AlphabetError):
            tree.depth_of(10_000)

    def test_low_entropy_sequence_is_smaller_than_balanced(self):
        rng = np.random.default_rng(0)
        seq = rng.choice(64, size=4000, p=np.array([0.8] + [0.2 / 63] * 63)).astype(np.int64)
        hwt = HuffmanWaveletTree(seq, rrr_bitvector_factory(63))
        balanced = BalancedWaveletTree(seq, rrr_bitvector_factory(63))
        assert hwt.size_in_bits() < balanced.size_in_bits()

    def test_node_count_bounded_by_alphabet(self, skewed_sequence):
        tree = HuffmanWaveletTree(skewed_sequence)
        distinct = len(np.unique(skewed_sequence))
        assert tree.node_count() <= distinct

    @pytest.mark.parametrize(
        "factory, huffman_bits, balanced_bits",
        [
            (plain_bitvector_factory(), 31281, 38985),
            (rrr_bitvector_factory(15), 26461, 28307),
            (rrr_bitvector_factory(31), 25810, 26822),
            (rrr_bitvector_factory(63), 25820, 26360),
        ],
        ids=["plain", "rrr-15", "rrr-31", "rrr-63"],
    )
    def test_size_in_bits_pinned(self, factory, huffman_bits, balanced_bits):
        """The paper's accounting, summed over the nodes from the flat arrays.

        The values are those of the per-node bit vectors' own
        ``size_in_bits`` before the tree stopped building them.
        """
        seq = np.random.default_rng(2024).zipf(1.5, 3000) % 64
        shapes = ((HuffmanWaveletTree, huffman_bits), (BalancedWaveletTree, balanced_bits))
        for cls, expected in shapes:
            tree = cls(seq, factory)
            assert tree.node_count() == 63
            assert tree.size_in_bits() == expected
            assert cls.from_arrays(tree.arrays()).size_in_bits() == expected


class TestGenericWaveletTree:
    def test_missing_codes_rejected(self):
        with pytest.raises(ConstructionError):
            WaveletTree([1, 2, 3], codes={1: (0,), 2: (1, 0)})

    def test_non_prefix_free_codes_rejected(self):
        with pytest.raises(ConstructionError):
            WaveletTree([1, 2, 2, 1, 3], codes={1: (0,), 2: (0, 1), 3: (1,)})

    def test_fixed_width_codes_are_distinct(self):
        codes = fixed_width_codes([5, 9, 2, 7])
        assert len(set(codes.values())) == 4
        widths = {len(code) for code in codes.values()}
        assert widths == {2}

    def test_codes_property_returns_copy(self, skewed_sequence):
        tree = HuffmanWaveletTree(skewed_sequence)
        codes = tree.codes
        codes.clear()
        assert tree.codes  # internal state unaffected


class TestWaveletMatrix:
    def test_levels(self):
        assert WaveletMatrix([0, 1, 2, 3], sigma=4).levels == 2
        assert WaveletMatrix([0, 1], sigma=1000).levels == 10

    def test_sigma_too_small_rejected(self):
        with pytest.raises(ConstructionError):
            WaveletMatrix([5, 1], sigma=3)

    def test_negative_symbols_rejected(self):
        with pytest.raises(ConstructionError):
            WaveletMatrix([-1, 2])

    def test_rank_out_of_alphabet_is_zero(self):
        wm = WaveletMatrix([1, 2, 3], sigma=8)
        assert wm.rank(7, 3) == 0
        assert wm.rank(100, 3) == 0

    def test_size_smaller_with_rrr_on_biased_data(self):
        seq = np.zeros(5000, dtype=np.int64)
        seq[::100] = 5
        plain = WaveletMatrix(seq, sigma=8)
        compressed = WaveletMatrix(seq, sigma=8, bitvector_factory=rrr_bitvector_factory(63))
        assert compressed.size_in_bits() < plain.size_in_bits()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=200))
def test_all_structures_agree_on_arbitrary_sequences(sequence):
    arr = np.asarray(sequence, dtype=np.int64)
    structures = [
        HuffmanWaveletTree(arr),
        BalancedWaveletTree(arr),
        WaveletMatrix(arr),
    ]
    n = len(sequence)
    positions = {0, n // 2, n}
    symbols = set(sequence[:3]) | {0, 20}
    for i in positions:
        for symbol in symbols:
            expected = naive_rank(sequence, symbol, i)
            for structure in structures:
                assert structure.rank(symbol, i) == expected
    for structure in structures:
        assert structure.access(n - 1) == sequence[n - 1]
