"""Tests for the RRR compressed bit vector."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConstructionError, QueryError
from repro.succinct import (
    BitVector,
    RRRBitVector,
    decode_block,
    decode_blocks,
    encode_block,
    offset_bits,
)


class TestBlockCoding:
    @pytest.mark.parametrize("b", [3, 7, 15, 31, 63])
    def test_roundtrip_random_blocks(self, b):
        rng = np.random.default_rng(b)
        blocks = []
        for density in np.linspace(0.0, 1.0, 30):
            bits = [int(x) for x in rng.random(b) < density]
            cls, offset = encode_block(bits, b)
            assert cls == sum(bits)
            assert decode_block(cls, offset, b) == bits
            blocks.append((cls, offset, bits))
        # The batch decode into words agrees with the scalar one, bit i = position i.
        classes, offsets, expected = zip(*blocks)
        words = decode_blocks(
            np.asarray(classes, dtype=np.uint8), np.asarray(offsets, dtype=np.uint64), b
        )
        assert words.dtype == np.uint64
        for word, bits in zip(words.tolist(), expected):
            assert [(word >> i) & 1 for i in range(b)] == bits
            assert word >> b == 0

    @pytest.mark.parametrize("b", [1, 5, 15, 63])
    def test_roundtrip_extreme_blocks(self, b):
        for bits in ([0] * b, [1] * b, [1] + [0] * (b - 1), [0] * (b - 1) + [1]):
            cls, offset = encode_block(bits, b)
            assert decode_block(cls, offset, b) == list(bits)

    def test_offset_is_dense(self):
        """All blocks of the same class get distinct offsets in [0, C(b, c))."""
        b = 6
        seen: dict[int, set[int]] = {}
        for value in range(2**b):
            bits = [(value >> (b - 1 - k)) & 1 for k in range(b)]
            cls, offset = encode_block(bits, b)
            assert offset < 2 ** offset_bits(b, cls) or offset_bits(b, cls) == 0
            seen.setdefault(cls, set())
            assert offset not in seen[cls]
            seen[cls].add(offset)

    def test_wrong_block_length_rejected(self):
        with pytest.raises(ConstructionError):
            encode_block([1, 0], 3)

    def test_offset_bits_monotone_in_class_balance(self):
        assert offset_bits(15, 0) == 0
        assert offset_bits(15, 7) >= offset_bits(15, 1)


class TestRRRQueries:
    @pytest.mark.parametrize("b", [15, 31, 63])
    @pytest.mark.parametrize("density", [0.05, 0.5, 0.95])
    def test_rank_access_match_plain(self, b, density):
        rng = np.random.default_rng(int(b * 100 * density))
        bits = (rng.random(700) < density).astype(int)
        plain = BitVector(bits)
        rrr = RRRBitVector(bits, block_size=b)
        for i in range(0, 701, 13):
            assert rrr.rank1(i) == plain.rank1(i)
            assert rrr.rank0(i) == plain.rank0(i)
        for i in range(0, 700, 17):
            assert rrr.access(i) == plain.access(i)

    def test_to_list_roundtrip(self):
        bits = [1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1]
        assert RRRBitVector(bits, block_size=5).to_list() == bits

    def test_select_matches_plain(self):
        rng = np.random.default_rng(3)
        bits = (rng.random(300) < 0.3).astype(int)
        plain = BitVector(bits)
        rrr = RRRBitVector(bits, block_size=15)
        for k in range(1, plain.n_ones + 1, 3):
            assert rrr.select1(k) == plain.select1(k)
        for k in range(1, plain.n_zeros + 1, 7):
            assert rrr.select0(k) == plain.select0(k)

    def test_counts(self):
        bits = [1, 0, 1, 1, 0, 0, 0, 1]
        rrr = RRRBitVector(bits, block_size=3)
        assert rrr.n_ones == 4
        assert rrr.n_zeros == 4

    def test_empty_vector(self):
        rrr = RRRBitVector([], block_size=15)
        assert len(rrr) == 0
        assert rrr.rank1(0) == 0

    def test_rank_bounds(self):
        rrr = RRRBitVector([1, 0, 1], block_size=15)
        with pytest.raises(QueryError):
            rrr.rank1(4)
        with pytest.raises(QueryError):
            rrr.access(3)

    def test_invalid_parameters(self):
        with pytest.raises(ConstructionError):
            RRRBitVector([1, 0], block_size=0)
        with pytest.raises(ConstructionError):
            RRRBitVector([1, 0], block_size=64)
        with pytest.raises(ConstructionError):
            RRRBitVector([1, 0], block_size=15, sample_rate=0)


class TestRRRCompression:
    def test_sparse_vector_compresses(self):
        """A highly biased bit vector must take far fewer bits than its length."""
        bits = np.zeros(10_000, dtype=int)
        bits[::200] = 1
        rrr = RRRBitVector(bits, block_size=63)
        assert rrr.size_in_bits() < 0.45 * len(bits)

    def test_dense_random_vector_does_not_compress(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 10_000)
        rrr = RRRBitVector(bits, block_size=63)
        assert rrr.size_in_bits() > 0.9 * len(bits)

    def test_larger_block_size_compresses_better_on_biased_data(self):
        bits = np.zeros(20_000, dtype=int)
        bits[::50] = 1
        small_b = RRRBitVector(bits, block_size=15).size_in_bits()
        large_b = RRRBitVector(bits, block_size=63).size_in_bits()
        assert large_b < small_b

    def test_size_counts_all_components(self):
        rrr = RRRBitVector([1, 0] * 100, block_size=15)
        assert rrr.size_in_bits() > 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=300),
    st.sampled_from([7, 15, 31, 63]),
)
def test_rrr_equals_plain_on_arbitrary_inputs(bits, block_size):
    """RRR behaves exactly like the plain bit vector for rank and access."""
    plain = BitVector(bits)
    rrr = RRRBitVector(bits, block_size=block_size)
    n = len(bits)
    for i in {0, 1, n // 3, n // 2, n - 1, n}:
        if 0 <= i <= n:
            assert rrr.rank1(i) == plain.rank1(i)
    assert rrr.to_list() == plain.to_list()
