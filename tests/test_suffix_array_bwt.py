"""Tests for suffix arrays, the BWT and the trajectory string."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConstructionError
from repro.strings import (
    burrows_wheeler_transform,
    compute_c_array,
    compute_counts,
    inverse_suffix_array,
    invert_bwt,
    lf_mapping,
    suffix_array,
    suffix_array_naive,
)


def _with_sentinel(symbols: list[int]) -> np.ndarray:
    """Append the unique minimal sentinel 0 after shifting symbols up by 1."""
    return np.asarray([s + 1 for s in symbols] + [0], dtype=np.int64)


class TestSuffixArray:
    def test_known_small_example(self):
        # "banana$" with a=1,b=2,n=3 and $=0
        text = np.asarray([2, 1, 3, 1, 3, 1, 0])
        assert list(suffix_array(text)) == [6, 5, 3, 1, 0, 4, 2]

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50, 200])
    def test_matches_naive(self, n):
        rng = np.random.default_rng(n)
        texts = [
            _with_sentinel([int(x) for x in rng.integers(0, 5, n)]),
            # Long runs and periodic strings tie for many doubling rounds.
            _with_sentinel([0] * n),
            _with_sentinel([0] * (n // 2) + [1] + [0] * (n - n // 2)),
            _with_sentinel([1, 2] * n),
            _with_sentinel([1, 1, 2] * n),
            np.asarray([3] * n, dtype=np.int64),  # no sentinel
        ]
        for text in texts:
            assert list(suffix_array(text)) == list(suffix_array_naive(text))

    def test_empty(self):
        assert suffix_array([]).size == 0

    def test_rejects_negative_symbols(self):
        with pytest.raises(ConstructionError):
            suffix_array([1, -2, 0])

    def test_inverse_suffix_array(self):
        text = _with_sentinel([3, 1, 2, 3, 1])
        sa = suffix_array(text)
        isa = inverse_suffix_array(sa)
        for j in range(len(text)):
            assert isa[sa[j]] == j

    def test_all_suffixes_sorted(self):
        rng = np.random.default_rng(9)
        text = _with_sentinel([int(x) for x in rng.integers(0, 3, 80)])
        sa = suffix_array(text)
        suffixes = [tuple(int(x) for x in text[i:]) for i in sa]
        assert suffixes == sorted(suffixes)


class TestBWT:
    def test_paper_example_shape(self, paper_bwt, paper_trajectory_string):
        assert paper_bwt.length == paper_trajectory_string.length == 16
        # Exactly one terminator, four separators.
        assert int(np.count_nonzero(paper_bwt.bwt == 0)) == 1
        assert int(np.count_nonzero(paper_bwt.bwt == 1)) == 4

    def test_bwt_is_permutation_of_text(self, medium_bwt):
        assert sorted(medium_bwt.bwt.tolist()) == sorted(medium_bwt.text.tolist())

    def test_invert_recovers_text(self, medium_bwt):
        assert list(invert_bwt(medium_bwt)) == list(medium_bwt.text)

    @pytest.mark.parametrize("n", [2, 5, 30, 120])
    def test_invert_random_texts(self, n):
        rng = np.random.default_rng(n * 7)
        text = _with_sentinel([int(x) for x in rng.integers(0, 6, n)])
        result = burrows_wheeler_transform(text)
        assert list(invert_bwt(result)) == list(text)

    def test_rejects_empty(self):
        with pytest.raises(ConstructionError):
            burrows_wheeler_transform([])

    def test_rejects_missing_sentinel(self):
        with pytest.raises(ConstructionError):
            burrows_wheeler_transform([3, 1, 2])  # final symbol is not the unique minimum

    def test_rejects_duplicate_sentinel(self):
        with pytest.raises(ConstructionError):
            burrows_wheeler_transform([0, 2, 0])

    def test_c_array_is_cumulative(self, medium_bwt):
        counts = medium_bwt.counts
        c = medium_bwt.c_array
        assert c[0] == 0
        assert c[-1] == medium_bwt.length
        for w in range(medium_bwt.sigma):
            assert c[w + 1] - c[w] == counts[w]

    def test_counts_match_text(self, medium_bwt):
        expected = np.bincount(medium_bwt.text, minlength=medium_bwt.sigma)
        assert list(medium_bwt.counts) == list(expected)

    def test_suffix_range_of_symbol(self, paper_bwt):
        for symbol in range(paper_bwt.sigma):
            sp, ep = paper_bwt.suffix_range_of_symbol(symbol)
            assert ep - sp == paper_bwt.counts[symbol]

    def test_lf_mapping_is_permutation(self, paper_bwt):
        lf = lf_mapping(paper_bwt)
        assert sorted(lf.tolist()) == list(range(paper_bwt.length))

    def test_lf_mapping_walks_text_backwards(self, paper_bwt):
        """Following LF from row 0 visits suffix positions n-2, n-3, ..."""
        lf = lf_mapping(paper_bwt)
        sa = paper_bwt.suffix_array
        row = 0
        position = int(sa[row])
        for _ in range(paper_bwt.length - 1):
            row = int(lf[row])
            expected = (position - 1) % paper_bwt.length
            assert int(sa[row]) == expected
            position = expected

    def test_compute_counts_sigma_too_small(self):
        with pytest.raises(ConstructionError):
            compute_counts(np.asarray([0, 5]), sigma=3)

    def test_compute_c_array_empty(self):
        assert list(compute_c_array(np.zeros(0, dtype=np.int64))) == [0]


class TestTrajectoryStringBasics:
    def test_paper_example_text(self, paper_trajectory_string):
        # T = rev(T1) $ rev(T2) $ rev(T3) $ rev(T4) $ #
        ts = paper_trajectory_string
        assert ts.n_trajectories == 4
        assert ts.trajectory_lengths == [4, 3, 2, 2]
        assert ts.text[-1] == 0
        assert ts.trajectory_edges(0) == ["A", "B", "E", "F"]
        assert ts.trajectory_edges(3) == ["A", "D"]

    def test_symbols_travel_order(self, paper_trajectory_string):
        symbols = paper_trajectory_string.trajectory_symbols(1)
        decoded = paper_trajectory_string.alphabet.decode_path(int(s) for s in symbols)
        assert decoded == ["A", "B", "C"]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=150))
def test_bwt_roundtrip_property(symbols):
    text = _with_sentinel(symbols)
    result = burrows_wheeler_transform(text)
    assert list(invert_bwt(result)) == list(text)
    assert list(result.suffix_array) == list(suffix_array_naive(text))
