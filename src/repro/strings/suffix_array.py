"""Suffix array construction for integer sequences.

Two constructions are provided:

* :func:`suffix_array` — an O(n log n) prefix-doubling algorithm vectorised
  with numpy; this is the production path and scales to the multi-hundred-
  thousand-symbol trajectory strings used by the benchmark harness.
* :func:`suffix_array_naive` — an O(n^2 log n) comparison sort kept as a
  reference implementation for property tests on small inputs.

The trajectory strings built by :mod:`repro.strings.trajectory_string` always
terminate with the unique, lexicographically smallest symbol ``#``, which is
the standard requirement for a well-defined Burrows–Wheeler transform.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import ConstructionError


def suffix_array_naive(text: Sequence[int]) -> np.ndarray:
    """Reference O(n^2 log n) suffix array (sort suffixes directly)."""
    items = list(int(x) for x in text)
    n = len(items)
    order = sorted(range(n), key=lambda i: items[i:])
    return np.asarray(order, dtype=np.int64)


#: Texts must be shorter than this: a doubling round sorts the int64 keys
#: ``rank * (n + 1) + second + 1``, whose largest value ``n**2 + n - 1`` must
#: stay below ``2**63``.
MAX_TEXT_LENGTH = 3_000_000_000


def suffix_array(text: Sequence[int] | np.ndarray) -> np.ndarray:
    """Build the suffix array of an integer sequence via prefix doubling.

    Manber and Myers' doubling (SIAM J. Comput. 1993): round ``k`` sorts the
    suffixes by their first ``2**k`` symbols, as the pair (rank of the first
    half, rank of the second half) packed into one int64 key.  Equal keys
    only occur between suffixes that share a rank afterwards, so the sort
    need not be stable.

    Parameters
    ----------
    text:
        Sequence of non-negative integers, shorter than
        :data:`MAX_TEXT_LENGTH`.

    Returns
    -------
    numpy.ndarray
        ``sa`` such that ``text[sa[0]:] < text[sa[1]:] < ...``.
    """
    arr = np.asarray(text, dtype=np.int64)
    n = int(arr.size)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if arr.min() < 0:
        raise ConstructionError("suffix_array expects non-negative symbols")
    if n >= MAX_TEXT_LENGTH:
        raise ConstructionError(
            f"suffix_array supports texts shorter than {MAX_TEXT_LENGTH} symbols, got {n}"
        )

    # Initial ranks are the dense ranks of single symbols.
    rank = np.unique(arr, return_inverse=True)[1].astype(np.int64)
    base = n + 1
    gap = 1
    while True:
        # second + 1: the rank of the suffix ``gap`` further on, 0 past the
        # end.  A tie after a round means two suffixes share their first
        # 2 * gap symbols, so every round starts with gap < n.
        keys = rank * base
        keys[: n - gap] += rank[gap:] + 1
        order = np.argsort(keys)
        sorted_keys = keys[order]
        changed = np.empty(n, dtype=np.int64)
        changed[0] = 0
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=changed[1:])
        rank[order] = np.cumsum(changed)
        if int(rank[order[-1]]) == n - 1:
            return order
        gap *= 2


def inverse_suffix_array(sa: np.ndarray) -> np.ndarray:
    """Return ``isa`` with ``isa[sa[j]] = j``."""
    isa = np.empty_like(sa)
    isa[sa] = np.arange(sa.size, dtype=sa.dtype)
    return isa
