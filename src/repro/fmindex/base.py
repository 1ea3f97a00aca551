"""Abstract FM-index interface and the reference backward-search algorithm.

Every index variant in this repository (the baselines in this package and
CiNCT itself) exposes the same query surface:

* :meth:`FMIndexBase.suffix_range` — Algorithm 1 of the paper (``SearchFM``),
  the suffix-range / pattern-matching query;
* :meth:`FMIndexBase.count` — number of occurrences of a pattern;
* :meth:`FMIndexBase.extract` — sub-path extraction by LF-stepping from an
  arbitrary BWT position (the query of Section IV-C);
* :meth:`FMIndexBase.size_in_bits` — exact size accounting used by the
  benchmark harness.

In addition, every variant inherits a *batch* query surface —
:meth:`FMIndexBase.suffix_range_many`, :meth:`FMIndexBase.count_many` and
:meth:`FMIndexBase.extract_many` — that runs backward search for a whole
workload at once.  The batch is first folded into a
:class:`~repro.fmindex.trie.PatternTrie` (patterns sharing a travel-order
prefix share every search state up to their divergence point), and
:meth:`FMIndexBase.trie_search` then advances **one suffix range per trie
node**: at every depth the pending nodes are grouped by their edge symbol and
all their frontier positions are answered with one :meth:`rank_bwt_many`
call, which subclasses back with vectorized wavelet ranks.  The results are
bit-identical to the scalar loop, overlapping patterns cost O(distinct trie
nodes) instead of O(total symbols), and an optional epoch-invalidated
interval cache (see :class:`repro.engine.executor.IntervalCache`) lets warm
queries resume from their deepest cached ancestor.

The baselines implement :meth:`rank_bwt` / :meth:`access_bwt` on top of a
wavelet structure over the *original* BWT; CiNCT overrides the search and
extraction algorithms because it only stores the *labelled* BWT.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from ..exceptions import (
    EMPTY_PATTERN_MESSAGE,
    QueryError,
    symbol_out_of_range_message,
)
from ..strings.bwt import BWTResult
from .trie import PatternTrie, trie_backward_search


def validate_pattern(pattern: Sequence[int], sigma: int) -> list[int]:
    """Normalise a symbol pattern and enforce the canonical error behaviour.

    Every index backend funnels its query patterns through this helper so that
    empty patterns and out-of-alphabet symbols raise :class:`QueryError` with
    identical messages everywhere (see :mod:`repro.exceptions`).
    """
    symbols = [int(s) for s in pattern]
    if not symbols:
        raise QueryError(EMPTY_PATTERN_MESSAGE)
    for symbol in symbols:
        if not 0 <= symbol < sigma:
            raise QueryError(symbol_out_of_range_message(symbol, sigma))
    return symbols


class FMIndexBase(abc.ABC):
    """Common behaviour of all FM-index variants.

    Subclasses must provide symbol-level rank and access over the BWT; this
    base class implements backward search, counting and extraction in terms
    of those two primitives.
    """

    #: human-readable name used by the benchmark harness
    name: str = "FM-index"

    def __init__(self, bwt_result: BWTResult):
        self._bwt_result = bwt_result
        self._n = bwt_result.length
        self._sigma = bwt_result.sigma
        # The C[] search array is normalised to a numpy int64 array once, so
        # per-call queries (symbol_at_row in particular) never rebuild a list
        # or re-check the container type.
        self._c_array = np.asarray(bwt_result.c_array, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # primitives supplied by subclasses
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def rank_bwt(self, symbol: int, i: int) -> int:
        """Number of occurrences of ``symbol`` in ``Tbwt[0, i)``."""

    @abc.abstractmethod
    def access_bwt(self, j: int) -> int:
        """Return ``Tbwt[j]``."""

    @abc.abstractmethod
    def size_in_bits(self) -> int:
        """Total index size in bits (used for the bits-per-symbol figures)."""

    def rank_bwt_many(self, symbol: int, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Batched :meth:`rank_bwt` over an array of positions.

        Subclasses backed by wavelet structures override this with genuinely
        vectorized per-level rank calls; the default is a scalar loop so every
        variant supports the batch API.
        """
        return np.asarray(
            [self.rank_bwt(symbol, int(p)) for p in positions], dtype=np.int64
        )

    def access_bwt_many(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Batched :meth:`access_bwt` over an array of BWT rows."""
        return np.asarray([self.access_bwt(int(j)) for j in positions], dtype=np.int64)

    # ------------------------------------------------------------------ #
    # shared queries
    # ------------------------------------------------------------------ #
    @property
    def length(self) -> int:
        """Length of the indexed trajectory string."""
        return self._n

    @property
    def sigma(self) -> int:
        """Alphabet size of the indexed trajectory string."""
        return self._sigma

    @property
    def c_array(self) -> np.ndarray:
        """The FM-index ``C[]`` array (length ``sigma + 1``)."""
        return self._c_array

    def bits_per_symbol(self) -> float:
        """Index size divided by the trajectory-string length."""
        return self.size_in_bits() / self._n

    def suffix_range(
        self, pattern: Sequence[int], interval_cache=None
    ) -> tuple[int, int] | None:
        """Find the suffix range of ``pattern`` (Algorithm 1, ``SearchFM``).

        Parameters
        ----------
        pattern:
            The query path as internal symbols, in travel order.  Because the
            trajectory string stores *reversed* trajectories, backward search
            consumes the pattern from its last symbol backwards over ``T``,
            which corresponds to scanning the path in travel order — exactly
            Algorithm 1 applied to the trajectory string.
        interval_cache:
            Optional suffix-range interval cache (``deepest``/``store`` over
            prefix-tuple keys).  When given, the search resumes from the
            deepest cached ancestor of the pattern — an incremental one-edge
            extension of a previously seen pattern costs a single LF step —
            and the final range is stored for future queries.

        Returns
        -------
        ``(sp, ep)`` with ``sp < ep`` when the pattern occurs, else ``None``.
        """
        symbols = self._validated_pattern(pattern)
        # The trajectory string stores reversed trajectories, so a query path
        # given in travel order corresponds to its reversal as a substring of
        # T.  Running Algorithm 1 on that reversal means consuming the
        # travel-order pattern from its first symbol to its last.
        cache = interval_cache
        if cache is not None and not getattr(cache, "enabled", True):
            cache = None
        n = len(symbols)
        prefix_len = 0
        sp = ep = 0
        if cache is not None:
            keys = [tuple(symbols[:k]) for k in range(n, 0, -1)]
            hit, interval = cache.deepest(keys)
            if hit >= 0:
                if interval is None:
                    return None
                sp, ep = interval
                prefix_len = n - hit
        if prefix_len == 0:
            w = symbols[0]
            sp = int(self._c_array[w])
            ep = int(self._c_array[w + 1])
            prefix_len = 1
            if sp >= ep:
                if cache is not None:
                    cache.store(tuple(symbols), None)
                return None
        for w in symbols[prefix_len:]:
            sp = int(self._c_array[w]) + self.rank_bwt(w, sp)
            ep = int(self._c_array[w]) + self.rank_bwt(w, ep)
            if sp >= ep:
                if cache is not None:
                    cache.store(tuple(symbols), None)
                return None
        if cache is not None and prefix_len < n:
            cache.store(tuple(symbols), (sp, ep))
        return sp, ep

    def suffix_range_many(
        self, patterns: Sequence[Sequence[int]], interval_cache=None
    ) -> list[tuple[int, int] | None]:
        """Batched :meth:`suffix_range` over a whole pattern workload.

        The workload is folded into one :class:`PatternTrie` and handed to
        :meth:`trie_search`: patterns sharing a travel-order prefix share a
        single suffix-range frontier entry up to their divergence point, so
        overlapping workloads cost O(distinct trie nodes) rank work instead
        of O(total symbols).  Results are bit-identical to calling
        :meth:`suffix_range` per pattern.
        """
        pats = [self._validated_pattern(p) for p in patterns]
        if not pats:
            return []
        return self.trie_search(PatternTrie(pats), interval_cache=interval_cache)

    def trie_search(
        self, trie: PatternTrie, interval_cache=None
    ) -> list[tuple[int, int] | None]:
        """Backward search over a prebuilt pattern trie (one range per node).

        At every trie depth the pending nodes are grouped by their edge
        symbol (``np.unique``) and each group's parent frontier — both ``sp``
        and ``ep`` for every node — is answered with a single
        :meth:`rank_bwt_many` call.  Symbols outside this index's alphabet
        make their node (and its subtree) dead rather than raising, so one
        trie built over a global alphabet can be fanned across partitions
        with smaller alphabets.  See
        :func:`~repro.fmindex.trie.trie_backward_search` for the dead-node
        and interval-cache semantics.
        """
        c = self._c_array

        def advance(contexts, syms, parent_sp, parent_ep):
            n = syms.size
            sp = np.empty(n, dtype=np.int64)
            ep = np.empty(n, dtype=np.int64)
            unique_syms, inverse = np.unique(syms, return_inverse=True)
            for k, w in enumerate(unique_syms.tolist()):
                members = np.flatnonzero(inverse == k)
                frontier = np.concatenate([parent_sp[members], parent_ep[members]])
                ranks = self.rank_bwt_many(w, frontier)
                base = int(c[w])
                sp[members] = base + ranks[: members.size]
                ep[members] = base + ranks[members.size :]
            return sp, ep

        return trie_backward_search(
            trie, c, self._sigma, advance, interval_cache=interval_cache
        )

    def count(self, pattern: Sequence[int]) -> int:
        """Number of occurrences of ``pattern`` in the trajectory string."""
        found = self.suffix_range(pattern)
        if found is None:
            return 0
        sp, ep = found
        return ep - sp

    def count_many(
        self, patterns: Sequence[Sequence[int]], interval_cache=None
    ) -> list[int]:
        """Batched :meth:`count` over a whole pattern workload."""
        return [
            0 if found is None else found[1] - found[0]
            for found in self.suffix_range_many(patterns, interval_cache=interval_cache)
        ]

    def contains(self, pattern: Sequence[int], interval_cache=None) -> bool:
        """True when the pattern occurs at least once."""
        return self.suffix_range(pattern, interval_cache=interval_cache) is not None

    def extract(self, j: int, length: int) -> list[int]:
        """Extract ``T[i - length, i)`` where ``i = SA[j]`` (Section IV-C).

        The extraction walks the LF-mapping ``length`` times starting from BWT
        row ``j``, recovering the symbols that precede the suffix at row ``j``
        in reverse text order; because trajectories are stored reversed, this
        yields a sub-path in travel order.
        """
        if not 0 <= j < self._n:
            raise QueryError(f"BWT position {j} out of range [0, {self._n})")
        if length < 0:
            raise QueryError(f"extraction length must be non-negative, got {length}")
        out = [0] * length
        row = j
        for k in range(1, length + 1):
            symbol = self.access_bwt(row)
            out[length - k] = symbol
            row = int(self._c_array[symbol]) + self.rank_bwt(symbol, row)
        return out

    def extract_many(self, rows: Sequence[int], length: int) -> list[list[int]]:
        """Batched :meth:`extract`: LF-walk all start rows simultaneously.

        Each step batches the BWT accesses and groups the rank calls by the
        decoded symbol, so wavelet-backed variants pay one vectorized rank per
        distinct symbol per step instead of one scalar rank per row.
        """
        rows_arr = np.asarray(list(rows), dtype=np.int64)
        if rows_arr.size and (int(rows_arr.min()) < 0 or int(rows_arr.max()) >= self._n):
            raise QueryError(f"BWT positions out of range [0, {self._n})")
        if length < 0:
            raise QueryError(f"extraction length must be non-negative, got {length}")
        m = int(rows_arr.size)
        out = np.zeros((m, length), dtype=np.int64)
        if m == 0 or length == 0:
            return [row.tolist() for row in out]
        current = rows_arr.copy()
        for k in range(1, length + 1):
            symbols = self.access_bwt_many(current)
            out[:, length - k] = symbols
            successor = np.empty(m, dtype=np.int64)
            for w in np.unique(symbols).tolist():
                mask = symbols == w
                successor[mask] = int(self._c_array[w]) + self.rank_bwt_many(
                    int(w), current[mask]
                )
            current = successor
        return [row.tolist() for row in out]

    def symbol_at_row(self, j: int) -> int:
        """Return the first symbol of the suffix at BWT row ``j``.

        This is the binary search over ``C[]`` used at Line 1 of Algorithm 4;
        the search array is prepared once in ``__init__``.
        """
        if not 0 <= j < self._n:
            raise QueryError(f"BWT position {j} out of range [0, {self._n})")
        # Find the largest w with C[w] <= j.
        return int(np.searchsorted(self._c_array, j, side="right") - 1)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _validated_pattern(self, pattern: Sequence[int]) -> list[int]:
        return validate_pattern(pattern, self._sigma)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(n={self._n}, sigma={self._sigma})"
