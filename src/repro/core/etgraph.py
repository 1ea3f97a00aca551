"""Empirical transition graph (ET-graph), Definition 3 of the paper.

The ET-graph ``G_T`` of a trajectory string ``T`` has one vertex per alphabet
symbol and a directed edge ``(w', w)`` whenever the substring ``w w'`` occurs
in ``T``.  Because ``T`` stores *reversed* trajectories, the substring
``w w'`` in ``T`` means that in travel order the vehicle moved from segment
``w'`` to segment ``w`` — so edges point along the direction of travel, and
``N_out(w')`` is the set of segments reachable in one step from ``w'`` (plus
the special symbols, which participate exactly as in the paper's Fig. 6a).

The graph also records the bigram count ``n_{w w'}`` of every edge, which the
optimal RML strategy sorts by.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..exceptions import ConstructionError, QueryError
from ..succinct import bits_needed


@dataclass(frozen=True)
class ETEdge:
    """A directed ET-graph edge ``context -> target`` with its bigram count."""

    context: int
    target: int
    bigram_count: int


class ETGraph:
    """Empirical transition graph of a trajectory string.

    Parameters
    ----------
    text:
        The trajectory string (integer symbols, ending with ``#``).
    sigma:
        Alphabet size; inferred from the text when omitted.
    """

    def __init__(self, text: Sequence[int] | np.ndarray, sigma: int | None = None):
        arr = np.asarray(text, dtype=np.int64)
        if arr.size < 2:
            raise ConstructionError("the trajectory string must contain at least two symbols")
        max_symbol = int(arr.max())
        if sigma is None:
            sigma = max_symbol + 1
        elif sigma <= max_symbol:
            raise ConstructionError(f"sigma {sigma} too small for max symbol {max_symbol}")
        self._sigma = int(sigma)
        self._n = int(arr.size)

        # Substring "w w'" at positions (i, i+1): edge context=w' -> target=w.
        # The string is treated cyclically (the BWT is defined over rotations),
        # so the wrap-around pair (T[n-1], T[0]) contributes one edge too; this
        # is what makes every symbol of every BWT context block labellable,
        # matching the paper's worked example (edge F -> # in Fig. 6a/6b).
        targets = arr
        contexts = np.roll(arr, -1)
        keys, counts = np.unique(contexts * self._sigma + targets, return_counts=True)
        self._install(keys // self._sigma, keys % self._sigma, counts.astype(np.int64))

    @classmethod
    def from_arrays(
        cls, contexts: np.ndarray, targets: np.ndarray, counts: np.ndarray, sigma: int, length: int
    ) -> "ETGraph":
        """Restore the graph of a length-``length`` text from its :meth:`edge_arrays`."""
        self = object.__new__(cls)
        self._sigma, self._n = int(sigma), int(length)
        self._install(contexts, targets, counts)
        return self

    def _install(self, contexts: np.ndarray, targets: np.ndarray, counts: np.ndarray) -> None:
        # Edges sorted by (context, target); the edges of the i-th vertex with
        # successors fill [_starts[i], _starts[i + 1]).
        self._contexts = contexts
        self._targets = targets
        self._counts = counts
        self._keys = contexts * self._sigma + targets
        firsts = np.flatnonzero(np.diff(contexts, prepend=-1))
        self._vertices = contexts[firsts]
        self._starts = np.append(firsts, contexts.size)
        self._n_edges = int(contexts.size)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def sigma(self) -> int:
        """Alphabet size (number of vertices)."""
        return self._sigma

    @property
    def n_edges(self) -> int:
        """Number of directed edges ``|E_T|``."""
        return self._n_edges

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(contexts, targets, bigram_counts)`` of every edge, by (context, target)."""
        return self._contexts, self._targets, self._counts

    def _span(self, context: int) -> tuple[int, int]:
        """The edge index range of ``context`` (empty when it has no successors)."""
        i = int(np.searchsorted(self._vertices, int(context)))
        if i < self._vertices.size and int(self._vertices[i]) == int(context):
            return int(self._starts[i]), int(self._starts[i + 1])
        return 0, 0

    def out_neighbours(self, context: int) -> list[int]:
        """``N_out(context)``: targets reachable in one observed transition."""
        first, end = self._span(context)
        return self._targets[first:end].tolist()

    def out_degree(self, context: int) -> int:
        """Number of distinct observed successors of ``context``."""
        first, end = self._span(context)
        return end - first

    def _degrees(self) -> np.ndarray:
        return np.diff(self._starts)

    def max_out_degree(self) -> int:
        """The maximum out-degree ``delta`` over all contexts."""
        return int(self._degrees().max()) if self._vertices.size else 0

    def average_out_degree(self, edge_symbols_only: bool = True, first_edge_symbol: int = 2) -> float:
        """Average out-degree ``d-bar`` reported in Table III.

        Parameters
        ----------
        edge_symbols_only:
            When true (the default, matching the paper) only road-segment
            vertices are averaged over, excluding ``#`` and ``$``.
        first_edge_symbol:
            The smallest symbol value that denotes a road segment.
        """
        degrees = self._degrees()
        if edge_symbols_only:
            degrees = degrees[self._vertices >= first_edge_symbol]
        if not degrees.size:
            return 0.0
        return int(degrees.sum()) / degrees.size

    def _edge_index(self, context: int, target: int) -> int | None:
        context, target = int(context), int(target)
        if not (0 <= context < self._sigma and 0 <= target < self._sigma):
            return None
        key = context * self._sigma + target
        i = int(np.searchsorted(self._keys, key))
        return i if i < self._keys.size and int(self._keys[i]) == key else None

    def has_edge(self, context: int, target: int) -> bool:
        """True when the transition ``context -> target`` was observed."""
        return self._edge_index(context, target) is not None

    def bigram_count(self, context: int, target: int) -> int:
        """Number of times the transition ``context -> target`` occurs in ``T``."""
        i = self._edge_index(context, target)
        if i is None:
            raise QueryError(f"no ET-graph edge {context} -> {target}")
        return int(self._counts[i])

    def edges(self) -> Iterator[ETEdge]:
        """Iterate over all edges with their bigram counts."""
        for context, target, count in zip(
            self._contexts.tolist(), self._targets.tolist(), self._counts.tolist()
        ):
            yield ETEdge(context=context, target=target, bigram_count=count)

    def neighbours_by_frequency(self, context: int) -> list[tuple[int, int]]:
        """``(target, bigram_count)`` pairs sorted by decreasing count, ties by symbol."""
        first, end = self._span(context)
        targets = self._targets[first:end]
        counts = self._counts[first:end]
        order = np.lexsort((targets, -counts))
        return list(zip(targets[order].tolist(), counts[order].tolist()))

    def contexts(self) -> list[int]:
        """All vertices that have at least one outgoing edge."""
        return self._vertices.tolist()

    # ------------------------------------------------------------------ #
    # size accounting
    # ------------------------------------------------------------------ #
    def size_in_bits(self, text_length: int | None = None) -> int:
        """Adjacency-list storage cost of the ET-graph (Section III-C3).

        Per vertex: an offset into the concatenated edge array
        (``ceil(lg |E_T|)`` bits) and the ``C[w]`` value (``ceil(lg n)``
        bits).  Per edge: the target symbol (``ceil(lg sigma)``) and the label
        (``ceil(lg (delta + 2))``).  The correction terms ``Z`` attached to
        edges are accounted for by
        :class:`~repro.core.pseudorank.CorrectionTerms` because they belong to
        the PseudoRank machinery rather than to the bare graph.
        """
        n = text_length if text_length is not None else self._n
        n_bits = bits_needed(max(n - 1, 1))
        offset_bits = bits_needed(max(self._n_edges, 1))
        symbol_bits = bits_needed(max(self._sigma - 1, 1))
        label_bits = bits_needed(max(self.max_out_degree(), 1))
        vertex_bits = int(self._vertices.size) * (offset_bits + n_bits)
        edge_bits = self._n_edges * (symbol_bits + label_bits)
        return vertex_bits + edge_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ETGraph(sigma={self._sigma}, edges={self._n_edges})"
