"""Alphabet handling for trajectory strings.

The paper indexes sequences of road-segment identifiers plus two special
symbols: ``#`` (end of the whole trajectory string) and ``$`` (trajectory
separator), with the lexicographic order ``# < $ < w`` for every road segment
``w``.  Internally every symbol is a small non-negative integer:

* ``END_SYMBOL``  (= 0) plays the role of ``#``;
* ``SEP_SYMBOL``  (= 1) plays the role of ``$``;
* road segments are mapped to dense integers starting at
  ``FIRST_EDGE_SYMBOL`` (= 2), in an arbitrary but fixed order (the paper
  notes that any ordering of the road segments works).
"""

from __future__ import annotations

from itertools import chain
from typing import Hashable, Iterable, Sequence

import numpy as np

from ..exceptions import AlphabetError, unknown_segment_message

END_SYMBOL = 0
SEP_SYMBOL = 1
FIRST_EDGE_SYMBOL = 2


class Alphabet:
    """A bidirectional mapping between road-segment IDs and internal symbols.

    Parameters
    ----------
    edge_ids:
        The road-segment identifiers (any hashable values).  Duplicates are
        ignored; insertion order determines the symbol assignment, making
        builds deterministic.

    Examples
    --------
    >>> alpha = Alphabet(["e1", "e2", "e3"])
    >>> alpha.encode("e2")
    3
    >>> alpha.decode(3)
    'e2'
    >>> alpha.sigma
    5
    """

    def __init__(self, edge_ids: Iterable[Hashable] = ()):
        self._edge_to_symbol: dict[Hashable, int] = {}
        self._symbol_to_edge: list[Hashable] = []
        for edge_id in edge_ids:
            self.add(edge_id)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add(self, edge_id: Hashable) -> int:
        """Register ``edge_id`` (if new) and return its symbol."""
        symbol = self._edge_to_symbol.get(edge_id)
        if symbol is None:
            symbol = FIRST_EDGE_SYMBOL + len(self._symbol_to_edge)
            self._edge_to_symbol[edge_id] = symbol
            self._symbol_to_edge.append(edge_id)
        return symbol

    def add_many(self, edge_ids: Iterable[Hashable]) -> np.ndarray:
        """Register every ``edge_id`` as :meth:`add` would; return their symbols.

        New ids get symbols in order of first occurrence, exactly as adding
        them one by one, but registration runs once per distinct id.
        """
        ids = list(edge_ids)
        for edge_id in dict.fromkeys(ids):
            self.add(edge_id)
        return np.fromiter(
            map(self._edge_to_symbol.__getitem__, ids), dtype=np.int64, count=len(ids)
        )

    @classmethod
    def from_trajectories(cls, trajectories: Iterable[Sequence[Hashable]]) -> "Alphabet":
        """Build an alphabet containing every edge appearing in ``trajectories``."""
        return cls(dict.fromkeys(chain.from_iterable(trajectories)))

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    @property
    def n_edges(self) -> int:
        """Number of distinct road segments registered."""
        return len(self._symbol_to_edge)

    @property
    def sigma(self) -> int:
        """Total alphabet size including ``#`` and ``$``."""
        return self.n_edges + FIRST_EDGE_SYMBOL

    def encode(self, edge_id: Hashable) -> int:
        """Return the internal symbol for ``edge_id``."""
        try:
            return self._edge_to_symbol[edge_id]
        except KeyError:
            raise AlphabetError(unknown_segment_message(edge_id)) from None

    def decode(self, symbol: int) -> Hashable:
        """Return the road-segment ID for an internal ``symbol``."""
        index = symbol - FIRST_EDGE_SYMBOL
        if not 0 <= index < len(self._symbol_to_edge):
            raise AlphabetError(f"symbol {symbol} does not map to a road segment")
        return self._symbol_to_edge[index]

    def __contains__(self, edge_id: Hashable) -> bool:
        return edge_id in self._edge_to_symbol

    def __len__(self) -> int:
        return self.sigma

    def encode_path(self, path: Sequence[Hashable]) -> list[int]:
        """Encode a sequence of road-segment IDs into internal symbols."""
        return [self.encode(edge_id) for edge_id in path]

    def decode_path(self, symbols: Sequence[int]) -> list[Hashable]:
        """Decode a sequence of internal symbols into road-segment IDs."""
        return [self.decode(symbol) for symbol in symbols]

    def is_edge_symbol(self, symbol: int) -> bool:
        """True when ``symbol`` denotes a road segment (not ``#``/``$``)."""
        return FIRST_EDGE_SYMBOL <= symbol < self.sigma

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Alphabet(n_edges={self.n_edges})"
