"""Trajectory-string construction (Definition 2 of the paper).

A set of NCTs ``{T_1, ..., T_N}`` is concatenated into a single string

    ``T = rev(T_1) $ rev(T_2) $ ... rev(T_N) $ #``

where every trajectory is *reversed*, ``$`` separates trajectories and ``#``
terminates the string.  Reversal makes the FM-index backward search walk the
query pattern in travel order, which is what the suffix-range query semantics
of the paper rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Sequence

import numpy as np

from ..exceptions import ConstructionError
from .alphabet import END_SYMBOL, SEP_SYMBOL, Alphabet


@dataclass
class TrajectoryString:
    """A trajectory string plus the bookkeeping needed to interpret it.

    Attributes
    ----------
    text:
        The concatenated, reversed, separator-delimited symbol sequence.
    alphabet:
        Mapping between road-segment IDs and internal symbols.
    trajectory_lengths:
        Length (number of edges) of each input trajectory, in input order.
    trajectory_offsets:
        Start position of each (reversed) trajectory within ``text``.
    """

    text: np.ndarray
    alphabet: Alphabet
    trajectory_lengths: list[int]
    trajectory_offsets: list[int]

    @property
    def length(self) -> int:
        """Total length of the trajectory string (including ``$``/``#``)."""
        return int(self.text.size)

    @property
    def n_trajectories(self) -> int:
        """Number of trajectories concatenated into the string."""
        return len(self.trajectory_lengths)

    @property
    def sigma(self) -> int:
        """Alphabet size (road segments + the two special symbols)."""
        return self.alphabet.sigma

    def trajectory_symbols(self, k: int) -> np.ndarray:
        """Return the ``k``-th trajectory, in travel order, as internal symbols."""
        if not 0 <= k < self.n_trajectories:
            raise ConstructionError(f"trajectory index {k} out of range")
        start = self.trajectory_offsets[k]
        length = self.trajectory_lengths[k]
        return self.text[start : start + length][::-1].copy()

    def trajectory_edges(self, k: int) -> list[Hashable]:
        """Return the ``k``-th trajectory as the original road-segment IDs."""
        return self.alphabet.decode_path(int(s) for s in self.trajectory_symbols(k))

    def encode_pattern(self, path: Sequence[Hashable]) -> list[int]:
        """Encode a query path (road-segment IDs, travel order) into symbols."""
        return self.alphabet.encode_path(path)


def build_trajectory_string(
    trajectories: Sequence[Sequence[Hashable]],
    alphabet: Alphabet | None = None,
) -> TrajectoryString:
    """Build the trajectory string of Definition 2 from raw trajectories.

    Parameters
    ----------
    trajectories:
        Sequence of trajectories, each a sequence of road-segment IDs in
        travel order.  Empty trajectories are rejected.
    alphabet:
        Optional pre-built alphabet (useful to share symbol assignments across
        datasets); new edges found in ``trajectories`` are added to it.
    """
    if not trajectories:
        raise ConstructionError("cannot build a trajectory string from zero trajectories")
    if alphabet is None:
        alphabet = Alphabet()

    lengths = np.fromiter(map(len, trajectories), dtype=np.int64, count=len(trajectories))
    empty = np.flatnonzero(lengths == 0)
    if empty.size:
        raise ConstructionError(f"trajectory {int(empty[0])} is empty")
    symbols = alphabet.add_many(chain.from_iterable(trajectories))
    # Trajectory k fills text[offsets[k] : separators[k]] back to front; the
    # symbol at flat index firsts[k] + j lands at separators[k] - 1 - j.
    offsets = np.cumsum(lengths + 1) - (lengths + 1)
    separators = offsets + lengths
    firsts = offsets - np.arange(offsets.size)
    text = np.full(symbols.size + lengths.size + 1, SEP_SYMBOL, dtype=np.int64)
    text[np.repeat(separators - 1 + firsts, lengths) - np.arange(symbols.size)] = symbols
    text[-1] = END_SYMBOL
    return TrajectoryString(
        text=text,
        alphabet=alphabet,
        trajectory_lengths=lengths.tolist(),
        trajectory_offsets=offsets.tolist(),
    )


def trajectory_string_from_symbols(
    symbol_trajectories: Sequence[Sequence[int]],
    sigma: int | None = None,
) -> np.ndarray:
    """Build only the raw symbol text from trajectories already given as symbols.

    This low-level variant is used by the synthetic dataset generators, which
    produce integer edge symbols directly.  Symbols must be ``>= 2`` (0 and 1
    are reserved for ``#`` and ``$``).
    """
    if not symbol_trajectories:
        raise ConstructionError("cannot build a trajectory string from zero trajectories")
    pieces: list[np.ndarray] = []
    for index, trajectory in enumerate(symbol_trajectories):
        arr = np.asarray(trajectory, dtype=np.int64)
        if arr.size == 0:
            raise ConstructionError(f"trajectory {index} is empty")
        if int(arr.min()) < 2:
            raise ConstructionError("edge symbols must be >= 2 (0/1 are reserved)")
        if sigma is not None and int(arr.max()) >= sigma:
            raise ConstructionError(f"symbol {int(arr.max())} exceeds sigma {sigma}")
        pieces.append(arr[::-1])
        pieces.append(np.asarray([SEP_SYMBOL], dtype=np.int64))
    pieces.append(np.asarray([END_SYMBOL], dtype=np.int64))
    return np.concatenate(pieces)
