"""Strict path queries on top of CiNCT (the application of Section VII).

A *strict path query* (Krogh et al.) asks for the trajectories that travelled
along a given path ``P`` during a time interval ``[t1, t2]``.  Following the
architecture of SNT-index / Koide et al. that the paper cites, the spatial
part is answered with a suffix-range query and per-occurrence locate on the
compressed index, and the temporal part with the companion
:class:`~repro.queries.temporal.TemporalIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.cinct import CiNCT
from ..exceptions import EMPTY_PATH_MESSAGE, QueryError
from ..network.road_network import EdgeId
from ..queries.temporal import TemporalIndex
from ..strings.trajectory_string import TrajectoryString
from ..trajectories.model import TrajectoryDataset


@dataclass(frozen=True)
class StrictPathMatch:
    """One match of a strict path query."""

    trajectory_id: int
    start_edge_index: int
    end_edge_index: int
    start_time: float | None
    end_time: float | None


def resolve_text_positions(
    trajectory_offsets: np.ndarray,
    trajectory_lengths: np.ndarray,
    text_positions: Sequence[int],
    pattern_length: int,
) -> list[tuple[int, int, int]]:
    """Map trajectory-string positions to travel-order coordinates, all at once.

    Given the start positions (in the stored, reversed text) of
    ``pattern_length``-symbol occurrences, return ``(trajectory_index,
    start_edge_index, end_edge_index)`` in travel order for each, dropping
    positions that fall on a separator and occurrences that would cross a
    trajectory boundary.  Shared by :class:`StrictPathIndex` and the engine
    backends so every locate-capable index resolves matches identically.
    """
    positions = np.asarray(text_positions, dtype=np.int64)
    index = np.searchsorted(trajectory_offsets, positions, side="right") - 1
    inside = index >= 0
    index, positions = index[inside], positions[inside]
    within = positions - trajectory_offsets[index]
    lengths = trajectory_lengths[index]
    # The trajectory is stored reversed: text offset `within` is travel
    # index (length - 1 - within); the match covers pattern_length
    # positions going *forward* in the text, i.e. backwards in travel
    # order, ending at that travel index.
    end = lengths - 1 - within
    start = end - (pattern_length - 1)
    keep = (within < lengths) & (start >= 0)
    return list(zip(index[keep].tolist(), start[keep].tolist(), end[keep].tolist()))


class StrictPathIndex:
    """Spatio-temporal index answering strict path queries.

    Parameters
    ----------
    dataset:
        The trajectory dataset (timestamps are optional; without them only
        purely spatial strict-path queries are supported).
    block_size:
        RRR block size of the underlying CiNCT index.
    sa_sample_rate:
        Suffix-array sampling rate used for locate.
    """

    def __init__(self, dataset: TrajectoryDataset, block_size: int = 63, sa_sample_rate: int = 16):
        self._dataset = dataset
        self._trajectory_string: TrajectoryString = dataset.to_trajectory_string()
        self._index = CiNCT.from_text(
            self._trajectory_string.text,
            sigma=self._trajectory_string.sigma,
            block_size=block_size,
            sa_sample_rate=sa_sample_rate,
        )
        has_timestamps = all(t.timestamps is not None for t in dataset.trajectories)
        self._temporal = TemporalIndex.from_trajectories(dataset.trajectories) if has_timestamps else None

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def cinct(self) -> CiNCT:
        """The underlying CiNCT index."""
        return self._index

    @property
    def temporal(self) -> TemporalIndex | None:
        """The temporal companion index (``None`` without timestamps)."""
        return self._temporal

    def size_in_bits(self) -> int:
        """Spatial index plus temporal index."""
        bits = self._index.size_in_bits()
        if self._temporal is not None:
            bits += self._temporal.size_in_bits()
        return bits

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def count_path(self, path: Sequence[EdgeId]) -> int:
        """Number of traversals of ``path`` across all trajectories."""
        pattern = self._encode(path)
        return self._index.count(pattern)

    def count_paths(self, paths: Sequence[Sequence[EdgeId]]) -> list[int]:
        """Batched :meth:`count_path`: one backward-search pass for all paths.

        The whole workload runs through :meth:`CiNCT.count_many`, which
        advances every path simultaneously with vectorized wavelet ranks.
        """
        patterns = [self._encode(path) for path in paths]
        return self._index.count_many(patterns)

    def query(
        self,
        path: Sequence[EdgeId],
        t_start: float | None = None,
        t_end: float | None = None,
    ) -> list[StrictPathMatch]:
        """Find trajectories that traversed ``path`` (optionally within a time window).

        Parameters
        ----------
        path:
            Road segments in travel order.
        t_start, t_end:
            When both are given, only traversals that started no earlier than
            ``t_start`` and finished no later than ``t_end`` are returned
            (the strict-path-query semantics).
        """
        if (t_start is None) != (t_end is None):
            raise QueryError("provide both t_start and t_end, or neither")
        if t_start is not None and self._temporal is None:
            raise QueryError("the dataset has no timestamps; temporal filtering is unavailable")
        pattern = self._encode(path)
        found = self._index.suffix_range(pattern)
        if found is None:
            return []
        sp, ep = found
        matches: list[StrictPathMatch] = []
        # One batched locate for the whole suffix range: every occurrence
        # LF-walks to its sampled ancestor in lockstep.
        ts = self._trajectory_string
        for resolved in resolve_text_positions(
            np.asarray(ts.trajectory_offsets),
            np.asarray(ts.trajectory_lengths),
            self._index.locate_many(range(sp, ep)),
            len(pattern),
        ):
            match = self._match(*resolved)
            if t_start is not None:
                if match.start_time is None or match.end_time is None:
                    continue
                if match.start_time < t_start or match.end_time > t_end:
                    continue
            matches.append(match)
        matches.sort(key=lambda m: (m.trajectory_id, m.start_edge_index))
        return matches

    def matching_trajectory_ids(
        self,
        path: Sequence[EdgeId],
        t_start: float | None = None,
        t_end: float | None = None,
    ) -> list[int]:
        """Distinct trajectory IDs returned by :meth:`query`."""
        return sorted({match.trajectory_id for match in self.query(path, t_start, t_end)})

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _encode(self, path: Sequence[EdgeId]) -> list[int]:
        if not path:
            raise QueryError(EMPTY_PATH_MESSAGE)
        return self._trajectory_string.encode_pattern(list(path))

    def _match(
        self, trajectory_index: int, start_travel_index: int, end_travel_index: int
    ) -> StrictPathMatch:
        trajectory = self._dataset.trajectories[trajectory_index]
        start_time = end_time = None
        if trajectory.timestamps is not None:
            start_time = trajectory.timestamps[start_travel_index]
            end_time = trajectory.timestamps[end_travel_index]
        return StrictPathMatch(
            trajectory_id=trajectory.trajectory_id
            if trajectory.trajectory_id is not None
            else trajectory_index,
            start_edge_index=start_travel_index,
            end_edge_index=end_travel_index,
            start_time=start_time,
            end_time=end_time,
        )
