"""Typed query and result objects for the engine facade.

Queries speak *raw edge sequences* (road-segment IDs in travel order), never
internal symbols: the engine encodes them against the backend's alphabet and
normalises every failure mode (empty path, unknown segment, empty index) into
the canonical :class:`~repro.exceptions.QueryError` /
:class:`~repro.exceptions.AlphabetError` messages.

``TrajectoryEngine.run`` answers one query; ``TrajectoryEngine.run_many`` is
the batch-first path.  Both flow through the staged pipeline — queries are
normalized into canonical :class:`~repro.engine.plan.QueryPlan` records,
deduplicated and grouped by (query type x capability), and executed through
the backend's vectorized ``*_many`` paths behind an epoch-invalidated result
cache — returning results in the original order, bit-identical to scalar
calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence, Union

from ..queries.strict_path import StrictPathMatch


def _as_path(path: Sequence[Hashable]) -> tuple[Hashable, ...]:
    return tuple(path)


@dataclass(frozen=True)
class CountQuery:
    """How many times does ``path`` occur across the indexed trajectories?"""

    path: tuple[Hashable, ...]

    def __init__(self, path: Sequence[Hashable]):
        object.__setattr__(self, "path", _as_path(path))


@dataclass(frozen=True)
class ContainsQuery:
    """Does ``path`` occur at least once?"""

    path: tuple[Hashable, ...]

    def __init__(self, path: Sequence[Hashable]):
        object.__setattr__(self, "path", _as_path(path))


@dataclass(frozen=True)
class LocateQuery:
    """Where does ``path`` occur?  Resolves every occurrence to a trajectory."""

    path: tuple[Hashable, ...]

    def __init__(self, path: Sequence[Hashable]):
        object.__setattr__(self, "path", _as_path(path))


@dataclass(frozen=True)
class ExtractQuery:
    """Recover ``length`` symbols of the text ending at suffix-array row ``row``.

    This is the paper's Algorithm-4 sub-path extraction, addressed by BWT row
    exactly like :meth:`repro.CiNCT.extract`; the partitioned backend, which
    has no single suffix structure, rejects it.
    """

    row: int
    length: int


@dataclass(frozen=True)
class StrictPathQuery:
    """Which trajectories travelled ``path`` (optionally within a time window)?

    ``t_start``/``t_end`` must be given together; when present, only
    traversals that started no earlier than ``t_start`` and finished no later
    than ``t_end`` match (the Section-VII strict-path semantics).
    """

    path: tuple[Hashable, ...]
    t_start: float | None = None
    t_end: float | None = None

    def __init__(
        self,
        path: Sequence[Hashable],
        t_start: float | None = None,
        t_end: float | None = None,
    ):
        object.__setattr__(self, "path", _as_path(path))
        object.__setattr__(self, "t_start", t_start)
        object.__setattr__(self, "t_end", t_end)


EngineQuery = Union[CountQuery, ContainsQuery, LocateQuery, ExtractQuery, StrictPathQuery]


@dataclass(frozen=True)
class CountResult:
    """Answer to a :class:`CountQuery`."""

    query: CountQuery
    count: int
    #: ``True`` when a failed shard was dropped from this answer (only with
    #: ``EngineConfig.degraded_results``); the shards dropped are listed in
    #: :attr:`failed_shards`.  Complete answers carry the defaults, so
    #: equality with non-degraded results is unaffected.
    degraded: bool = False
    failed_shards: tuple[int, ...] = ()


@dataclass(frozen=True)
class ContainsResult:
    """Answer to a :class:`ContainsQuery`."""

    query: ContainsQuery
    found: bool
    degraded: bool = False
    failed_shards: tuple[int, ...] = ()


@dataclass(frozen=True)
class LocateResult:
    """Answer to a :class:`LocateQuery`: matches sorted by (trajectory, start)."""

    query: LocateQuery
    matches: tuple[StrictPathMatch, ...] = field(default=())
    degraded: bool = False
    failed_shards: tuple[int, ...] = ()

    @property
    def count(self) -> int:
        """Number of resolved occurrences."""
        return len(self.matches)

    def trajectory_ids(self) -> list[int]:
        """Distinct matching trajectory IDs, ascending."""
        return sorted({match.trajectory_id for match in self.matches})


@dataclass(frozen=True)
class ExtractResult:
    """Answer to an :class:`ExtractQuery`.

    ``symbols`` are the internal symbols in stored-text order.  The
    trajectory string stores every trajectory reversed, so a window inside
    one trajectory reads in *reverse* travel order (``edges[::-1]`` is the
    order the vehicle drove it).  ``edges`` decodes the symbols back to
    road-segment IDs, with the special symbols rendered as the paper's
    ``"#"`` (end) and ``"$"`` (separator) markers.
    """

    query: ExtractQuery
    symbols: tuple[int, ...]
    edges: tuple[Hashable, ...]
    degraded: bool = False
    failed_shards: tuple[int, ...] = ()


@dataclass(frozen=True)
class StrictPathResult:
    """Answer to a :class:`StrictPathQuery`: time-filtered, sorted matches."""

    query: StrictPathQuery
    matches: tuple[StrictPathMatch, ...] = field(default=())
    degraded: bool = False
    failed_shards: tuple[int, ...] = ()

    @property
    def count(self) -> int:
        """Number of matching traversals."""
        return len(self.matches)

    def trajectory_ids(self) -> list[int]:
        """Distinct matching trajectory IDs, ascending."""
        return sorted({match.trajectory_id for match in self.matches})


EngineResult = Union[CountResult, ContainsResult, LocateResult, ExtractResult, StrictPathResult]
