"""Normalize stage of the engine query pipeline.

The engine answers queries through a staged pipeline — **normalize** (this
module), **optimize** and **execute** (:mod:`repro.engine.executor`):

* normalize turns a raw-edge :class:`~repro.engine.queries.EngineQuery` into a
  canonical, hashable :class:`QueryPlan`: the pattern encoded against the
  backend's alphabet, the capability the backend must provide, and any
  strict-path window bounds.  *Every* ``QueryError`` / ``AlphabetError`` the
  query can raise (empty index, empty path, unknown segment, half-open or
  timestamp-less windows, missing capability) is raised here, before anything
  executes;
* optimize groups a batch of plans by (query type x capability) and dedupes
  identical plans so each distinct piece of work runs once;
* execute routes each group through the backend's vectorized ``*_many`` paths,
  fronted by an epoch-invalidated LRU result cache.  Suffix-searching
  backends get two further sharing layers underneath the result cache: the
  batch's encoded patterns are folded into one prefix trie so overlapping
  patterns share every common backward-search step
  (:mod:`repro.fmindex.trie`), and an epoch-invalidated
  :class:`~repro.engine.executor.IntervalCache` of suffix ranges lets warm
  prefixes resume mid-search instead of starting over.

Canonicalization is what makes the cache effective: a ``ContainsQuery``
normalizes to a dedicated contains plan whose :meth:`QueryPlan.count_twin`
names the count plan over the same path (so a cached count answers the
contains without touching the backend), and a windowed ``StrictPathQuery``
shares its locate plan with ``LocateQuery`` — the window is carried on the
plan but stripped from the cache key (:meth:`QueryPlan.canonical`), so
time-window variations of one path hit one cached locate result.

Plans also carry a **shard-routing hint** (:attr:`QueryPlan.shard`): an
engine with more than one shard plans every query against the whole fleet
first, then stamps single-shard-routable plans (extraction by global BWT row)
with the shard that owns them; fan-out plans keep the :data:`ALL_SHARDS`
default.  Shards plan their own sub-batches without the hint, so their cache
keys are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Hashable, Sequence

from ..exceptions import EMPTY_INDEX_MESSAGE, EMPTY_PATH_MESSAGE, QueryError
from .queries import (
    ContainsQuery,
    CountQuery,
    EngineQuery,
    ExtractQuery,
    LocateQuery,
    StrictPathQuery,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..temporal.store import TimestampStore
    from .backends import EngineBackend
    from .registry import BackendSpec

#: Capability kinds a plan can require from a backend.  ``count`` and
#: ``contains`` are answered by every backend; ``locate`` and ``extract`` map
#: to the ``supports_locate`` / ``supports_extract`` flags on the backend spec.
KIND_COUNT = "count"
KIND_CONTAINS = "contains"
KIND_LOCATE = "locate"
KIND_EXTRACT = "extract"

#: Shard-routing hint for plans that must fan out to every shard (also the
#: value every plan carries on an unsharded engine).
ALL_SHARDS = -1


@dataclass(frozen=True)
class QueryPlan:
    """Canonical execution record for one normalized query.

    Plans are hashable and equality-comparable, so they serve directly as
    dedupe keys inside a batch and (via :meth:`canonical`) as result-cache
    keys.  ``kind`` doubles as the capability requirement the backend must
    satisfy; ``pattern`` is the path encoded to internal symbols; ``row`` /
    ``length`` address Algorithm-4 extraction; ``t_start`` / ``t_end`` carry
    strict-path window bounds.
    """

    kind: str
    pattern: tuple[int, ...] = ()
    row: int = -1
    length: int = 0
    t_start: float | None = None
    t_end: float | None = None
    shard: int = ALL_SHARDS

    @property
    def windowed(self) -> bool:
        """True when the plan carries strict-path window bounds."""
        return self.t_start is not None

    @property
    def routed(self) -> bool:
        """True when the plan is pinned to a single shard of a sharded fleet."""
        return self.shard != ALL_SHARDS

    def canonical(self) -> "QueryPlan":
        """The cache/execution key: this plan with the window stripped.

        Window filtering is a cheap post-processing step over the located
        matches, so every window variation of one path shares a single
        executed (and cached) locate plan.  The shard-routing hint is kept:
        it is part of what the plan *is* on a sharded fleet.
        """
        if self.t_start is None and self.t_end is None:
            return self
        return QueryPlan(
            kind=self.kind, pattern=self.pattern, row=self.row, length=self.length, shard=self.shard
        )

    def with_shard(self, shard: int) -> "QueryPlan":
        """This plan stamped with a shard-routing hint (fleet layer only)."""
        return replace(self, shard=int(shard))

    def count_twin(self) -> "QueryPlan":
        """The count plan a contains plan can be answered from.

        A cached (or same-batch) occurrence count over the same pattern fully
        determines the contains answer, so the executor probes this twin
        before reaching the backend's early-exit ``contains`` path.
        """
        return QueryPlan(kind=KIND_COUNT, pattern=self.pattern, shard=self.shard)


@dataclass(frozen=True)
class PlannedQuery:
    """A query together with its normalized plan (the planner's output)."""

    query: EngineQuery
    plan: QueryPlan


class QueryPlanner:
    """Normalize raw-edge queries into canonical :class:`QueryPlan` records.

    The planner owns every failure mode of the query surface: it validates
    against the backend's alphabet and the spec's capability flags, and
    raises the canonical :class:`~repro.exceptions.QueryError` /
    :class:`~repro.exceptions.AlphabetError` messages *before* the optimize
    and execute stages see the query.
    """

    def __init__(self, backend: "EngineBackend", spec: "BackendSpec", store: "TimestampStore"):
        self._backend = backend
        self._spec = spec
        self._store = store

    def plan(self, query: EngineQuery) -> PlannedQuery:
        """Normalize one query (raising here, never during execution)."""
        if isinstance(query, CountQuery):
            return PlannedQuery(query, QueryPlan(KIND_COUNT, pattern=self.encode(query.path)))
        if isinstance(query, ContainsQuery):
            # A dedicated kind (not a count plan) so execution can reach the
            # backend's early-exit contains specializations; the executor
            # still answers from a cached count via QueryPlan.count_twin.
            return PlannedQuery(query, QueryPlan(KIND_CONTAINS, pattern=self.encode(query.path)))
        if isinstance(query, LocateQuery):
            self._require_locate()
            return PlannedQuery(query, QueryPlan(KIND_LOCATE, pattern=self.encode(query.path)))
        if isinstance(query, StrictPathQuery):
            return PlannedQuery(query, self._plan_strict_path(query))
        if isinstance(query, ExtractQuery):
            self._require_extract()
            row, length = int(query.row), int(query.length)
            # The backend's own bounds checks, replicated here (same messages)
            # so an invalid extraction fails at plan time like every other
            # query — never mid-batch after other plans have executed.
            if not 0 <= row < self._backend.length:
                raise QueryError(
                    f"BWT position {row} out of range [0, {self._backend.length})"
                )
            if length < 0:
                raise QueryError(
                    f"extraction length must be non-negative, got {length}"
                )
            return PlannedQuery(query, QueryPlan(KIND_EXTRACT, row=row, length=length))
        raise QueryError(f"unsupported query type: {type(query).__name__}")

    def plan_many(self, queries: Sequence[EngineQuery]) -> list[PlannedQuery]:
        """Normalize a batch in input order (the first invalid query raises)."""
        return [self.plan(query) for query in queries]

    def encode(self, path: Sequence[Hashable]) -> tuple[int, ...]:
        """Encode a raw edge path, normalizing the canonical failure modes."""
        if self._backend.n_trajectories == 0:
            raise QueryError(EMPTY_INDEX_MESSAGE)
        edges = list(path)
        if not edges:
            raise QueryError(EMPTY_PATH_MESSAGE)
        return tuple(self._backend.alphabet.encode_path(edges))

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _plan_strict_path(self, query: StrictPathQuery) -> QueryPlan:
        if (query.t_start is None) != (query.t_end is None):
            raise QueryError("provide both t_start and t_end, or neither")
        if query.t_start is not None and (
            math.isnan(query.t_start) or math.isnan(query.t_end)  # type: ignore[arg-type]
        ):
            # NaN compares false both ways, so it would filter every match
            # out silently; infinite bounds stay legal as open windows.
            raise QueryError(
                f"time window bounds must not be NaN, got [{query.t_start}, {query.t_end}]"
            )
        if query.t_start is not None and not self._store.any_timestamped:
            raise QueryError(
                "the dataset has no timestamps; temporal filtering is unavailable"
            )
        self._require_locate()
        return QueryPlan(
            KIND_LOCATE,
            pattern=self.encode(query.path),
            t_start=query.t_start,
            t_end=query.t_end,
        )

    def _require_locate(self) -> None:
        if not self._spec.supports_locate:
            raise QueryError(
                f"locate is not supported by the {self._spec.name!r} backend"
            )

    def _require_extract(self) -> None:
        if not self._spec.supports_extract:
            raise QueryError(
                f"extract is not supported by the {self._spec.name!r} backend"
            )


__all__ = [
    "ALL_SHARDS",
    "KIND_COUNT",
    "KIND_CONTAINS",
    "KIND_LOCATE",
    "KIND_EXTRACT",
    "QueryPlan",
    "PlannedQuery",
    "QueryPlanner",
]
