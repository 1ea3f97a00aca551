"""The :class:`TrajectoryEngine` facade and its per-shard core.

One import — ``from repro.engine import TrajectoryEngine, EngineConfig`` — is
enough to build, persist, reload and query either index backend with raw
edge sequences::

    engine = TrajectoryEngine.build(
        [["e1", "e2", "e3"], ["e2", "e3", "e4"]],
        EngineConfig(backend="cinct", sa_sample_rate=8),
    )
    engine.count(["e2", "e3"])            # -> 2
    engine.save("my-index")
    TrajectoryEngine.load("my-index").count(["e2", "e3"])  # -> 2

An engine is a :class:`~repro.engine.sharding.ShardRouter`, one
:class:`EngineShard` per shard and a lazily created
:class:`~repro.engine.sharding.ShardExecutor`.  ``EngineConfig(num_shards=1)``,
the default, is an unsharded engine: every build, load, query and growth
step goes straight to shard 0.  With more shards the engine plans each batch
against the whole fleet, fans the per-shard sub-batches out and merges the
answers (see :mod:`repro.engine.sharding`).

Inside each shard every query — scalar convenience methods and the typed
:meth:`~TrajectoryEngine.run` / :meth:`~TrajectoryEngine.run_many` API alike
— flows through a staged pipeline:

1. **normalize** (:mod:`repro.engine.plan`) — raw-edge queries become
   canonical :class:`~repro.engine.plan.QueryPlan` records (encoded pattern,
   capability requirement, window bounds); every ``QueryError`` /
   ``AlphabetError`` is raised at this stage;
2. **optimize** (:func:`repro.engine.executor.optimize_plans`) — a batch is
   deduplicated and grouped by (query type x capability) so heterogeneous
   workloads route into the vectorized ``*_many`` backend paths instead of
   per-query loops;
3. **execute** (:class:`repro.engine.executor.QueryExecutor`) — groups run
   against the backend through the
   :class:`~repro.engine.executor.PlanExecutor` surface, fronted by a bounded
   LRU result cache keyed on canonical plans and invalidated by the shard's
   monotonically increasing growth :attr:`~EngineShard.epoch` (bumped by
   ``add_batch`` / ``consolidate`` and persisted with the index).

Results are assembled back around the original query objects, so cached,
batched and scalar answers are bit-identical.
"""

from __future__ import annotations

import os
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from itertools import accumulate, chain
from typing import Hashable, Iterable, Sequence

import numpy as np

from ..analysis.footprint import held_bytes
from ..exceptions import (
    EMPTY_INDEX_MESSAGE,
    ConstructionError,
    DatasetError,
    QueryError,
    ShardExecutionError,
)
from ..queries.strict_path import StrictPathMatch
from ..strings.alphabet import SEP_SYMBOL, Alphabet
from ..temporal.store import TimestampStore
from ..trajectories.model import Trajectory, TrajectoryDataset
from .backends import EngineBackend
from .config import EngineConfig
from .executor import IntervalCache, QueryExecutor, ResultCache
from .plan import KIND_EXTRACT, PlannedQuery, QueryPlan, QueryPlanner
from .queries import (
    ContainsQuery,
    ContainsResult,
    CountQuery,
    CountResult,
    EngineQuery,
    EngineResult,
    ExtractQuery,
    ExtractResult,
    LocateQuery,
    LocateResult,
    StrictPathQuery,
    StrictPathResult,
)
from .registry import BackendSpec, backend_spec
from .reliability import ShardHealth, ShardPolicy, attempt_from_error
from .sharding import (
    SerialShardExecutor,
    ShardExecutor,
    ShardRouter,
    ThreadShardExecutor,
)


def validate_monotonic_timestamps(
    timestamps: Sequence[list[float] | None], first_id: int
) -> None:
    """Reject decreasing or non-finite timestamps with the canonical messages.

    The same construction-time check ``TemporalIndex.from_trajectories``
    performs, applied only to newly arriving trajectories so streaming
    ingestion stays linear overall.  NaN and infinite timestamps are
    rejected too: they cannot be ordered, encoded or answered as JSON.  One
    pass runs over the concatenated timestamps, ignoring the steps between
    trajectories.  ``first_id`` names the global id of the first entry, so
    the error points at the first offending trajectory whatever the shard
    count.
    """
    present = [
        (offset, times)
        for offset, times in enumerate(timestamps)
        if times is not None and len(times)
    ]
    lengths = np.fromiter(
        (len(times) for _, times in present), dtype=np.int64, count=len(present)
    )
    values = np.fromiter(
        chain.from_iterable(times for _, times in present),
        dtype=np.float64,
        count=int(lengths.sum()),
    )
    ends = np.cumsum(lengths)
    falls = np.diff(values) < 0
    falls[ends[:-1] - 1] = False  # steps from one trajectory into the next
    finite = np.isfinite(values)
    # The first trajectory with each fault (len(present) when none has it).
    non_finite = decreasing = len(present)
    if not finite.all():
        non_finite = int(np.searchsorted(ends, np.argmin(finite), side="right"))
    if falls.any():
        decreasing = int(np.searchsorted(ends, np.argmax(falls), side="right"))
    if min(non_finite, decreasing) < len(present):
        offset = present[min(non_finite, decreasing)][0]
        fault = "non-finite" if non_finite <= decreasing else "decreasing"
        raise ConstructionError(f"trajectory {first_id + offset} has {fault} timestamps")


def _normalise_trajectories(
    trajectories: TrajectoryDataset | Iterable[Trajectory | Sequence[Hashable]],
) -> tuple[list[list[Hashable]], list[list[float] | None]]:
    """Split any accepted input shape into (edge lists, per-trajectory times)."""
    if isinstance(trajectories, TrajectoryDataset):
        trajectories = trajectories.trajectories
    edges: list[list[Hashable]] = []
    timestamps: list[list[float] | None] = []
    for trajectory in trajectories:
        if isinstance(trajectory, Trajectory):
            edges.append(list(trajectory.edges))
            timestamps.append(
                list(trajectory.timestamps) if trajectory.timestamps is not None else None
            )
        else:
            edges.append(list(trajectory))
            timestamps.append(None)
    return edges, timestamps


def sample_paths(
    trajectories: TrajectoryDataset | Iterable[Trajectory | Sequence[Hashable]],
    pattern_length: int,
    n_paths: int,
    seed: int = 0,
) -> list[list[Hashable]]:
    """Sample query paths (raw edges, travel order) from real trajectories.

    The backend-independent analogue of the paper's workload protocol
    ("queries randomly sampled from the data"): windows are drawn from the
    trajectories themselves, so they never straddle a separator and can be fed
    straight into :meth:`TrajectoryEngine.count` on any backend.
    """
    if pattern_length < 1:
        raise DatasetError("pattern_length must be positive")
    if n_paths < 1:
        raise DatasetError("n_paths must be positive")
    edges, _ = _normalise_trajectories(trajectories)
    eligible = [t for t in edges if len(t) >= pattern_length]
    if not eligible:
        raise DatasetError(
            f"no trajectory is at least {pattern_length} segments long; "
            "shorten the pattern length"
        )
    rng = np.random.default_rng(seed)
    paths: list[list[Hashable]] = []
    for _ in range(n_paths):
        trajectory = eligible[int(rng.integers(len(eligible)))]
        start = int(rng.integers(0, len(trajectory) - pattern_length + 1))
        paths.append(list(trajectory[start : start + pattern_length]))
    return paths


class ScalarQueryAPI:
    """Scalar convenience wrappers over the typed ``run``/``run_many`` surface.

    Shared by :class:`TrajectoryEngine` and :class:`EngineShard`, which
    provide the typed pipeline underneath.
    """

    def run(self, query: EngineQuery) -> EngineResult:
        """Answer one typed query (provided by the engine class)."""
        raise NotImplementedError  # pragma: no cover - engines override

    def run_many(self, queries: Sequence[EngineQuery]) -> list[EngineResult]:
        """Answer a typed batch (provided by the engine class)."""
        raise NotImplementedError  # pragma: no cover - engines override

    def count(self, path: Sequence[Hashable]) -> int:
        """Occurrences of the path across all indexed trajectories."""
        result = self.run(CountQuery(path))
        assert isinstance(result, CountResult)
        return result.count

    def contains(self, path: Sequence[Hashable]) -> bool:
        """True when the path occurs at least once."""
        result = self.run(ContainsQuery(path))
        assert isinstance(result, ContainsResult)
        return result.found

    def count_many(self, paths: Sequence[Sequence[Hashable]]) -> list[int]:
        """Batched :meth:`count` through the batch-first pipeline."""
        results = self.run_many([CountQuery(path) for path in paths])
        return [result.count for result in results]  # type: ignore[union-attr]

    def locate(self, path: Sequence[Hashable]) -> list[StrictPathMatch]:
        """Every occurrence of the path, resolved to trajectory coordinates."""
        result = self.run(LocateQuery(path))
        assert isinstance(result, LocateResult)
        return list(result.matches)

    def extract(self, row: int, length: int) -> list[Hashable]:
        """Algorithm-4 extraction, decoded back to edge IDs (``#``/``$`` markers)."""
        result = self.run(ExtractQuery(row=row, length=length))
        assert isinstance(result, ExtractResult)
        return list(result.edges)

    def strict_path(
        self,
        path: Sequence[Hashable],
        t_start: float | None = None,
        t_end: float | None = None,
    ) -> list[StrictPathMatch]:
        """Strict path query: traversals of ``path`` within ``[t_start, t_end]``.

        Mirrors :meth:`repro.StrictPathIndex.query` on both backends.  Both
        interval bounds must be given together, and ``t_end`` must not
        precede ``t_start``.  Temporal filtering is per match: a traversal
        qualifies when its own trajectory carries timestamps and the
        traversal lies inside the window, so a partially timestamped fleet
        still answers windowed queries — occurrences on timestamp-less
        trajectories are simply dropped (they cannot prove they happened
        inside the window).  An inverted window, or any window on a fleet
        where *no* trajectory carries timestamps, is rejected at plan time
        with a :class:`~repro.exceptions.QueryError`.
        """
        result = self.run(StrictPathQuery(path, t_start, t_end))
        assert isinstance(result, StrictPathResult)
        return list(result.matches)


class EngineShard(ScalarQueryAPI):
    """One index backend behind its own query pipeline: ``engine.shards[i]``.

    The per-shard core of :class:`TrajectoryEngine`.  It owns the backend
    adapter, the compressed timestamp store, the growth epoch, the result
    and interval caches, the planner and the executor, and answers typed
    queries in shard-local coordinates (local trajectory ids, local BWT
    rows, the backend's own alphabet).  Shards are built, loaded and saved
    through the engine, which also validates growth before it arrives here.
    """

    def __init__(
        self,
        backend: EngineBackend,
        config: EngineConfig,
        timestamps: TimestampStore,
        epoch: int = 0,
    ):
        self._backend = backend
        self._config = config
        self._spec = backend_spec(config.backend)
        self._store = timestamps
        # Query pipeline: normalize (planner) -> optimize/execute (executor)
        # with an epoch-invalidated LRU result cache in front of the backend.
        self._epoch = int(epoch)
        self._planner = QueryPlanner(backend, self._spec, self._store)
        self._cache = ResultCache(
            config.cache_size, epoch=self._epoch, max_bytes=config.cache_max_bytes
        )
        # Second cache tier: suffix-range intervals keyed on encoded pattern
        # prefixes, so backward search resumes from the deepest cached
        # ancestor instead of re-deriving whole ranges.  Same epoch model as
        # the result cache.
        self._interval_cache = IntervalCache(
            config.interval_cache_size, epoch=self._epoch
        )
        self._executor = QueryExecutor(
            backend, self._resolve_encoded, self._cache, self._interval_cache
        )
        # Background tail compaction publishes new state off the ingest
        # thread; the listener bumps this shard's epoch at swap time so its
        # caches invalidate exactly when its view changes.
        backend.set_growth_listener(self._bump_epoch)

    @classmethod
    def build(
        cls,
        edges: list[list[Hashable]],
        timestamps: list[list[float] | None],
        config: EngineConfig,
    ) -> "EngineShard":
        """Index already-validated trajectories with the configured backend."""
        backend = backend_spec(config.backend).factory(edges, config)
        return cls(backend, config, TimestampStore(timestamps))

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> EngineConfig:
        """The shard's construction configuration (``num_shards`` is 1)."""
        return self._config

    @property
    def backend(self) -> EngineBackend:
        """The backend adapter (exposes the wrapped index structure)."""
        return self._backend

    @property
    def alphabet(self) -> Alphabet:
        """The backend's alphabet mapping raw edge IDs to shard symbols."""
        return self._backend.alphabet

    @property
    def length(self) -> int:
        """Indexed trajectory-string length (including separators)."""
        return self._backend.length

    @property
    def n_trajectories(self) -> int:
        """Number of trajectories on this shard."""
        return self._backend.n_trajectories

    @property
    def epoch(self) -> int:
        """Monotonically increasing growth epoch.

        Starts at 0 (or the persisted value after a load), bumped by every
        ``add_batch`` / ``consolidate`` and by background compaction swaps.
        Both caches key their validity on this value, and saves persist it
        so reloaded shards keep counting from where they left off.
        """
        return self._epoch

    @property
    def result_cache(self) -> ResultCache:
        """The bounded, epoch-invalidated LRU in front of the backend."""
        return self._cache

    @property
    def interval_cache(self) -> IntervalCache:
        """The epoch-invalidated suffix-range interval cache."""
        return self._interval_cache

    def cache_stats(self) -> dict[str, int | bool]:
        """Result-cache counters (hits, misses, evictions, invalidations)."""
        return self._cache.stats()

    def interval_cache_stats(self) -> dict[str, int | bool]:
        """Interval-cache counters (hits, misses, evictions, invalidations)."""
        return self._interval_cache.stats()

    @property
    def timestamp_store(self) -> TimestampStore:
        """The compressed per-trajectory timestamp store."""
        return self._store

    # ------------------------------------------------------------------ #
    # growth
    # ------------------------------------------------------------------ #
    def add_batch(
        self, edges: list[list[Hashable]], timestamps: list[list[float] | None]
    ) -> None:
        """Index already-validated trajectories (growth-capable backends only)."""
        self._backend.add_batch(edges)
        self._store.extend(timestamps)
        self._bump_epoch()

    def consolidate(self) -> None:
        """Merge all partitions into one (growth-capable backends only)."""
        self._backend.consolidate()
        self._bump_epoch()

    def _bump_epoch(self) -> None:
        self._epoch += 1
        self._cache.sync_epoch(self._epoch)
        self._interval_cache.sync_epoch(self._epoch)

    # ------------------------------------------------------------------ #
    # typed query API (the staged pipeline; scalar helpers come from
    # ScalarQueryAPI)
    # ------------------------------------------------------------------ #
    def run(self, query: EngineQuery) -> EngineResult:
        """Answer one typed query through the plan -> execute pipeline."""
        planned = self._planner.plan(query)
        payloads = self._executor.execute([planned.plan])
        return self._assemble(planned, payloads[planned.plan.canonical()])

    def run_many(self, queries: Sequence[EngineQuery]) -> list[EngineResult]:
        """Answer a mixed workload, batch-first.

        Every query is normalized into a canonical plan first (so all
        raising happens before anything executes), the optimize stage dedupes
        identical plans and groups the remainder by (query type x
        capability), and the execute stage routes each group through the
        backend's vectorized ``*_many`` paths — count/contains share one
        ``count_many`` pass, extractions batch per length into
        ``extract_many``, locate/strict-path run once per distinct pattern.
        Results come back in input order and are identical to calling
        :meth:`run` per query.
        """
        planned = self._planner.plan_many(queries)
        payloads = self._executor.execute([entry.plan for entry in planned])
        return [
            self._assemble(entry, payloads[entry.plan.canonical()])
            for entry in planned
        ]

    # ------------------------------------------------------------------ #
    # pipeline helpers
    # ------------------------------------------------------------------ #
    def _assemble(self, planned: PlannedQuery, payload: object) -> EngineResult:
        """Wrap an executed payload back around the original query object."""
        query = planned.query
        if isinstance(query, CountQuery):
            assert isinstance(payload, int)
            return CountResult(query, payload)
        if isinstance(query, ContainsQuery):
            # bool from the contains plan path, int when derived from a count.
            assert isinstance(payload, (bool, int))
            return ContainsResult(query, bool(payload))
        if isinstance(query, LocateQuery):
            assert isinstance(payload, tuple)
            return LocateResult(query, payload)
        if isinstance(query, ExtractQuery):
            assert isinstance(payload, tuple)
            return ExtractResult(query, payload, tuple(self._decode_symbols(payload)))
        assert isinstance(query, StrictPathQuery) and isinstance(payload, tuple)
        matches = self._filter_window(payload, planned.plan.t_start, planned.plan.t_end)
        return StrictPathResult(query, matches)

    def _resolve_encoded(
        self, pattern: tuple[int, ...], **interval_kwargs: object
    ) -> tuple[StrictPathMatch, ...]:
        """Locate an encoded pattern and annotate matches with timestamps.

        ``interval_kwargs`` is the executor's pinned interval cache, when it
        is enabled.  Timestamps come from the store's sampled
        point lookups (:meth:`~repro.temporal.TimestampStore.timestamp`), so
        resolving a match never decodes a whole trajectory.
        """
        store = self._store
        n_stored = len(store)
        matches: list[StrictPathMatch] = []
        for trajectory_id, start, end in self._backend.locate_matches(
            list(pattern), **interval_kwargs
        ):
            if 0 <= trajectory_id < n_stored:
                start_time = store.timestamp(trajectory_id, start)
                end_time = store.timestamp(trajectory_id, end)
            else:
                start_time = end_time = None
            matches.append(
                StrictPathMatch(
                    trajectory_id=trajectory_id,
                    start_edge_index=start,
                    end_edge_index=end,
                    start_time=start_time,
                    end_time=end_time,
                )
            )
        return tuple(matches)

    def _filter_window(
        self,
        matches: tuple[StrictPathMatch, ...],
        t_start: float | None,
        t_end: float | None,
    ) -> tuple[StrictPathMatch, ...]:
        """Apply strict-path window semantics to located matches."""
        if t_start is None or t_end is None:
            return matches
        filtered: list[StrictPathMatch] = []
        for match in matches:
            if match.start_time is None or match.end_time is None:
                continue
            if match.start_time < t_start or match.end_time > t_end:
                continue
            filtered.append(match)
        return tuple(filtered)

    def _decode_symbols(self, symbols: Sequence[int]) -> list[Hashable]:
        alphabet = self._backend.alphabet
        decoded: list[Hashable] = []
        for symbol in symbols:
            symbol = int(symbol)
            if alphabet.is_edge_symbol(symbol):
                decoded.append(alphabet.decode(symbol))
            else:
                decoded.append("$" if symbol == SEP_SYMBOL else "#")
        return decoded

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"EngineShard(backend={self._spec.name!r}, "
            f"trajectories={self.n_trajectories}, length={self.length})"
        )


class _FleetTimestampView:
    """Read-only timestamp-store view over every shard's store.

    Serves the fleet planner (the ``any_timestamped`` window check) and
    callers of the engine-level ``timestamp_store`` surface (e.g. the CLI's
    build summary) with fleet-wide aggregates.
    """

    def __init__(self, engine: "TrajectoryEngine"):
        self._engine = engine

    @property
    def any_timestamped(self) -> bool:
        return any(
            shard.timestamp_store.any_timestamped
            for shard in self._engine._present_shards()
        )

    @property
    def n_timestamped(self) -> int:
        return sum(
            shard.timestamp_store.n_timestamped
            for shard in self._engine._present_shards()
        )

    @property
    def n_trajectories(self) -> int:
        return sum(
            shard.timestamp_store.n_trajectories
            for shard in self._engine._present_shards()
        )

    def size_in_bits(self) -> int:
        return self._engine.temporal_size_in_bits()


def _summed_counters(
    rows: list[dict[str, int | bool]], epoch: int
) -> dict[str, int | bool]:
    """One cache-counter row for the engine: counters sum, ``enabled`` ORs.

    ``epoch`` is the engine's own (the sum of the shards' epochs), so a
    one-shard engine reports exactly its shard's row.
    """
    merged: dict[str, int | bool] = {}
    for row in rows:
        for key, value in row.items():
            if key == "enabled":
                merged[key] = bool(merged.get(key)) or bool(value)
            elif key == "epoch":
                merged[key] = epoch
            else:
                merged[key] = int(merged.get(key, 0)) + int(value)
    return merged


class TrajectoryEngine(ScalarQueryAPI):
    """Unified query facade over the ``cinct`` and ``partitioned-cinct`` backends.

    The engine routes trajectories to ``num_shards`` :class:`EngineShard`
    cores and answers every query bit-identically to one index over the
    whole fleet — except extraction row addressing, which concatenates the
    per-shard row spaces (identical at one shard).

    * **One shard** (``EngineConfig(num_shards=1)``, the default): build,
      load, queries and growth go straight to shard 0 — no fleet planning,
      routing, merging or :class:`~repro.engine.reliability.ShardPolicy`
      wrapping, and errors pass through unwrapped.  The engine's alphabet
      and timestamp store are the shard's.
    * **N shards**: global trajectory ``g`` lives on shard ``g % N`` (see
      :class:`~repro.engine.sharding.ShardRouter`).  Each batch is planned
      against the whole fleet, so validation raises exactly what one shard
      would; per-shard sub-batches run through the configured
      :class:`~repro.engine.sharding.ShardExecutor` under the live
      :class:`~repro.engine.reliability.ShardPolicy`, each shard planning
      and caching its own sub-batch; answers are merged in input order.
      ``add_batch`` grows only the shards that receive trajectories, so
      cached answers on the others survive.  Shards of backends that cannot
      grow are only materialised when the router assigns them at least one
      trajectory (``None`` otherwise).

    Instances are created with :meth:`build` (from raw trajectories or a
    :class:`~repro.trajectories.TrajectoryDataset`) or :meth:`load` (from a
    directory written by :meth:`save`); the constructor is an internal
    assembly point shared by both paths.
    """

    def __init__(
        self,
        shards: Sequence[EngineShard | None],
        config: EngineConfig,
        alphabet: Alphabet | None = None,
    ):
        if len(shards) != config.num_shards:
            raise ConstructionError(
                f"config names {config.num_shards} shards but {len(shards)} were supplied"
            )
        self._shards: list[EngineShard | None] = list(shards)
        self._config = config
        self._spec = backend_spec(config.backend)
        self._router = ShardRouter(config.num_shards)
        # A one-shard engine *is* its shard: queries and growth go straight
        # to it, and its alphabet and timestamp store are the engine's.
        self._solo = self._shards[0] if config.num_shards == 1 else None
        if self._solo is not None:
            self._alphabet = self._solo.alphabet
            self._store_view = self._solo.timestamp_store
        else:
            assert alphabet is not None  # a fleet carries its global alphabet
            self._alphabet = alphabet
            self._store_view = _FleetTimestampView(self)
        # Fleet batches run the *same* normalize stage (same checks, same
        # canonical messages) against the engine's own global surface.
        self._planner = QueryPlanner(
            self, self._spec, self._store_view  # type: ignore[arg-type]
        )
        self._executor_impl: ShardExecutor | None = None
        self._executor_lock = threading.Lock()
        self._policy = ShardPolicy.from_config(config)
        self._health = ShardHealth(config.num_shards)
        self._rng = random.Random()  # backoff jitter only; never affects answers

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        trajectories: TrajectoryDataset | Iterable[Trajectory | Sequence[Hashable]],
        config: EngineConfig | None = None,
    ) -> "TrajectoryEngine":
        """Build an engine from raw trajectories (or a dataset) and a config.

        An empty trajectory collection is only allowed for growth-capable
        backends (start an empty engine, then :meth:`add_batch`).
        Timestamps are validated once, with global trajectory ids.
        """
        config = config or EngineConfig()
        spec = backend_spec(config.backend)
        edges, timestamps = _normalise_trajectories(trajectories)
        if not edges and not spec.supports_growth:
            raise ConstructionError(
                "cannot build a trajectory string from zero trajectories"
            )
        validate_monotonic_timestamps(timestamps, first_id=0)
        if config.num_shards == 1:
            return cls([EngineShard.build(edges, timestamps, config)], config)
        router = ShardRouter(config.num_shards)
        shard_config = replace(config, num_shards=1)
        shards: list[EngineShard | None] = []
        for shard_edges, shard_times in zip(
            router.split(edges, 0), router.split(timestamps, 0)
        ):
            if not shard_edges and not spec.supports_growth:
                shards.append(None)
            else:
                shards.append(EngineShard.build(shard_edges, shard_times, shard_config))
        return cls(shards, config, Alphabet.from_trajectories(edges))

    @classmethod
    def load(cls, directory, *, mmap: bool = False) -> "TrajectoryEngine":
        """Reload an engine persisted with :meth:`save` (any backend, any shard count).

        ``mmap=True`` maps the large immutable arrays read-only from their
        archives instead of copying them (see :func:`repro.io.load_index`) —
        with the process executor, shard workers forked from this parent then
        share one physical copy of the index pages.
        """
        from ..io.index_io import load_index

        return load_index(directory, mmap=mmap)

    def save(self, directory) -> None:
        """Persist the engine: one flat index at one shard, else a shard
        manifest plus one subdirectory per shard (see :func:`repro.io.save_index`)."""
        from ..io.index_io import save_index

        save_index(self, directory)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> EngineConfig:
        """The construction configuration (with any live executor/reliability overrides)."""
        return self._config

    @property
    def spec(self) -> BackendSpec:
        """The registry spec of the backend every shard runs."""
        return self._spec

    @property
    def backend_name(self) -> str:
        """Canonical registry key of the shards' backend."""
        return self._spec.name

    @property
    def router(self) -> ShardRouter:
        """The deterministic trajectory→shard router."""
        return self._router

    @property
    def shards(self) -> tuple[EngineShard | None, ...]:
        """The per-shard cores (``None`` for never-populated shards)."""
        return tuple(self._shards)

    @property
    def num_shards(self) -> int:
        """Number of shards (1 for an unsharded engine)."""
        return self._router.num_shards

    @property
    def alphabet(self) -> Alphabet:
        """Global alphabet over every shard (arrival-ordered, persisted)."""
        return self._alphabet

    @property
    def sigma(self) -> int:
        """Alphabet size (distinct edges + the two special symbols)."""
        return self._alphabet.sigma

    @property
    def length(self) -> int:
        """Total indexed trajectory-string length (including separators)."""
        return sum(shard.length for shard in self._present_shards())

    @property
    def n_trajectories(self) -> int:
        """Total number of indexed trajectories."""
        return sum(shard.n_trajectories for shard in self._present_shards())

    @property
    def n_partitions(self) -> int:
        """Total backend partitions (1 per shard for monolithic backends)."""
        return sum(shard.backend.n_partitions for shard in self._present_shards())

    @property
    def epoch(self) -> int:
        """Total growth across the engine (the sum of per-shard epochs).

        Bumped by every :meth:`add_batch` / :meth:`consolidate` and persisted
        by :meth:`save`, so reloaded engines keep counting.
        """
        return sum(self.epochs)

    @property
    def epochs(self) -> tuple[int, ...]:
        """Per-shard growth epochs (0 for never-populated shards)."""
        return tuple(
            0 if shard is None else shard.epoch for shard in self._shards
        )

    def size_in_bits(self) -> int:
        """Backend index size plus the exact temporal storage, over all shards."""
        backends = sum(shard.backend.size_in_bits() for shard in self._present_shards())
        return backends + self.temporal_size_in_bits()

    def held_bits(self) -> tuple[int, int]:
        """``(private, mapped)`` bits of the arrays the shards' backends and
        timestamp stores hold (:func:`held_bytes`)."""
        private, mapped = held_bytes(
            *[(s.backend, s.timestamp_store) for s in self._present_shards()]
        )
        return private * 8, mapped * 8

    def temporal_size_in_bits(self) -> int:
        """Exact encoded size of the timestamp stores (0 without timestamps)."""
        return sum(
            shard.timestamp_store.size_in_bits()
            for shard in self._present_shards()
            if shard.timestamp_store.any_timestamped
        )

    def bits_per_symbol(self) -> float:
        """Index size divided by trajectory-string length."""
        length = self.length
        if length == 0:
            raise QueryError(EMPTY_INDEX_MESSAGE)
        return self.size_in_bits() / length

    def cache_stats(self) -> dict[str, int | bool]:
        """Result-cache counters (hits, misses, evictions, ...), summed over shards."""
        return _summed_counters(self.shard_cache_stats(), self.epoch)

    def shard_cache_stats(self) -> list[dict[str, int | bool]]:
        """Per-shard cache counters, in shard order (empty shards skipped)."""
        return [shard.cache_stats() for shard in self._present_shards()]

    def disable_cache(self) -> None:
        """Turn every shard's result cache off (the CLI's ``--no-cache``)."""
        for shard in self._present_shards():
            shard.result_cache.disable()

    def interval_cache_stats(self) -> dict[str, int | bool]:
        """Interval-cache counters, summed over the shards."""
        return _summed_counters(self.shard_interval_cache_stats(), self.epoch)

    def shard_interval_cache_stats(self) -> list[dict[str, int | bool]]:
        """Per-shard interval-cache counters (empty shards skipped)."""
        return [shard.interval_cache_stats() for shard in self._present_shards()]

    def disable_interval_cache(self) -> None:
        """Turn interval sharing off on every shard."""
        for shard in self._present_shards():
            shard.interval_cache.disable()

    @property
    def policy(self) -> ShardPolicy:
        """The per-shard execution policy the fan-out runs under."""
        return self._policy

    def configure_reliability(
        self,
        *,
        deadline: float | None = None,
        retries: int | None = None,
        degraded_results: bool | None = None,
    ) -> None:
        """Override fan-out reliability knobs on a live engine.

        The query-time counterpart of the build-time
        :class:`~repro.engine.config.EngineConfig` fields (a reloaded index
        carries the config it was built with; the CLI's ``query`` flags land
        here).  ``None`` leaves a knob unchanged; validation runs through the
        config's own ``__post_init__``.  A one-shard engine never fans out,
        so there only the config changes.
        """
        updates: dict[str, object] = {}
        if deadline is not None:
            updates["shard_deadline"] = deadline
        if retries is not None:
            updates["shard_retries"] = retries
        if degraded_results is not None:
            updates["degraded_results"] = degraded_results
        if not updates:
            return
        self._config = replace(self._config, **updates)
        self._policy = ShardPolicy.from_config(self._config)

    def health(self) -> dict[str, object]:
        """Engine health: per-shard status, failure streaks, epochs, caches.

        The surface a service tier polls to decide routing/alerting: each
        shard row carries its reliability counters (from the fan-out's
        success/failure bookkeeping), its growth epoch, population, and its
        cache stats; the top level echoes the active policy and whether
        degraded merges are enabled.  ``engine`` is ``"single"`` (executor
        ``"inline"``) for a one-shard engine, which has no fan-out to fail
        partially, and ``"sharded"`` otherwise.
        """
        executor = self.executor_info()
        worker_rows = {
            row["shard"]: row for row in executor["workers"]  # type: ignore[index]
        }
        rows: list[dict[str, object]] = []
        for shard_id, (shard, stats) in enumerate(
            zip(self._shards, self._health.snapshot())
        ):
            row: dict[str, object] = {"shard": shard_id}
            row.update(stats)
            row["populated"] = shard is not None
            row["epoch"] = 0 if shard is None else shard.epoch
            row["n_trajectories"] = 0 if shard is None else shard.n_trajectories
            row["cache"] = None if shard is None else shard.cache_stats()
            row["interval_cache"] = (
                None if shard is None else shard.interval_cache_stats()
            )
            row["worker"] = worker_rows.get(shard_id)
            rows.append(row)
        failing = sum(1 for row in rows if row["status"] == "failing")
        return {
            "engine": "single" if self._solo is not None else "sharded",
            "status": "failing" if failing else "ok",
            "num_shards": self.num_shards,
            "failing_shards": failing,
            "degraded_results": self._config.degraded_results,
            "policy": self._policy.describe(),
            "executor": executor["mode"],
            "epoch": self.epoch,
            "n_trajectories": self.n_trajectories,
            "shards": rows,
        }

    def stats(self) -> dict[str, object]:
        """One observability snapshot of the whole engine.

        The unified surface the serving tier's ``/health`` and ``/stats``
        handlers (and the CLI's ``query --verbose``) read: ``engine``
        (``"single"`` / ``"sharded"``), ``backend``, ``num_shards``,
        ``n_trajectories``, ``length``, ``sigma``, ``epoch``, per-shard
        ``epochs``, ``size_in_bits``, ``held_bits`` and ``mapped_bits``
        (:meth:`held_bits`), the summed ``cache`` and
        ``interval_cache`` counters, the ``executor`` snapshot, the
        ``ingest`` rollup and the full :meth:`health` payload.  Every value
        is JSON-serializable.
        """
        health = self.health()
        held, mapped = self.held_bits()
        return {
            "engine": health["engine"],
            "backend": self.backend_name,
            "num_shards": self.num_shards,
            "n_trajectories": self.n_trajectories,
            "length": self.length,
            "sigma": self.sigma,
            "epoch": self.epoch,
            "epochs": list(self.epochs),
            "size_in_bits": self.size_in_bits(),
            "held_bits": held,
            "mapped_bits": mapped,
            "cache": self.cache_stats(),
            "interval_cache": self.interval_cache_stats(),
            "executor": self.executor_info(),
            "ingest": self.ingest_stats(),
            "health": health,
        }

    def ingest_stats(self) -> dict[str, object] | None:
        """Engine-wide tail/compaction rollup plus the per-shard breakdown.

        ``None`` when no populated shard exposes ingest counters (static
        backends).
        """
        per_shard = [
            None if shard is None else shard.backend.ingest_stats()
            for shard in self._shards
        ]
        live = [s for s in per_shard if s is not None]
        if not live:
            return None
        tails = [s["tail"] for s in live]
        compactions = [s["compaction"] for s in live]
        last_unix = [c["last_unix"] for c in compactions if c["last_unix"] is not None]
        return {
            "tail": {
                "enabled": any(t["enabled"] for t in tails),
                "trajectories": sum(int(t["trajectories"]) for t in tails),
                "symbols": sum(int(t["symbols"]) for t in tails),
                "max_symbols": self._config.tail_max_symbols,
                "max_trajectories": self._config.tail_max_trajectories,
            },
            "compaction": {
                "mode": self._config.compaction,
                "in_flight": any(c["in_flight"] for c in compactions),
                "count": sum(int(c["count"]) for c in compactions),
                "failures": sum(int(c["failures"]) for c in compactions),
                "seconds_total": sum(float(c["seconds_total"]) for c in compactions),
                "last_unix": max(last_unix) if last_unix else None,
                "tiered_merges": sum(int(c["tiered_merges"]) for c in compactions),
            },
            "shards": per_shard,
        }

    def wait_for_compaction(self, timeout: float | None = None) -> bool:
        """Block until every shard's in-flight background compaction finishes.

        Always ``True`` immediately for backends without background
        compaction; ingest drivers and tests use it to quiesce the engine.
        """
        done = True
        for shard in self._present_shards():
            done = shard.backend.wait_for_compaction(timeout) and done
        return done

    @property
    def timestamp_store(self) -> TimestampStore | _FleetTimestampView:
        """The timestamp store (a fleet-wide aggregate view over N shards)."""
        return self._store_view

    def timestamps_of(self, trajectory_id: int) -> list[float] | None:
        """Per-segment timestamps of one global trajectory (``None`` when absent)."""
        if not 0 <= trajectory_id < self.n_trajectories:
            raise QueryError(f"trajectory id {trajectory_id} out of range")
        shard = self._shards[self._router.shard_of(trajectory_id)]
        assert shard is not None  # the id exists, so its shard does
        return shard.timestamp_store.get(self._router.local_of(trajectory_id))

    @property
    def timestamps(self) -> list[list[float] | None]:
        """Per-trajectory timestamp lists in global id order."""
        return [self.timestamps_of(g) for g in range(self.n_trajectories)]

    # ------------------------------------------------------------------ #
    # growth
    # ------------------------------------------------------------------ #
    def add_batch(
        self,
        trajectories: TrajectoryDataset | Iterable[Trajectory | Sequence[Hashable]],
    ) -> None:
        """Index newly arrived trajectories (growth-capable backends only).

        The whole batch is validated before any shard mutates, so a bad
        trajectory cannot leave the engine partially grown.  Trajectories
        are routed to their shards; only shards that actually receive
        trajectories grow (and therefore bump their epoch / invalidate their
        caches), so a batch smaller than the shard count leaves the other
        shards — and their cached answers — untouched.
        """
        if not self._spec.supports_growth:
            raise ConstructionError(
                f"the {self._spec.name!r} backend is immutable once built; "
                "use the 'partitioned-cinct' backend for growing collections"
            )
        edges, timestamps = _normalise_trajectories(trajectories)
        if not edges:
            raise ConstructionError("a batch must contain at least one trajectory")
        if not all(edges):
            raise ConstructionError("trajectories in a batch must be non-empty")
        first_id = self.n_trajectories
        validate_monotonic_timestamps(timestamps, first_id=first_id)
        if self._solo is not None:
            self._solo.add_batch(edges, timestamps)
            return
        self._alphabet.add_many(chain.from_iterable(edges))
        for shard_id, (shard, shard_edges, shard_times) in enumerate(
            zip(
                self._shards,
                self._router.split(edges, first_id),
                self._router.split(timestamps, first_id),
            )
        ):
            if not shard_edges:
                continue
            assert shard is not None  # growth backends materialise all shards
            try:
                shard.add_batch(shard_edges, shard_times)
            except Exception as error:
                # The batch was validated up front, so this is a backend
                # fault mid-growth: name the shard (earlier shards in the
                # loop have already grown; the error makes that auditable).
                self._health.record_failure(shard_id, error)
                raise ShardExecutionError(
                    shard_id, "add_batch", (attempt_from_error(error),)
                ) from error

    def consolidate(self) -> None:
        """Merge each shard's partitions into one (growth-capable backends only).

        This is the paper's Section III-A periodic reconstruction, exposed on
        the facade so growth workflows never touch backend internals.
        """
        if not self._spec.supports_growth:
            raise ConstructionError(
                f"the {self._spec.name!r} backend is monolithic and cannot be "
                "consolidated; use the 'partitioned-cinct' backend for growing "
                "collections"
            )
        if self.n_trajectories == 0:
            raise ConstructionError(
                "nothing to consolidate: no trajectories were added"
            )
        if self._solo is not None:
            self._solo.consolidate()
            return
        for shard_id, shard in enumerate(self._shards):
            if shard is None or shard.n_trajectories == 0:
                continue
            try:
                shard.consolidate()
            except Exception as error:
                self._health.record_failure(shard_id, error)
                raise ShardExecutionError(
                    shard_id, "consolidate", (attempt_from_error(error),)
                ) from error

    # ------------------------------------------------------------------ #
    # typed query API (scalar helpers come from ScalarQueryAPI)
    # ------------------------------------------------------------------ #
    def run(self, query: EngineQuery) -> EngineResult:
        """Answer one typed query."""
        if self._solo is not None:
            return self._solo.run(query)
        return self.run_many([query])[0]

    def run_many(self, queries: Sequence[EngineQuery]) -> list[EngineResult]:
        """Answer a mixed workload, batch-first, in input order.

        One shard answers the batch itself (see :meth:`EngineShard.run_many`).
        A fleet normalizes the batch against the whole engine first (all
        raising happens here, with the same messages and ordering as one
        shard), routes each query — extraction to the single owning shard,
        everything else to every shard that can contribute — runs the
        per-shard sub-batches through the executor, and merges the per-shard
        answers into global results.
        """
        if self._solo is not None:
            return self._solo.run_many(queries)
        planned = self._planner.plan_many(queries)
        shard_batches: list[list[EngineQuery]] = [[] for _ in self._shards]
        refs: list[list[tuple[int, int]]] = []
        row_offsets: list[int] | None = None  # built once per batch
        for entry in planned:
            # Routing consults the *windowed* plan (not the canonical cache
            # key): a windowed strict-path must still skip timestamp-less
            # shards, and the window only lives on the un-stripped plan.
            plan = entry.plan
            localised = entry.query
            if plan.kind == KIND_EXTRACT:
                if row_offsets is None:
                    row_offsets = self._row_offsets()
                shard_id, local_row = self._row_home(plan.row, row_offsets)
                plan = plan.with_shard(shard_id)
                localised = ExtractQuery(row=local_row, length=plan.length)
            entry_refs: list[tuple[int, int]] = []
            for shard_id in self._target_shards(plan, entry.query):
                entry_refs.append((shard_id, len(shard_batches[shard_id])))
                shard_batches[shard_id].append(localised)
            refs.append(entry_refs)
        shard_results, failed_shards = self._fan_out(shard_batches)
        return [
            self._merge(entry.query, entry_refs, shard_results, failed_shards)
            for entry, entry_refs in zip(planned, refs)
        ]

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def _row_offsets(self) -> list[int]:
        """Cumulative start row of every shard in the concatenated row space."""
        return list(accumulate(
            (0 if shard is None else shard.length for shard in self._shards),
            initial=0,
        ))

    def _row_home(self, row: int, offsets: list[int]) -> tuple[int, int]:
        """Map a global BWT row to ``(shard, local row)``.

        Global rows concatenate the per-shard row spaces in shard order; the
        planner has already bounds-checked ``row`` against the total length.
        """
        for shard_id in range(self.num_shards):
            if offsets[shard_id] <= row < offsets[shard_id + 1]:
                return shard_id, row - offsets[shard_id]
        raise QueryError(  # pragma: no cover - planner bounds-checks first
            f"BWT position {row} out of range [0, {self.length})"
        )

    def _target_shards(self, plan: QueryPlan, query: EngineQuery) -> list[int]:
        """Shards that can contribute to a plan's answer."""
        if plan.routed:
            return [plan.shard]
        windowed = plan.windowed
        path = query.path  # type: ignore[union-attr]  # every fan-out query has one
        targets: list[int] = []
        for shard_id, shard in enumerate(self._shards):
            if shard is None or shard.n_trajectories == 0:
                continue
            # A pattern edge a shard never saw cannot occur on that shard;
            # skipping it both avoids a spurious AlphabetError from the
            # shard's own planner and contributes the correct zero/empty.
            if any(edge not in shard.alphabet for edge in path):
                continue
            # Per-match window semantics drop every traversal on a
            # timestamp-less shard anyway; skip it rather than trip the
            # shard-local "no timestamps" rejection.
            if windowed and not shard.timestamp_store.any_timestamped:
                continue
            targets.append(shard_id)
        return targets

    # ------------------------------------------------------------------ #
    # fan-out / merge
    # ------------------------------------------------------------------ #
    def _fan_out(
        self, shard_batches: list[list[EngineQuery]]
    ) -> tuple[dict[int, list[EngineResult]], frozenset[int]]:
        """Run every non-empty per-shard batch through the active executor.

        Each sub-batch runs under the engine's :class:`ShardPolicy` (deadline,
        bounded retries).  Returns the surviving shards' results plus the set
        of shards that exhausted their budget — non-empty only when
        ``EngineConfig.degraded_results`` is on; the default configuration
        fails fast by re-raising the first (lowest shard id) canonical
        :class:`~repro.exceptions.ShardExecutionError`.
        """
        jobs = [
            (shard_id, batch)
            for shard_id, batch in enumerate(shard_batches)
            if batch
        ]
        shard_results, failures = self._ensure_executor().run_jobs(jobs)
        for shard_id in shard_results:
            self._health.record_success(shard_id)
        for shard_id, error in failures.items():
            self._health.record_failure(shard_id, error)
        if failures and not self._config.degraded_results:
            raise failures[min(failures)]
        return shard_results, frozenset(failures)

    def _merge(
        self,
        query: EngineQuery,
        refs: list[tuple[int, int]],
        shard_results: dict[int, list[EngineResult]],
        failed_shards: frozenset[int],
    ) -> EngineResult:
        """Combine per-shard answers into the global result for one query.

        Counts sum, contains ORs, locate / strict-path matches are remapped
        to global ids and re-sorted, extraction payloads come back from the
        routed shard.  With ``degraded_results`` on and one or more of this
        query's target shards failed, the surviving shards' answers are
        merged anyway and the result is flagged ``degraded=True`` with those
        shards listed — an extraction routed to a failed shard has no
        surviving data and comes back empty (but flagged).
        """
        dropped: tuple[int, ...] = ()
        if failed_shards:
            dropped = tuple(
                sorted({shard_id for shard_id, _ in refs} & failed_shards)
            )
            refs = [(s, i) for s, i in refs if s not in failed_shards]
        degraded = bool(dropped)
        results = [shard_results[shard_id][index] for shard_id, index in refs]
        if isinstance(query, CountQuery):
            return CountResult(
                query,
                sum(r.count for r in results),  # type: ignore[union-attr]
                degraded=degraded,
                failed_shards=dropped,
            )
        if isinstance(query, ContainsQuery):
            return ContainsResult(
                query,
                any(r.found for r in results),  # type: ignore[union-attr]
                degraded=degraded,
                failed_shards=dropped,
            )
        if isinstance(query, ExtractQuery):
            if not refs:  # the single owning shard failed (degraded mode)
                return ExtractResult(
                    query, (), (), degraded=True, failed_shards=dropped
                )
            ((shard_id, _),) = refs
            (routed,) = results
            assert isinstance(routed, ExtractResult)
            return ExtractResult(
                query, self._globalise_symbols(shard_id, routed.symbols), routed.edges
            )
        matches = self._merge_matches(refs, results)
        if isinstance(query, LocateQuery):
            return LocateResult(
                query, matches, degraded=degraded, failed_shards=dropped
            )
        assert isinstance(query, StrictPathQuery)
        return StrictPathResult(
            query, matches, degraded=degraded, failed_shards=dropped
        )

    def _globalise_symbols(
        self, shard_id: int, symbols: tuple[int, ...]
    ) -> tuple[int, ...]:
        """Re-encode a shard's extracted symbols against the global alphabet.

        Each shard numbers edge symbols by its own first-appearance order, so
        a shard-local symbol id would silently decode to a different edge
        under :attr:`alphabet`.  The special symbols (``#``/``$``) are shared
        by every alphabet and pass through unchanged.
        """
        shard = self._shards[shard_id]
        assert shard is not None  # a routed row always lands on a real shard
        local_alphabet = shard.alphabet
        global_alphabet = self._alphabet
        return tuple(
            global_alphabet.encode(local_alphabet.decode(symbol))
            if local_alphabet.is_edge_symbol(symbol)
            else symbol
            for symbol in symbols
        )

    def _merge_matches(
        self,
        refs: list[tuple[int, int]],
        results: list[EngineResult],
    ) -> tuple[StrictPathMatch, ...]:
        """Remap shard-local matches to global ids and restore canonical order."""
        router = self._router
        merged: list[StrictPathMatch] = []
        for (shard_id, _), result in zip(refs, results):
            for match in result.matches:  # type: ignore[union-attr]
                merged.append(
                    StrictPathMatch(
                        trajectory_id=router.global_of(shard_id, match.trajectory_id),
                        start_edge_index=match.start_edge_index,
                        end_edge_index=match.end_edge_index,
                        start_time=match.start_time,
                        end_time=match.end_time,
                    )
                )
        merged.sort(
            key=lambda m: (m.trajectory_id, m.start_edge_index, m.end_edge_index)
        )
        return tuple(merged)

    # ------------------------------------------------------------------ #
    # executor plumbing
    # ------------------------------------------------------------------ #
    def _max_workers(self) -> int:
        if self._config.shard_workers is not None:
            return max(1, int(self._config.shard_workers))
        return max(1, min(self.num_shards, os.cpu_count() or 1))

    def _make_executor(self) -> ShardExecutor:
        mode = self._config.shard_executor
        if mode == "processes":
            from .workers import ProcessShardExecutor

            return ProcessShardExecutor(self)
        if mode == "serial":
            return SerialShardExecutor(self)
        return ThreadShardExecutor(self)

    def _ensure_executor(self) -> ShardExecutor:
        # Locked: concurrent run_many callers (the serving tier's worker
        # threads) may race the first fan-out, and two executors would leak
        # the loser's pool/processes.
        with self._executor_lock:
            if self._executor_impl is None:
                self._executor_impl = self._make_executor()
            return self._executor_impl

    @property
    def _pool(self) -> ThreadPoolExecutor | None:
        """The active executor's dispatch thread pool (``None`` until one is
        actually spun up — the inline fast paths never create it)."""
        executor = self._executor_impl
        return None if executor is None else executor._pool

    def configure_executor(self, mode: str) -> None:
        """Switch fan-out execution strategy on a live engine.

        The query-time counterpart of ``EngineConfig.shard_executor`` (a
        reloaded index carries the config it was built with; the CLI's
        ``--shard-executor`` flag lands here).  The previous executor's
        pool/worker processes are shut down; the new strategy is created
        lazily on the next fan-out.  Validation runs through the config's
        own ``__post_init__``.
        """
        new_config = replace(self._config, shard_executor=str(mode))
        with self._executor_lock:
            executor, self._executor_impl = self._executor_impl, None
            self._config = new_config
        if executor is not None:
            executor.close()

    def executor_info(self) -> dict[str, object]:
        """JSON-safe snapshot of the fan-out executor (mode, worker rows).

        A one-shard engine never fans out and reports mode ``"inline"``.
        Otherwise ``started`` is ``False`` until the first fan-out
        materialises the executor (worker processes fork lazily); the
        ``workers`` list carries one row per live shard worker process —
        pid, restart count, liveness, synced epoch — and stays empty for the
        in-process executors.
        """
        if self._solo is not None:
            return {"mode": "inline", "max_workers": 1, "started": True, "workers": []}
        with self._executor_lock:
            executor = self._executor_impl
        if executor is None:
            return {
                "mode": self._config.shard_executor,
                "max_workers": self._max_workers(),
                "started": False,
                "workers": [],
            }
        info = executor.describe()
        info["started"] = True
        return info

    def close(self) -> None:
        """Shut the fan-out executor down — dispatch pool and any shard
        worker processes (engines remain queryable; the executor is recreated
        lazily on the next fan-out)."""
        with self._executor_lock:
            executor, self._executor_impl = self._executor_impl, None
        if executor is not None:
            executor.close()

    def __enter__(self) -> "TrajectoryEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _present_shards(self) -> list[EngineShard]:
        return [shard for shard in self._shards if shard is not None]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TrajectoryEngine(backend={self.backend_name!r}, "
            f"shards={self.num_shards}, trajectories={self.n_trajectories})"
        )


#: The names of the former two-class API, kept as aliases of the one engine.
ShardedTrajectoryEngine = TrajectoryEngine
build_engine = TrajectoryEngine.build
