"""The :class:`TrajectoryEngine` facade.

One import — ``from repro.engine import TrajectoryEngine, EngineConfig`` — is
enough to build, persist, reload and query *any* registered index backend
with raw edge sequences::

    engine = TrajectoryEngine.build(
        [["e1", "e2", "e3"], ["e2", "e3", "e4"]],
        EngineConfig(backend="cinct", sa_sample_rate=8),
    )
    engine.count(["e2", "e3"])            # -> 2
    engine.save("my-index")
    TrajectoryEngine.load("my-index").count(["e2", "e3"])  # -> 2

Every query — scalar convenience methods and the typed :meth:`run` /
:meth:`run_many` API alike — flows through a staged pipeline:

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
   LRU result cache keyed on canonical plans and invalidated by the engine's
   monotonically increasing growth :attr:`~TrajectoryEngine.epoch` (bumped by
   :meth:`~TrajectoryEngine.add_batch` / :meth:`~TrajectoryEngine.consolidate`
   and persisted with the index).

Results are assembled back around the original query objects, so cached,
batched and scalar answers are bit-identical.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

import numpy as np

from ..exceptions import (
    EMPTY_INDEX_MESSAGE,
    ConstructionError,
    DatasetError,
    QueryError,
)
from ..queries.strict_path import StrictPathMatch
from ..queries.temporal import TemporalIndex
from ..strings.alphabet import SEP_SYMBOL, Alphabet
from ..temporal.store import TimestampStore
from ..trajectories.model import Trajectory, TrajectoryDataset
from .backends import EngineBackend
from .config import EngineConfig
from .executor import IntervalCache, QueryExecutor, ResultCache
from .plan import PlannedQuery, QueryPlanner
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


def validate_monotonic_timestamps(
    timestamps: Sequence[list[float] | None], first_id: int
) -> None:
    """Reject decreasing per-trajectory timestamps with the canonical message.

    The same construction-time check ``TemporalIndex.from_trajectories``
    performs, applied only to newly arriving trajectories so streaming
    ingestion stays linear overall.  ``first_id`` names the global id of the
    first entry, so the error points at the offending trajectory — the
    sharded fleet layer calls this with global ids *before* routing, keeping
    its error messages identical to an unsharded engine's.
    """
    for offset, times in enumerate(timestamps):
        if times is None:
            continue
        if np.any(np.diff(np.asarray(times, dtype=np.float64)) < 0):
            raise ConstructionError(
                f"trajectory {first_id + offset} has decreasing timestamps"
            )


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

    Shared by :class:`TrajectoryEngine` and
    :class:`~repro.engine.sharding.ShardedTrajectoryEngine`, which provide
    the typed pipeline underneath — keeping the scalar facade in one place
    means the two engine classes cannot drift apart on it.
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

        Mirrors :meth:`repro.StrictPathIndex.query` on every locate-capable
        backend.  Both interval bounds must be given together.  Temporal
        filtering is per match: a traversal qualifies when its own trajectory
        carries timestamps and the traversal lies inside the window, so a
        partially timestamped fleet still answers windowed queries —
        occurrences on timestamp-less trajectories are simply dropped (they
        cannot prove they happened inside the window).  Only when *no*
        trajectory in the fleet carries timestamps is a windowed query
        rejected with a :class:`~repro.exceptions.QueryError`.
        """
        result = self.run(StrictPathQuery(path, t_start, t_end))
        assert isinstance(result, StrictPathResult)
        return list(result.matches)


class TrajectoryEngine(ScalarQueryAPI):
    """Unified query facade over every registered index backend.

    Instances are created with :meth:`build` (from raw trajectories or a
    :class:`~repro.trajectories.TrajectoryDataset`) or :meth:`load` (from a
    directory written by :meth:`save`); the constructor is an internal
    assembly point shared by both paths.
    """

    def __init__(
        self,
        backend: EngineBackend,
        config: EngineConfig,
        timestamps: TimestampStore | Sequence[list[float] | None] = (),
        epoch: int = 0,
    ):
        self._backend = backend
        self._config = config
        self._spec = backend_spec(config.backend)
        if isinstance(timestamps, TimestampStore):
            self._store = timestamps
        else:
            self._validate_timestamps(timestamps, first_id=0)
            self._store = TimestampStore(timestamps)
        # The temporal companion is built lazily (and only once per growth
        # step), so streaming ingestion stays linear in the fleet size.
        self._temporal: TemporalIndex | None = None
        self._temporal_fresh = False
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
        # the result cache; ignored by backends without a suffix structure.
        self._interval_cache = IntervalCache(
            config.interval_cache_size, epoch=self._epoch
        )
        self._executor = QueryExecutor(
            backend, self._resolve_encoded, self._cache, self._interval_cache
        )
        # Background tail compaction publishes new state off the ingest
        # thread; the listener bumps this engine's epoch at swap time so the
        # cache invalidates exactly when the view changes (and, in a sharded
        # fleet, only on the compacted shard).
        backend.set_growth_listener(self._bump_epoch)

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
        backends (start an empty fleet, then :meth:`add_batch`).  A config
        asking for more than one shard is rejected — a monolithic engine
        silently ignoring ``num_shards`` would claim a fleet layout it does
        not have; build those with :func:`repro.engine.build_engine` or
        :meth:`~repro.engine.sharding.ShardedTrajectoryEngine.build`.
        """
        config = config or EngineConfig()
        if config.num_shards > 1:
            raise ConstructionError(
                f"EngineConfig.num_shards={config.num_shards} needs the sharded "
                "fleet layer; build with repro.engine.build_engine (or "
                "ShardedTrajectoryEngine.build)"
            )
        spec = backend_spec(config.backend)
        edges, timestamps = _normalise_trajectories(trajectories)
        if not edges and not spec.supports_growth:
            raise ConstructionError(
                "cannot build a trajectory string from zero trajectories"
            )
        backend = spec.factory(edges, config)
        return cls(backend, config, timestamps)

    @classmethod
    def load(cls, directory, *, mmap: bool = False) -> "TrajectoryEngine":
        """Reload an engine persisted with :meth:`save` (any backend).

        ``mmap=True`` maps the large immutable arrays read-only from their
        archives instead of copying them (see :func:`repro.io.load_index`).
        Directories holding a sharded fleet are rejected — load those with
        :meth:`~repro.engine.sharding.ShardedTrajectoryEngine.load`, or use
        :func:`repro.io.load_index`, which returns whichever engine class the
        directory holds.
        """
        from ..io.index_io import load_index

        engine = load_index(directory, mmap=mmap)
        if not isinstance(engine, cls):
            raise ConstructionError(
                f"{directory} holds a sharded fleet; load it with "
                "ShardedTrajectoryEngine.load (or repro.io.load_index)"
            )
        return engine

    def save(self, directory) -> None:
        """Persist the engine (config + alphabet + backend state) to a directory."""
        from ..io.index_io import save_index

        save_index(self, directory)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> EngineConfig:
        """The construction configuration."""
        return self._config

    @property
    def spec(self) -> BackendSpec:
        """The registry spec of the active backend."""
        return self._spec

    @property
    def backend(self) -> EngineBackend:
        """The backend adapter (exposes the wrapped index structure)."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Canonical registry key of the active backend."""
        return self._spec.name

    @property
    def alphabet(self) -> Alphabet:
        """The alphabet mapping raw edge IDs to indexed symbols."""
        return self._backend.alphabet

    @property
    def length(self) -> int:
        """Total indexed trajectory-string length (including separators)."""
        return self._backend.length

    @property
    def sigma(self) -> int:
        """Alphabet size (distinct edges + the two special symbols)."""
        return self._backend.sigma

    @property
    def n_trajectories(self) -> int:
        """Number of indexed trajectories."""
        return self._backend.n_trajectories

    @property
    def epoch(self) -> int:
        """Monotonically increasing growth epoch.

        Starts at 0 (or the persisted value after :meth:`load`), bumped by
        every :meth:`add_batch` / :meth:`consolidate`.  The result cache keys
        its validity on this value, and :meth:`save` persists it so reloaded
        engines keep counting from where they left off.
        """
        return self._epoch

    @property
    def result_cache(self) -> ResultCache:
        """The bounded, epoch-invalidated LRU in front of the backend."""
        return self._cache

    def cache_stats(self) -> dict[str, int | bool]:
        """Result-cache counters (hits, misses, evictions, invalidations)."""
        return self._cache.stats()

    @property
    def interval_cache(self) -> IntervalCache:
        """The epoch-invalidated suffix-range interval cache."""
        return self._interval_cache

    def interval_cache_stats(self) -> dict[str, int | bool]:
        """Interval-cache counters (hits, misses, evictions, invalidations)."""
        return self._interval_cache.stats()

    def disable_interval_cache(self) -> None:
        """Turn interval sharing off for the rest of this engine's lifetime."""
        self._interval_cache.disable()

    def disable_cache(self) -> None:
        """Turn the result cache off for the rest of this engine's lifetime.

        The uniform cache-control entry point shared with
        :class:`~repro.engine.sharding.ShardedTrajectoryEngine` (where it
        disables every shard's cache) — the CLI's ``--no-cache``.
        """
        self._cache.disable()

    def health(self) -> dict[str, object]:
        """Single-engine health: the unsharded counterpart of the fleet's
        :meth:`~repro.engine.sharding.ShardedTrajectoryEngine.health`.

        A monolithic engine has no fan-out to fail partially, so its status
        is always ``"ok"``; the surface exists so callers (the CLI's
        ``query --verbose``, the future service tier) can poll one shape
        regardless of the engine class.
        """
        return {
            "engine": "single",
            "status": "ok",
            "num_shards": 1,
            "failing_shards": 0,
            "degraded_results": False,
            "executor": "inline",
            "epoch": self._epoch,
            "n_trajectories": self.n_trajectories,
            "cache": self.cache_stats(),
            "interval_cache": self.interval_cache_stats(),
        }

    def stats(self) -> dict[str, object]:
        """One observability snapshot of the whole engine.

        The unified surface the serving tier's ``/health`` handler (and the
        CLI's ``query --verbose``) reads instead of stitching together
        :meth:`cache_stats`, :meth:`health`, :attr:`epoch` and the size
        accessors.  Both engine classes return the same shape: ``engine``
        (``"single"`` / ``"sharded"``), ``backend``, ``num_shards``,
        ``n_trajectories``, ``length``, ``sigma``, ``epoch``, per-shard
        ``epochs``, ``size_in_bits``, aggregated ``cache`` counters, and the
        full :meth:`health` payload.  Every value is JSON-serializable.
        """
        return {
            "engine": "single",
            "backend": self.backend_name,
            "num_shards": 1,
            "n_trajectories": self.n_trajectories,
            "length": self.length,
            "sigma": self.sigma,
            "epoch": self._epoch,
            "epochs": [self._epoch],
            "size_in_bits": self.size_in_bits(),
            "cache": self.cache_stats(),
            "interval_cache": self.interval_cache_stats(),
            "executor": {
                "mode": "inline",
                "max_workers": 1,
                "started": True,
                "workers": [],
            },
            "ingest": self._backend.ingest_stats(),
            "health": self.health(),
        }

    @property
    def temporal(self) -> TemporalIndex | None:
        """The temporal companion index (``None`` when disabled/unavailable)."""
        if not self._temporal_fresh:
            if self._config.temporal_index and self._fully_timestamped():
                self._temporal = self._build_temporal()
            else:
                self._temporal = None
            self._temporal_fresh = True
        return self._temporal

    @property
    def timestamp_store(self) -> TimestampStore:
        """The compressed per-trajectory timestamp store."""
        return self._store

    def timestamps_of(self, trajectory_id: int) -> list[float] | None:
        """Per-segment timestamps of one trajectory (``None`` when absent)."""
        return self._store.get(trajectory_id)

    @property
    def timestamps(self) -> list[list[float] | None]:
        """Per-trajectory timestamp lists, aligned to :attr:`n_trajectories`."""
        aligned = self._store.as_lists()[: self.n_trajectories]
        aligned.extend([None] * (self.n_trajectories - len(aligned)))
        return aligned

    def size_in_bits(self) -> int:
        """Backend index size plus the exact temporal storage (when present)."""
        return self._backend.size_in_bits() + self.temporal_size_in_bits()

    def temporal_size_in_bits(self) -> int:
        """Exact encoded size of the timestamp store (0 without timestamps)."""
        if not self._store.any_timestamped:
            return 0
        return self._store.size_in_bits()

    def bits_per_symbol(self) -> float:
        """Index size divided by trajectory-string length."""
        length = self.length
        if length == 0:
            raise QueryError(EMPTY_INDEX_MESSAGE)
        return self.size_in_bits() / length

    # ------------------------------------------------------------------ #
    # growth
    # ------------------------------------------------------------------ #
    def add_batch(
        self,
        trajectories: TrajectoryDataset | Iterable[Trajectory | Sequence[Hashable]],
    ) -> None:
        """Index newly arrived trajectories (growth-capable backends only)."""
        edges, timestamps = _normalise_trajectories(trajectories)
        self._validate_timestamps(timestamps, first_id=len(self._store))
        self._backend.add_batch(edges)
        self._store.extend(timestamps)
        self._temporal_fresh = False
        self._bump_epoch()

    @property
    def n_partitions(self) -> int:
        """Number of independent partitions (1 for monolithic backends)."""
        return self._backend.n_partitions

    def consolidate(self) -> None:
        """Merge all partitions into one (growth-capable backends only).

        This is the paper's Section III-A periodic reconstruction, exposed on
        the facade so growth workflows never touch backend internals.
        """
        self._backend.consolidate()
        self._bump_epoch()

    def wait_for_compaction(self, timeout: float | None = None) -> bool:
        """Block until any in-flight background tail compaction finishes.

        Always ``True`` immediately for backends without background
        compaction; exposed on the facade so ingest drivers and tests can
        quiesce the engine deterministically.
        """
        return self._backend.wait_for_compaction(timeout)

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

        The batch flows through the staged pipeline: every query is
        normalized into a canonical plan first (so all raising happens before
        anything executes), the optimize stage dedupes identical plans and
        groups the remainder by (query type x capability), and the execute
        stage routes each group through the backend's vectorized ``*_many``
        paths — count/contains share one ``count_many`` pass, extractions
        batch per length into ``extract_many``, locate/strict-path run once
        per distinct pattern (each already batches its whole suffix range
        internally).  Results come back in input order and are identical to
        calling :meth:`run` per query.
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

        ``interval_kwargs`` is the executor's pinned interval cache, when the
        backend shares intervals.  Timestamps come from the store's sampled
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
        active: set[int] | None = None
        if self.temporal is not None:
            active = set(self.temporal.active_during(t_start, t_end))
        filtered: list[StrictPathMatch] = []
        for match in matches:
            if active is not None and match.trajectory_id not in active:
                continue
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

    def _fully_timestamped(self) -> bool:
        return self._store.fully_timestamped

    @staticmethod
    def _validate_timestamps(
        timestamps: Sequence[list[float] | None], first_id: int
    ) -> None:
        validate_monotonic_timestamps(timestamps, first_id)

    def _build_temporal(self) -> TemporalIndex:
        decoded = [
            np.asarray(self._store.get(i), dtype=np.float64)
            for i in range(len(self._store))
        ]
        starts = np.asarray([times[0] for times in decoded], dtype=np.float64)
        ends = np.asarray([times[-1] for times in decoded], dtype=np.float64)
        deltas = [np.diff(times) for times in decoded]
        return TemporalIndex(starts=starts, deltas=deltas, ends=ends)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TrajectoryEngine(backend={self.backend_name!r}, "
            f"trajectories={self.n_trajectories}, length={self.length})"
        )
