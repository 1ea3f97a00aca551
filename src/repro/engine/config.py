"""Engine configuration.

:class:`EngineConfig` is the single knob surface of the
:class:`~repro.engine.engine.TrajectoryEngine` facade: it names the backend
(a key of the :mod:`~repro.engine.registry` table) and carries every tuning
parameter a backend may consume.  Backends ignore knobs that do not apply to
them (``max_partitions`` and the tail thresholds only matter to the
partitioned backend), so one config type serves both backends and
round-trips through the persistence layer unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from ..exceptions import ConstructionError

DEFAULT_BACKEND = "cinct"

#: Valid values of :attr:`EngineConfig.shard_executor`.
SHARD_EXECUTORS = ("serial", "threads", "processes")

#: Valid values of :attr:`EngineConfig.compaction`.
COMPACTION_MODES = ("inline", "background", "off")


@dataclass(frozen=True)
class EngineConfig:
    """Construction parameters for a :class:`~repro.engine.TrajectoryEngine`.

    Parameters
    ----------
    backend:
        Key of the index backend (see
        :func:`~repro.engine.registry.available_backends`).  Matching is
        case-insensitive and accepts the display names and aliases
        (``"CiNCT"``, ``"partitioned"``, ...).
    block_size:
        RRR block size ``b`` for the compressed backends.
    sa_sample_rate:
        Suffix-array sampling rate of the CiNCT index.  When set,
        locate walks the LF-mapping to sampled rows (the compressed scheme);
        ``None`` disables sampling (matching the paper's size accounting) and
        locate/strict-path fall back to the retained suffix array instead.
    max_partitions:
        Partitioning knob: when set, the partitioned backend keeps the
        partition count at or below this bound by tiered merging (the
        adjacent pair with the smallest combined length is re-sorted into
        one partition; :meth:`TrajectoryEngine.consolidate` remains the
        explicit full reconstruction).
    tail_max_symbols / tail_max_trajectories:
        Mutable-tail ingest thresholds of the partitioned backend.  Setting
        either (or a non-default ``compaction``) enables the LSM-style tail
        tier: ``add_batch`` becomes an O(batch) append into an uncompressed
        linear-scan tail, which is sealed into a compressed CiNCT partition
        once it holds at least this many symbols / trajectories.  ``None``
        (default) leaves the legacy partition-per-batch growth path.
    compaction:
        How the partitioned backend seals its mutable tail: ``"inline"``
        (default) on the ingesting thread, ``"background"`` on a worker
        thread with a copy-on-seal handoff (queries keep answering over the
        old view until the compacted partition atomically swaps in; only the
        compacted shard's epoch bumps), ``"off"`` never (the tail grows
        unboundedly).  Ignored by non-partitioned backends.
    labeling_strategy:
        RML labelling strategy forwarded to the CiNCT indexes
        (``"bigram"``, ``"unigram"`` or ``"random"``).
    cache_size:
        Capacity (in distinct canonical query plans) of the engine's LRU
        result cache.  Repeated queries against an unchanged fleet are served
        from the cache; any growth (``add_batch`` / ``consolidate``) bumps the
        engine epoch and drops every entry.  ``0`` disables caching.
    cache_max_bytes:
        Approximate payload-byte budget of the result cache (on top of the
        ``cache_size`` entry bound).  Locate / strict-path payloads are full
        match tuples, so this keeps high-frequency paths from pinning big
        result sets; ``None`` (default) leaves the byte dimension unbounded.
    interval_cache_size:
        Capacity (in distinct encoded pattern prefixes) of the engine's LRU
        suffix-range interval cache.  Both backends resume backward search
        from the deepest cached ancestor instead of re-deriving the whole
        range, so incremental one-edge pattern extensions cost a single
        LF-step and coalesced batches warm each other.  Invalidation mirrors
        the result cache: any epoch bump drops every entry.  ``0`` disables
        interval sharing.
    num_shards:
        Number of shards.  ``1`` (default) is an unsharded
        :class:`~repro.engine.TrajectoryEngine` that never fans out; larger
        values build an engine over that many shards, each running this
        config with ``num_shards`` reset to 1.  Trajectories are routed
        round-robin by global id, stable across growth and reload.
    shard_workers:
        Bound on the fleet layer's fan-out concurrency (threads for the
        ``threads`` executor, parent-side dispatchers for ``processes``).
        ``None`` (default) uses ``min(num_shards, cpu_count)`` workers; ``1``
        forces sequential fan-out.  Ignored by unsharded engines.
    shard_executor:
        Fan-out execution strategy of the fleet layer.  ``"threads"``
        (default) runs per-shard batches on a thread pool, ``"processes"``
        dispatches them to a pool of long-lived shard worker processes (one
        per populated shard, forked/spawned once and reused across batches —
        real parallelism for the GIL-bound plan/merge work), and
        ``"serial"`` runs shards inline on the calling thread.  Results are
        bit-identical across all three.  Ignored by unsharded engines.
    shard_deadline:
        Seconds one per-shard fan-out attempt may run before it is abandoned
        with a timeout (and retried if budget remains).  ``None`` (default)
        disables deadline enforcement.  Ignored by unsharded engines.
    shard_retries:
        Extra fan-out attempts per shard after the first fails with a
        retryable error (timeout or unexpected backend exception), with
        exponential backoff and jitter between attempts.  ``0`` (default)
        fails on the first error.  Ignored by unsharded engines.
    degraded_results:
        When ``True``, a shard that exhausts its retry budget is dropped and
        the surviving shards' answers are merged into results flagged
        ``degraded=True`` with the failed shards listed — callers can
        distinguish partial from complete answers.  ``False`` (default)
        fails fast with one :class:`~repro.exceptions.ShardExecutionError`
        naming the shard and its attempt history.  Ignored by unsharded
        engines.
    """

    backend: str = DEFAULT_BACKEND
    block_size: int = 63
    sa_sample_rate: int | None = None
    max_partitions: int | None = None
    tail_max_symbols: int | None = None
    tail_max_trajectories: int | None = None
    compaction: str = "inline"
    labeling_strategy: str = "bigram"
    cache_size: int = 1024
    cache_max_bytes: int | None = None
    interval_cache_size: int = 1024
    num_shards: int = 1
    shard_workers: int | None = None
    shard_executor: str = "threads"
    shard_deadline: float | None = None
    shard_retries: int = 0
    degraded_results: bool = False

    def __post_init__(self) -> None:
        if not self.backend or not str(self.backend).strip():
            raise ConstructionError("the backend name must be a non-empty string")
        if self.block_size < 1:
            raise ConstructionError(f"block_size must be positive, got {self.block_size}")
        if self.sa_sample_rate is not None and self.sa_sample_rate < 1:
            raise ConstructionError(
                f"sa_sample_rate must be a positive integer when given, got {self.sa_sample_rate}"
            )
        if self.max_partitions is not None and self.max_partitions < 1:
            raise ConstructionError(
                f"max_partitions must be at least 1 when given, got {self.max_partitions}"
            )
        if self.tail_max_symbols is not None and self.tail_max_symbols < 1:
            raise ConstructionError(
                f"tail_max_symbols must be at least 1 when given, got {self.tail_max_symbols}"
            )
        if self.tail_max_trajectories is not None and self.tail_max_trajectories < 1:
            raise ConstructionError(
                "tail_max_trajectories must be at least 1 when given, "
                f"got {self.tail_max_trajectories}"
            )
        if self.compaction not in COMPACTION_MODES:
            raise ConstructionError(
                f"compaction must be one of {sorted(COMPACTION_MODES)}, "
                f"got {self.compaction!r}"
            )
        if self.cache_size < 0:
            raise ConstructionError(
                f"cache_size must be non-negative (0 disables), got {self.cache_size}"
            )
        if self.cache_max_bytes is not None and self.cache_max_bytes < 1:
            raise ConstructionError(
                f"cache_max_bytes must be positive when given, got {self.cache_max_bytes}"
            )
        if self.interval_cache_size < 0:
            raise ConstructionError(
                "interval_cache_size must be non-negative (0 disables), "
                f"got {self.interval_cache_size}"
            )
        if self.num_shards < 1:
            raise ConstructionError(
                f"num_shards must be at least 1, got {self.num_shards}"
            )
        if self.shard_workers is not None and self.shard_workers < 1:
            raise ConstructionError(
                f"shard_workers must be at least 1 when given, got {self.shard_workers}"
            )
        if self.shard_executor not in SHARD_EXECUTORS:
            raise ConstructionError(
                f"shard_executor must be one of {sorted(SHARD_EXECUTORS)}, "
                f"got {self.shard_executor!r}"
            )
        if self.shard_deadline is not None and self.shard_deadline <= 0:
            raise ConstructionError(
                f"shard_deadline must be positive when given, got {self.shard_deadline}"
            )
        if self.shard_retries < 0:
            raise ConstructionError(
                f"shard_retries must be non-negative, got {self.shard_retries}"
            )

    def as_dict(self) -> dict[str, object]:
        """JSON-safe representation, used by the persistence layer."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "EngineConfig":
        """Rebuild a config from :meth:`as_dict` output (unknown keys rejected)."""
        known = {field.name for field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConstructionError(f"unknown EngineConfig fields: {sorted(unknown)}")
        return cls(**data)  # type: ignore[arg-type]
