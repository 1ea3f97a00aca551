"""Unified engine facade: one config/registry/query API over every backend.

* :class:`TrajectoryEngine` — build/persist/reload/query any registered index
  backend with raw edge sequences (see :mod:`repro.engine.engine`);
* :class:`EngineConfig` — the single construction-parameter surface;
* the backend registry (:func:`available_backends`, :func:`register_backend`,
  :class:`BackendSpec`) unifying CiNCT, the partitioned CiNCT, every Table-II
  FM-index baseline and the linear-scan baseline;
* the typed query layer (:class:`CountQuery` ... :class:`StrictPathResult`)
  with the batch-first :meth:`TrajectoryEngine.run_many` entry point;
* the staged query pipeline — normalize (:class:`QueryPlanner` /
  :class:`QueryPlan`), optimize (:func:`optimize_plans`), execute
  (:class:`QueryExecutor` behind the :class:`PlanExecutor` protocol) — with
  the epoch-invalidated, byte-budgeted :class:`ResultCache` (an
  :class:`EpochLRU`) in front of every backend;
* sharding (:class:`ShardRouter`, the :class:`ShardExecutor` strategies):
  with ``num_shards`` > 1 one engine fans queries out over its
  :class:`EngineShard` cores with shard-scoped cache invalidation.
  ``ShardedTrajectoryEngine`` and ``build_engine`` are aliases of
  :class:`TrajectoryEngine` and :meth:`TrajectoryEngine.build`.
"""

# Importing .backends populates the registry as a side effect.
from .backends import (
    CiNCTBackend,
    EngineBackend,
    FMBaselineBackend,
    LinearScanBackend,
    PartitionedBackend,
)
from .config import EngineConfig
from .engine import (
    EngineShard,
    ShardedTrajectoryEngine,
    TrajectoryEngine,
    build_engine,
    sample_paths,
)
from .executor import (
    EpochLRU,
    PlanExecutor,
    PlanGroups,
    QueryExecutor,
    ResultCache,
    approximate_payload_bytes,
    optimize_plans,
)
from .plan import ALL_SHARDS, PlannedQuery, QueryPlan, QueryPlanner
from .reliability import (
    ShardAttempt,
    ShardHealth,
    ShardPolicy,
    ShardTimeoutError,
    WorkerCrashError,
    run_shard_attempts,
)
from .sharding import (
    SerialShardExecutor,
    ShardExecutor,
    ShardRouter,
    ThreadShardExecutor,
)
from .workers import ProcessShardExecutor, ShardWorker
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
from .registry import BackendSpec, available_backends, backend_spec, backend_specs, register_backend

__all__ = [
    "TrajectoryEngine",
    "EngineShard",
    "EngineConfig",
    "sample_paths",
    # sharding
    "ShardRouter",
    "ShardedTrajectoryEngine",
    "build_engine",
    # shard executors
    "ShardExecutor",
    "SerialShardExecutor",
    "ThreadShardExecutor",
    "ProcessShardExecutor",
    "ShardWorker",
    # reliability layer
    "ShardPolicy",
    "ShardAttempt",
    "ShardHealth",
    "ShardTimeoutError",
    "WorkerCrashError",
    "run_shard_attempts",
    # registry
    "BackendSpec",
    "register_backend",
    "backend_spec",
    "backend_specs",
    "available_backends",
    # backends
    "EngineBackend",
    "CiNCTBackend",
    "PartitionedBackend",
    "FMBaselineBackend",
    "LinearScanBackend",
    # query pipeline
    "ALL_SHARDS",
    "QueryPlan",
    "PlannedQuery",
    "QueryPlanner",
    "PlanExecutor",
    "PlanGroups",
    "approximate_payload_bytes",
    "optimize_plans",
    "QueryExecutor",
    "EpochLRU",
    "ResultCache",
    # queries
    "EngineQuery",
    "EngineResult",
    "CountQuery",
    "CountResult",
    "ContainsQuery",
    "ContainsResult",
    "LocateQuery",
    "LocateResult",
    "ExtractQuery",
    "ExtractResult",
    "StrictPathQuery",
    "StrictPathResult",
]
