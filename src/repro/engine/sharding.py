"""Sharding: trajectory routing and the fan-out executors.

A :class:`~repro.engine.TrajectoryEngine` with ``num_shards`` > 1 spreads its
trajectories over N :class:`~repro.engine.engine.EngineShard` cores, so
``add_batch`` invalidates only the caches of the shards that grow and a
batch can execute on several indexes at once.  This module holds the two
pieces that fleet relies on:

* :class:`ShardRouter` — a deterministic round-robin trajectory→shard
  assignment.  Global trajectory ``g`` lives on shard ``g % num_shards`` as
  that shard's local trajectory ``g // num_shards``; the mapping is a pure
  function of the global id, so it is stable across growth (arrivals keep
  their global order) and across save/reload (ids persist with the shards).
* :class:`ShardExecutor` — the strategy that runs the per-shard sub-batches
  of one fan-out (``EngineConfig.shard_executor``): a bounded thread pool by
  default, inline serial execution, or long-lived shard worker *processes*
  via :mod:`repro.engine.workers` — all bounded by
  ``EngineConfig.shard_workers``.

The engine plans each batch once against the whole fleet, routes it with
the router, runs it through the executor and merges the answers
bit-identically to one index over the same fleet: counts sum, contains ORs,
locate / strict-path matches are remapped from local to global trajectory
ids and re-sorted into the canonical ``(trajectory, start, end)`` order.
Extraction rows address the **concatenation of the per-shard BWT row
spaces** (shard 0's rows first, then shard 1's, ...); with ``num_shards=1``
this coincides with the unsharded row space.
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Sequence

from ..exceptions import ConstructionError, ShardExecutionError
from ..reliability import faults
from .queries import EngineQuery, EngineResult
from .reliability import run_shard_attempts

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import TrajectoryEngine


class ShardRouter:
    """Deterministic round-robin trajectory→shard assignment.

    The mapping is a bijection between global ids and ``(shard, local id)``
    pairs — ``global = local * num_shards + shard`` — computed from the id
    alone.  Because the unsharded engine numbers trajectories by arrival
    order and the router preserves arrival order within each shard, a match
    found on shard ``s`` at local trajectory ``k`` is *the same trajectory*
    the unsharded engine calls ``k * num_shards + s``; remapping ids is all
    the merge stage needs to be bit-identical.
    """

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ConstructionError(f"num_shards must be at least 1, got {num_shards}")
        self._num_shards = int(num_shards)

    @property
    def num_shards(self) -> int:
        """Number of shards routed over."""
        return self._num_shards

    def shard_of(self, global_id: int) -> int:
        """The shard owning a global trajectory id."""
        return int(global_id) % self._num_shards

    def local_of(self, global_id: int) -> int:
        """The shard-local trajectory id of a global trajectory id."""
        return int(global_id) // self._num_shards

    def global_of(self, shard: int, local_id: int) -> int:
        """The global trajectory id of shard-local trajectory ``local_id``."""
        return int(local_id) * self._num_shards + int(shard)

    def split(self, items: Sequence, first_global_id: int) -> list[list]:
        """Partition arriving items (in global order) into per-shard lists.

        ``first_global_id`` is the global id of ``items[0]`` (the fleet size
        before this batch), so repeated calls route a growing stream exactly
        like one big build would.
        """
        assigned: list[list] = [[] for _ in range(self._num_shards)]
        for offset, item in enumerate(items):
            assigned[self.shard_of(first_global_id + offset)].append(item)
        return assigned

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ShardRouter(num_shards={self._num_shards})"


# --------------------------------------------------------------------------- #
# fan-out executors
# --------------------------------------------------------------------------- #
class ShardExecutor:
    """Strategy surface behind the fleet fan-out (``EngineConfig.shard_executor``).

    One executor belongs to one :class:`~repro.engine.TrajectoryEngine` and
    turns a list of ``(shard_id, sub-batch)`` jobs into per-shard results,
    each job running under the engine's live
    :class:`~repro.engine.reliability.ShardPolicy` (deadline, bounded
    retries).  Three implementations share the surface:

    * :class:`SerialShardExecutor` — every job inline on the calling thread;
    * :class:`ThreadShardExecutor` — a bounded thread pool (the default, and
      exactly the pre-executor fan-out semantics);
    * :class:`~repro.engine.workers.ProcessShardExecutor` — long-lived shard
      worker processes fed over pipes, for real parallelism on the
      GIL-bound plan/merge work.

    Answers are bit-identical across all three — only *where* each shard's
    ``run_many`` executes differs.  Subclasses override :meth:`attempt` (one
    try at one shard — the fault-injection point), and optionally
    :meth:`worker_rows` / :meth:`close` when they own OS resources.
    """

    #: Name reported by ``health()`` / ``stats()`` and the CLI.
    mode = "abstract"
    #: Whether :func:`run_shard_attempts` should enforce ``policy.deadline``
    #: with its watchdog thread.  Executors that bound attempts themselves
    #: (the process executor polls the worker pipe and kills the child)
    #: turn this off and raise their own ``ShardTimeoutError``.
    enforce_deadline = True
    #: Whether jobs may run concurrently (the serial executor turns this off).
    concurrent = True

    def __init__(self, engine: "TrajectoryEngine"):
        self._engine = engine
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # the subclass hook
    # ------------------------------------------------------------------ #
    def attempt(self, shard_id: int, batch: list[EngineQuery]) -> list[EngineResult]:
        """One fan-out attempt on one shard (the fault-injection point)."""
        faults.maybe_inject_shard_fault(shard_id)
        return self._engine._shards[shard_id].run_many(batch)  # type: ignore[union-attr]

    # ------------------------------------------------------------------ #
    # job execution
    # ------------------------------------------------------------------ #
    def run_jobs(
        self, jobs: list[tuple[int, list[EngineQuery]]]
    ) -> tuple[dict[int, list[EngineResult]], dict[int, ShardExecutionError]]:
        """Run every per-shard job, concurrently when it pays.

        Returns surviving results keyed by shard plus the canonical error of
        every shard that exhausted its budget.  The inline path (one job, one
        worker, or a serial executor) fails fast — later shards are not
        consulted once a shard fails with degraded merges off — while the
        pooled path collects every outcome (they were already in flight).
        """
        engine = self._engine
        shard_results: dict[int, list[EngineResult]] = {}
        failures: dict[int, ShardExecutionError] = {}
        if not self.concurrent or len(jobs) <= 1 or engine._max_workers() == 1:
            for shard_id, batch in jobs:
                try:
                    shard_results[shard_id] = self._run_shard(shard_id, batch)
                except ShardExecutionError as error:
                    failures[shard_id] = error
                    if not engine._config.degraded_results:
                        break  # fail fast; later shards are not consulted
        else:
            pool = self._ensure_pool()
            futures = {
                shard_id: pool.submit(self._run_shard, shard_id, batch)
                for shard_id, batch in jobs
            }
            for shard_id, future in futures.items():
                try:
                    shard_results[shard_id] = future.result()
                except ShardExecutionError as error:
                    failures[shard_id] = error
        return shard_results, failures

    def _run_shard(self, shard_id: int, batch: list[EngineQuery]) -> list[EngineResult]:
        """Execute one shard's sub-batch under the engine's reliability policy."""
        engine = self._engine
        return run_shard_attempts(
            shard_id,
            lambda: self.attempt(shard_id, batch),
            engine._policy,
            operation="fan-out",
            rng=engine._rng,
            enforce_deadline=self.enforce_deadline,
        )

    def _ensure_pool(self) -> ThreadPoolExecutor:
        # Locked: concurrent run_many callers (the serving tier's worker
        # threads) may race the first fan-out, and two pools would leak one.
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._engine._max_workers(),
                    thread_name_prefix="repro-shard",
                )
                # Engines are often loaded, used and dropped (services
                # reloading their index); release the threads when the
                # executor is collected rather than requiring close().
                weakref.finalize(self, self._pool.shutdown, wait=False)
            return self._pool

    # ------------------------------------------------------------------ #
    # observability / lifecycle
    # ------------------------------------------------------------------ #
    def describe(self) -> dict[str, object]:
        """JSON-safe executor snapshot for ``health()`` / ``stats()``."""
        return {
            "mode": self.mode,
            "max_workers": self._engine._max_workers(),
            "workers": self.worker_rows(),
        }

    def worker_rows(self) -> list[dict[str, object]]:
        """Per-worker-process rows (empty for the in-process executors)."""
        return []

    def close(self) -> None:
        """Release pools/processes; the engine recreates lazily on next use."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class SerialShardExecutor(ShardExecutor):
    """Inline fan-out on the calling thread (``shard_executor="serial"``).

    No pools, no threads, no processes — the deterministic baseline the
    parity suites compare the concurrent executors against, and the cheapest
    choice for single-shard fleets or debugging.
    """

    mode = "serial"
    concurrent = False


class ThreadShardExecutor(ShardExecutor):
    """Thread-pool fan-out (``shard_executor="threads"``, the default).

    Inherits the base behaviour unchanged: sub-batches run on a bounded
    :class:`~concurrent.futures.ThreadPoolExecutor` once more than one job is
    in flight and more than one worker is allowed.  Best when the per-shard
    work releases the GIL (NumPy-heavy backends) or the fleet is small.
    """

    mode = "threads"


def __getattr__(name: str) -> object:
    # ``ShardedTrajectoryEngine`` is an alias of the one engine class, which
    # lives in :mod:`repro.engine.engine` (a module that imports this one).
    if name == "ShardedTrajectoryEngine":
        from .engine import TrajectoryEngine

        return TrajectoryEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SerialShardExecutor",
    "ShardExecutor",
    "ShardRouter",
    "ThreadShardExecutor",
]
