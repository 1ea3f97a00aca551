"""Process-per-shard execution: long-lived shard workers behind the fan-out.

The thread-pool fan-out keeps every shard's pure-Python plan/merge/resolve
work under one GIL, so ``num_shards`` never meant real cores
(``BENCH_shard_scaling.json`` measured 0.75x at 4 shards on a 1-CPU host and
no better than ~1x on many).  :class:`ProcessShardExecutor` replaces the
threads with a pool of **long-lived worker processes**:

* one worker per populated shard, created lazily at the first fan-out that
  touches the shard and reused across batches — fork/spawn cost is paid once
  per engine, not per query;
* each worker holds one :class:`~repro.engine.engine.EngineShard` core, and
  dispatch is the exact localized sub-batch the thread executor hands to
  ``shard.run_many`` — the typed query records are frozen, hashable
  dataclasses, so they pickle canonically and the parent's merge stage
  (:meth:`~repro.engine.TrajectoryEngine.run_many`) is untouched, keeping
  answers bit-identical across executors;
* under the (default) ``fork`` start method the child inherits the parent's
  already-built shard copy-on-write; with mmap-loaded artefacts
  (``load_index(..., mmap=True)``) the big immutable index arrays are shared
  *pages*, so N workers cost one copy of the index in RSS;
* growth is rare and epoch-tracked: when the parent's shard has a newer
  growth epoch than the worker, the worker receives the updated shard once
  (a ``sync`` message) before the batch is dispatched;
* worker death is a first-class, *retryable* event: a crashed worker
  (broken pipe — the ``worker_crash`` fault, a segfault, an OOM kill) raises
  :class:`~repro.engine.reliability.WorkerCrashError`, a worker that blows
  ``shard_deadline`` is SIGKILLed and raises
  :class:`~repro.engine.reliability.ShardTimeoutError` — both respawn the
  worker immediately, record the pid in the attempt history and the respawn
  in :class:`~repro.engine.reliability.ShardHealth`, and a retry budget
  makes the batch recover on the fresh process.  ``degraded_results``
  semantics are exactly the thread executor's.

Workers are daemon processes and additionally reaped by a ``weakref``
finalizer, so dropping the engine (or interpreter exit) leaves no orphans;
``engine.close()`` performs the polite drain.

``REPRO_SHARD_START_METHOD`` overrides the multiprocessing start method
(``fork`` | ``spawn`` | ``forkserver``) — ``fork`` is preferred where
available (zero-copy inheritance); ``spawn`` re-pickles the shards and
exists for platforms and tests that need it.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import weakref
from typing import TYPE_CHECKING

from ..reliability import faults
from .queries import EngineQuery, EngineResult
from .reliability import ShardTimeoutError, WorkerCrashError
from .sharding import ShardExecutor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

    from .engine import EngineShard, TrajectoryEngine

#: Environment override for the worker start method (fork|spawn|forkserver).
START_METHOD_ENV = "REPRO_SHARD_START_METHOD"

#: Bound on shipping a shard to a worker (sync/startup handshakes).  Kept
#: far above any realistic pickle time — it exists so a worker that dies
#: mid-handshake cannot hang the parent forever, not to police slowness.
_HANDSHAKE_TIMEOUT = 120.0


def _resolve_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context workers are created from.

    ``fork`` is preferred where the platform offers it: the child inherits
    the already-built shard without pickling, and mmap-backed index
    arrays stay shared pages.  ``REPRO_SHARD_START_METHOD`` forces a specific
    method (the spawn-mode tests use this).
    """
    method = os.environ.get(START_METHOD_ENV, "").strip()
    if method:
        return multiprocessing.get_context(method)
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _worker_main(conn: "Connection", shard_id: int, shard: "EngineShard") -> None:
    """Loop of one shard worker process.

    Protocol (all tuples, pickled over the pipe):

    * ``("run", batch, fault)`` → ``("ok", results)`` | ``("error", exc)``.
      ``fault`` is the fault action the parent claimed for this attempt
      (see :func:`repro.reliability.faults.take_shard_fault`); applying it
      *here* makes ``hang`` a genuinely hung process for the deadline kill
      and ``worker_crash`` a genuine mid-batch death.
    * ``("sync", shard)`` → ``("ok", None)`` — adopt a freshly grown shard
      (the parent ships it when epochs diverge).
    * ``("stats",)`` → ``("ok", payload)`` — live worker-side cache counters
      (result cache + interval cache).  The worker owns its own shard copy,
      so the parent's shard counters never see worker-side hits; this
      message lets ``worker_rows()`` / ``/stats`` report them.
    * ``("stop",)`` — exit the loop (no reply).

    A vanished parent (EOF on the pipe) also ends the loop, so an abandoned
    worker never outlives its engine.
    """
    # A fork inherits the parent's signal dispositions.  Under ``repro serve``
    # those are asyncio's graceful-drain handlers, which in a child with no
    # event loop swallow SIGTERM outright — multiprocessing's exit-time
    # ``terminate()`` would then never kill the worker and the parent's final
    # ``join()`` would hang.  Restore defaults so the worker dies on SIGTERM,
    # and ignore SIGINT so a terminal Ctrl-C (delivered to the whole process
    # group) cannot masquerade as a mid-batch worker crash.
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread/platform
        pass
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent is gone; nothing to serve
        kind = message[0]
        if kind == "stop":
            conn.close()
            return
        if kind == "sync":
            shard = message[1]
            conn.send(("ok", None))
            continue
        if kind == "stats":
            conn.send(
                (
                    "ok",
                    {
                        "cache": shard.cache_stats(),
                        "interval_cache": shard.interval_cache_stats(),
                    },
                )
            )
            continue
        _, batch, fault = message
        try:
            faults.apply_shard_fault(shard_id, fault)
            results = shard.run_many(batch)
        except BaseException as error:
            try:
                conn.send(("error", error))
            except Exception:
                # The exception itself would not pickle; ship its text.
                conn.send(
                    ("error", RuntimeError(f"{type(error).__name__}: {error}"))
                )
            continue
        conn.send(("ok", results))


def _stop_workers(workers: dict[int, "ShardWorker"]) -> None:
    """Finalizer body: drain every worker (must not reference the executor)."""
    for worker in list(workers.values()):
        worker.stop()
    workers.clear()


class ShardWorker:
    """One long-lived worker process bound to one shard.

    Tracks the pipe, the synced growth epoch, and the restart count; the
    executor serializes access through :attr:`lock` (one dispatch at a time
    per worker — concurrent ``run_many`` callers may target the same shard,
    and interleaving two conversations on one pipe would corrupt both).
    """

    def __init__(self, shard_id: int, ctx: multiprocessing.context.BaseContext):
        self.shard_id = int(shard_id)
        self._ctx = ctx
        self.process: multiprocessing.process.BaseProcess | None = None
        self.conn: "Connection | None" = None
        self.restarts = 0
        self.epoch = -1
        self.lock = threading.Lock()

    @property
    def pid(self) -> int | None:
        return None if self.process is None else self.process.pid

    @property
    def exitcode(self) -> int | None:
        return None if self.process is None else self.process.exitcode

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def start(self, shard: "EngineShard") -> None:
        """Fork/spawn the worker around one shard (callers hold lock)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.shard_id, shard),
            name=f"repro-shard-worker-{self.shard_id}",
            daemon=True,  # interpreter exit never leaves orphans behind
        )
        process.start()
        child_conn.close()  # the parent's handle on the child end
        self.process = process
        self.conn = parent_conn
        self.epoch = shard.epoch

    def kill(self) -> None:
        """SIGKILL the worker (hung or already dead) and release the pipe."""
        process = self.process
        if process is not None:
            process.kill()
            process.join(timeout=5.0)
        self._drop()

    def stop(self) -> None:
        """Polite shutdown: ask the loop to exit, reap, escalate to kill."""
        if self.conn is not None:
            try:
                self.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass  # already dead; reaping below still applies
        process = self.process
        if process is not None:
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        self._drop()

    def _drop(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except OSError:  # pragma: no cover - close on a broken pipe
                pass
        self.process = None
        self.conn = None
        self.epoch = -1


class ProcessShardExecutor(ShardExecutor):
    """Fan-out over long-lived shard worker processes
    (``shard_executor="processes"``).

    The dispatch side reuses the base class machinery — parent-side
    coordinator threads bounded by ``EngineConfig.shard_workers`` each run
    one shard's attempt loop — but every attempt is a pipe round-trip to the
    shard's worker instead of an in-process ``run_many``, and the per-attempt
    deadline is enforced for real: ``conn.poll(deadline)`` followed by a
    SIGKILL + respawn, rather than abandoning a thread that keeps burning
    the GIL.
    """

    mode = "processes"
    enforce_deadline = False  # the pipe poll + kill below enforces it

    def __init__(self, engine: "TrajectoryEngine"):
        super().__init__(engine)
        self._ctx = _resolve_context()
        self._workers: dict[int, ShardWorker] = {}
        self._workers_lock = threading.Lock()
        # The finalizer closes over the dict, never the executor/engine, so
        # a dropped engine still reaps its workers promptly (the daemon flag
        # is the backstop for hard interpreter exits).
        weakref.finalize(self, _stop_workers, self._workers)

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def run_jobs(
        self, jobs: list[tuple[int, list[EngineQuery]]]
    ) -> tuple[dict[int, list[EngineResult]], dict[int, object]]:
        # Fork/sync every needed worker from the coordinating thread before
        # the dispatcher threads start: forking from a single thread avoids
        # inheriting another dispatcher's mid-operation lock state.
        for shard_id, _ in jobs:
            worker = self._worker(shard_id)
            with worker.lock:
                self._sync_worker(worker)
        return super().run_jobs(jobs)

    def attempt(self, shard_id: int, batch: list[EngineQuery]) -> list[EngineResult]:
        worker = self._worker(shard_id)
        deadline = self._engine._policy.deadline
        with worker.lock:
            self._sync_worker(worker)
            # The parent claims the armed fault (decrementing its budget
            # exactly once) and ships the action for the child to apply —
            # env-armed faults propagate into the worker without the child
            # double-reading REPRO_SHARD_FAULT.
            fault = faults.take_shard_fault(shard_id)
            try:
                worker.conn.send(("run", batch, fault))  # type: ignore[union-attr]
            except (BrokenPipeError, OSError):
                raise self._crash(worker)
            if deadline is not None and not worker.conn.poll(deadline):  # type: ignore[union-attr]
                pid = worker.pid
                self._respawn(worker)
                raise ShardTimeoutError(deadline, pid=pid)
            try:
                status, payload = worker.conn.recv()  # type: ignore[union-attr]
            except (EOFError, OSError):
                raise self._crash(worker)
        if status == "ok":
            return payload
        raise payload

    # ------------------------------------------------------------------ #
    # worker lifecycle
    # ------------------------------------------------------------------ #
    def _worker(self, shard_id: int) -> ShardWorker:
        with self._workers_lock:
            worker = self._workers.get(shard_id)
            if worker is None:
                worker = ShardWorker(shard_id, self._ctx)
                self._workers[shard_id] = worker
            return worker

    def _sync_worker(self, worker: ShardWorker) -> None:
        """Start a dead worker / re-ship a grown shard (callers hold lock)."""
        shard = self._engine._shards[worker.shard_id]
        assert shard is not None  # jobs only target populated shards
        if not worker.alive:
            worker.start(shard)
            return
        if worker.epoch == shard.epoch:
            return
        try:
            worker.conn.send(("sync", shard))  # type: ignore[union-attr]
            if not worker.conn.poll(_HANDSHAKE_TIMEOUT):  # type: ignore[union-attr]
                raise EOFError("sync handshake timed out")
            worker.conn.recv()  # type: ignore[union-attr]  # ("ok", None)
        except (EOFError, OSError):
            raise self._crash(worker)
        worker.epoch = shard.epoch

    def _crash(self, worker: ShardWorker) -> WorkerCrashError:
        """Respawn after a broken pipe; the error carries the dead pid."""
        pid, exitcode = worker.pid, worker.exitcode
        self._respawn(worker)
        return WorkerCrashError(worker.shard_id, pid, exitcode)

    def _respawn(self, worker: ShardWorker) -> None:
        """Kill + restart one worker, recording the churn (callers hold lock)."""
        worker.kill()
        worker.restarts += 1
        self._engine._health.record_respawn(worker.shard_id)
        worker.start(self._engine._shards[worker.shard_id])

    # ------------------------------------------------------------------ #
    # observability / lifecycle
    # ------------------------------------------------------------------ #
    def worker_rows(self) -> list[dict[str, object]]:
        with self._workers_lock:
            workers = sorted(self._workers.items())
        return [
            {
                "shard": shard_id,
                "pid": worker.pid,
                "alive": worker.alive,
                "restarts": worker.restarts,
                "epoch": worker.epoch,
                "caches": self._worker_caches(worker),
            }
            for shard_id, worker in workers
        ]

    def _worker_caches(self, worker: ShardWorker) -> dict[str, object] | None:
        """Live worker-side cache counters via the ``stats`` message.

        Best effort: a dead worker, or one mid-dispatch (its lock is held by
        a dispatcher thread), reports ``None`` rather than blocking the
        observability path behind a running batch.
        """
        if not worker.alive:
            return None
        if not worker.lock.acquire(blocking=False):
            return None  # busy serving a batch; skip rather than stall
        try:
            if not worker.alive or worker.conn is None:
                return None
            worker.conn.send(("stats",))
            if not worker.conn.poll(_HANDSHAKE_TIMEOUT):
                return None
            status, payload = worker.conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            return None
        finally:
            worker.lock.release()
        return payload if status == "ok" else None

    def close(self) -> None:
        with self._workers_lock:
            _stop_workers(self._workers)
        super().close()


__all__ = [
    "ProcessShardExecutor",
    "ShardWorker",
    "START_METHOD_ENV",
]
