"""Shard-level reliability: deadlines, retries, failure classes, health.

The sharded fan-out (:meth:`repro.engine.TrajectoryEngine.run_many`)
used to consume ``future.result()`` raw: one failing shard surfaced a bare
backend traceback mid-batch with no shard context, no bound on how long a
hung shard could stall the whole batch, and no second chance for transient
failures.  This module supplies the policy layer it now runs through:

* :class:`ShardPolicy` — per-attempt deadline, bounded retries with
  exponential backoff and jitter, and failure classification (deterministic
  :class:`~repro.exceptions.ReproError` failures are never retried — the
  same query would fail the same way — while timeouts and unexpected
  backend/runtime errors are presumed transient and retried);
* :func:`run_shard_attempts` — executes one shard operation under a policy,
  recording a :class:`ShardAttempt` history and raising one canonical
  :class:`~repro.exceptions.ShardExecutionError` naming the shard when the
  budget is exhausted;
* :class:`ShardHealth` — thread-safe per-shard success/failure counters
  behind the engine's ``health()`` surface, the substrate the future async
  service tier will export.

Deadlines are enforced by running the attempt in a dedicated thread and
abandoning it on timeout (Python offers no safe preemption); an abandoned
attempt's eventual result is discarded.  With no deadline configured the
attempt runs inline and the policy wrapper is a bare ``try/except`` —
measured at well under 5% overhead on the mixed-batch workload
(``benchmarks/bench_reliability.py``).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from ..exceptions import ReproError, ShardExecutionError

T = TypeVar("T")


class ShardTimeoutError(TimeoutError):
    """A shard attempt exceeded its per-attempt deadline (retryable).

    ``pid`` names the shard worker process that was killed for blowing the
    deadline (``None`` on the thread/serial executors, where the abandoned
    attempt merely keeps running detached).
    """

    def __init__(self, deadline: float, pid: int | None = None):
        self.deadline = float(deadline)
        self.pid = pid
        message = f"shard attempt exceeded its {deadline:g}s deadline"
        if pid is not None:
            message += f" (worker pid {pid} killed)"
        super().__init__(message)


class WorkerCrashError(RuntimeError):
    """A shard worker process died mid-batch (retryable: it is respawned).

    Raised by the process executor when the pipe to a worker breaks — the
    child was killed, segfaulted, or ``os._exit``-ed (the ``worker_crash``
    fault).  Classified transient by :meth:`ShardPolicy.retryable` (it is not
    a :class:`~repro.exceptions.ReproError`), so a retry budget covers it:
    the executor respawns the worker and the retry runs against the fresh
    process.
    """

    def __init__(self, shard_id: int, pid: int | None, exitcode: int | None = None):
        self.shard_id = int(shard_id)
        self.pid = pid
        self.exitcode = exitcode
        detail = f"worker pid {pid}" if pid is not None else "worker"
        if exitcode is not None:
            detail += f" (exit {exitcode})"
        super().__init__(f"shard {shard_id} {detail} died mid-batch; respawned")


@dataclass(frozen=True)
class ShardAttempt:
    """One failed try at a shard operation (the unit of attempt history)."""

    number: int
    error: str
    seconds: float
    timed_out: bool = False
    pid: int | None = None

    def __str__(self) -> str:
        outcome = "timed out" if self.timed_out else self.error
        where = f" [worker pid {self.pid}]" if self.pid is not None else ""
        return (
            f"attempt {self.number}: {outcome}"
            f" (after {self.seconds * 1e3:.1f} ms){where}"
        )


@dataclass(frozen=True)
class ShardPolicy:
    """Per-shard execution policy: deadline, retry budget, backoff shape.

    Parameters
    ----------
    deadline:
        Seconds one attempt may run before it is abandoned as a
        :class:`ShardTimeoutError` (``None`` disables deadline enforcement —
        the default, and the zero-overhead fast path).
    max_attempts:
        Total tries per shard operation (``1`` = no retries).
    backoff_base / backoff_multiplier / backoff_max:
        The pre-jitter sleep before retry ``n`` is
        ``min(base * multiplier**(n-1), backoff_max)`` seconds.
    jitter:
        Fraction of the backoff added uniformly at random, decorrelating
        retry storms across shards.
    """

    deadline: float | None = None
    max_attempts: int = 1
    backoff_base: float = 0.02
    backoff_multiplier: float = 2.0
    backoff_max: float = 0.5
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive when given, got {self.deadline}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got {self.max_attempts}")

    @classmethod
    def from_config(cls, config) -> "ShardPolicy":
        """The policy an :class:`~repro.engine.EngineConfig` asks for."""
        return cls(
            deadline=config.shard_deadline,
            max_attempts=int(config.shard_retries) + 1,
        )

    @property
    def is_noop(self) -> bool:
        """True when the policy neither times out nor retries anything."""
        return self.deadline is None and self.max_attempts <= 1

    def backoff(self, attempt_number: int, rng: random.Random) -> float:
        """Jittered sleep (seconds) before the retry after ``attempt_number``."""
        base = min(
            self.backoff_base * self.backoff_multiplier ** (attempt_number - 1),
            self.backoff_max,
        )
        return base * (1.0 + self.jitter * rng.random())

    @staticmethod
    def retryable(error: BaseException) -> bool:
        """Should a failed attempt be retried?

        Timeouts and unexpected (non-library) exceptions are presumed
        transient; :class:`~repro.exceptions.ReproError` failures are
        deterministic — the shard would reject the same work identically —
        so retrying only wastes the budget.
        """
        if isinstance(error, ShardTimeoutError):
            return True
        return not isinstance(error, ReproError)

    def describe(self) -> dict[str, object]:
        """JSON-safe summary for the ``health()`` surface."""
        return {
            "deadline": self.deadline,
            "max_attempts": self.max_attempts,
            "backoff_base": self.backoff_base,
            "backoff_max": self.backoff_max,
        }


#: The policy of an engine with no reliability knobs set.
DEFAULT_POLICY = ShardPolicy()


def _call_with_deadline(fn: Callable[[], T], deadline: float) -> T:
    """Run ``fn`` in a dedicated thread, abandoning it past ``deadline``."""
    box: dict[str, object] = {}
    done = threading.Event()

    def runner() -> None:
        try:
            box["result"] = fn()
        except BaseException as error:  # propagated to the waiter below
            box["error"] = error
        finally:
            done.set()

    thread = threading.Thread(
        target=runner, daemon=True, name="repro-shard-attempt"
    )
    thread.start()
    if not done.wait(deadline):
        raise ShardTimeoutError(deadline)
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["result"]  # type: ignore[return-value]


def run_shard_attempts(
    shard_id: int,
    fn: Callable[[], T],
    policy: ShardPolicy,
    *,
    operation: str = "fan-out",
    rng: random.Random | None = None,
    enforce_deadline: bool = True,
) -> T:
    """Execute one shard operation under a policy.

    Returns ``fn()``'s result on the first successful attempt; raises one
    :class:`~repro.exceptions.ShardExecutionError` carrying the shard id and
    full attempt history once the attempt budget is exhausted or a
    non-retryable failure is classified.

    ``enforce_deadline=False`` skips the watchdog-thread deadline wrapper for
    callers that bound attempts themselves — the process executor enforces
    ``policy.deadline`` by polling the worker pipe and killing the child, a
    stronger guarantee than abandoning a thread, and raises its own
    :class:`ShardTimeoutError` (still classified retryable here).  Attempts
    record the worker pid when the raised error carries one.
    """
    rng = rng or random
    attempts: list[ShardAttempt] = []
    for number in range(1, policy.max_attempts + 1):
        started = time.perf_counter()
        try:
            if policy.deadline is None or not enforce_deadline:
                return fn()
            return _call_with_deadline(fn, policy.deadline)
        except Exception as error:
            elapsed = time.perf_counter() - started
            timed_out = isinstance(error, ShardTimeoutError)
            attempts.append(
                ShardAttempt(
                    number=number,
                    error=f"{type(error).__name__}: {error}",
                    seconds=elapsed,
                    timed_out=timed_out,
                    pid=getattr(error, "pid", None),
                )
            )
            if number >= policy.max_attempts or not policy.retryable(error):
                raise ShardExecutionError(
                    shard_id, operation, tuple(attempts)
                ) from error
        time.sleep(policy.backoff(number, rng))
    raise AssertionError("unreachable: the attempt loop returns or raises")


def attempt_from_error(error: BaseException) -> ShardAttempt:
    """A single-attempt history for operations executed without the loop
    (growth and consolidation wrap their one inline try this way)."""
    return ShardAttempt(
        number=1, error=f"{type(error).__name__}: {error}", seconds=0.0
    )


class ShardHealth:
    """Thread-safe per-shard success/failure bookkeeping.

    ``record_success`` / ``record_failure`` are called by the fan-out as
    per-shard batches settle; :meth:`snapshot` feeds the engine's
    ``health()`` surface.  A shard is ``"ok"`` until it fails, ``"failing"``
    while its consecutive-failure streak is open, and recovers to ``"ok"``
    on the next success.
    """

    def __init__(self, num_shards: int):
        self._lock = threading.Lock()
        self._stats = [
            {
                "successes": 0,
                "failures": 0,
                "consecutive_failures": 0,
                "respawns": 0,
                "last_error": None,
            }
            for _ in range(num_shards)
        ]

    def record_success(self, shard_id: int) -> None:
        with self._lock:
            entry = self._stats[shard_id]
            entry["successes"] += 1
            entry["consecutive_failures"] = 0

    def record_respawn(self, shard_id: int) -> None:
        """Count one worker-process kill + respawn (process executor only)."""
        with self._lock:
            self._stats[shard_id]["respawns"] += 1

    def record_failure(self, shard_id: int, error: BaseException) -> None:
        with self._lock:
            entry = self._stats[shard_id]
            entry["failures"] += 1
            entry["consecutive_failures"] += 1
            entry["last_error"] = str(error)

    def snapshot(self) -> list[dict[str, object]]:
        """Per-shard counters plus a derived ``status``, in shard order."""
        with self._lock:
            rows = []
            for entry in self._stats:
                row = dict(entry)
                row["status"] = "failing" if entry["consecutive_failures"] else "ok"
                rows.append(row)
            return rows


__all__ = [
    "DEFAULT_POLICY",
    "ShardAttempt",
    "ShardHealth",
    "ShardPolicy",
    "ShardTimeoutError",
    "WorkerCrashError",
    "attempt_from_error",
    "run_shard_attempts",
]
