"""Exception hierarchy for the :mod:`repro` package.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  More specific subclasses are raised close to the
point of failure with actionable messages.

The module also hosts the *canonical* messages for the error conditions every
index backend can hit (empty patterns, out-of-alphabet symbols, unknown road
segments, queries on empty indexes).  All entry points — the individual index
classes as well as the :class:`~repro.engine.TrajectoryEngine` facade — raise
these exact messages so callers can rely on uniform behaviour regardless of
which backend answers a query.
"""

from __future__ import annotations

#: Canonical message for a query pattern with zero symbols.
EMPTY_PATTERN_MESSAGE = "the query pattern must contain at least one symbol"

#: Canonical message for a query path with zero road segments.
EMPTY_PATH_MESSAGE = "the query path must contain at least one segment"

#: Canonical message for querying an index that holds no trajectories yet.
EMPTY_INDEX_MESSAGE = "the index is empty; add trajectories before querying"


def symbol_out_of_range_message(symbol: int, sigma: int) -> str:
    """Canonical message for a pattern symbol outside ``[0, sigma)``."""
    return f"pattern symbol {symbol} outside alphabet [0, {sigma})"


def unknown_segment_message(edge_id: object) -> str:
    """Canonical message for a road segment absent from the alphabet."""
    return f"unknown road segment: {edge_id!r}"


def unsupported_format_message(version: object, supported: int) -> str:
    """Canonical message for a saved index in a format this build cannot read."""
    return (
        f"index format version {version!r} is not supported (this build reads "
        f"format {supported}); rebuild the index from its trajectories"
    )


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConstructionError(ReproError):
    """Raised when an index or data structure cannot be built from its input."""


class QueryError(ReproError):
    """Raised when a query is malformed (bad bounds, empty pattern, ...)."""


class AlphabetError(ReproError):
    """Raised when a symbol is outside the alphabet an index was built over."""


class DatasetError(ReproError):
    """Raised when a dataset generator receives inconsistent parameters."""


class NetworkError(ReproError):
    """Raised for invalid road-network operations (unknown edges, no path, ...)."""


class IndexCorruptionError(DatasetError):
    """Raised when a persisted index fails integrity verification on load.

    Torn writes, truncated/corrupted ``.npz`` archives, and shard
    subdirectories missing from a manifest all surface as this one error,
    whose message names the offending artefact.  It subclasses
    :class:`DatasetError` so callers already catching load failures keep
    working.
    """


class ServiceError(ReproError):
    """Base class for errors raised by the serving tier (:mod:`repro.service`)."""


class ServiceOverloadError(ServiceError):
    """A request was shed by the serving tier's admission control.

    Raised (never queued past) when accepting the request would exceed the
    service's ``max_queue_depth``, or when the service is draining on
    shutdown.  Always :attr:`retriable`: the request was refused *before*
    touching the engine, so resubmitting later is safe.  :attr:`reason` is
    the canonical shed-counter key (``"queue_full"`` or ``"shutdown"``).
    """

    def __init__(self, reason: str = "queue_full", message: str | None = None):
        self.reason = str(reason)
        self.retriable = True
        super().__init__(
            message or f"service overloaded ({self.reason}); retry later"
        )


class DeadlineExceededError(ServiceError):
    """A request's deadline expired (or provably will) before execution.

    Raised at admission when the deadline falls before the next micro-batch
    window can close, or at dispatch when the deadline lapsed while the
    request waited in the window.  The engine never ran for this request, so
    no partial answer exists.
    """

    def __init__(self, message: str = "request deadline exceeded before execution"):
        self.reason = "deadline"
        self.retriable = False
        super().__init__(message)


class ShardExecutionError(ReproError):
    """A shard operation failed after exhausting its retry budget.

    Carries the shard id, the operation that failed (``"fan-out"``,
    ``"add_batch"``, ``"consolidate"``), and the per-attempt history (any
    objects with a useful ``str()``, typically
    :class:`repro.engine.reliability.ShardAttempt` records), so one canonical
    error names the shard instead of a bare backend traceback surfacing
    mid-batch.
    """

    def __init__(
        self,
        shard_id: int,
        operation: str = "fan-out",
        attempts: tuple = (),
    ):
        self.shard_id = int(shard_id)
        self.operation = operation
        self.attempts = tuple(attempts)
        detail = "; ".join(str(attempt) for attempt in self.attempts)
        message = (
            f"shard {self.shard_id} failed during {operation} "
            f"after {max(len(self.attempts), 1)} attempt(s)"
        )
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
