"""Optimize and execute stages of the engine query pipeline.

The normalize stage (:mod:`repro.engine.plan`) turns raw queries into
canonical :class:`~repro.engine.plan.QueryPlan` records; this module finishes
the pipeline:

* :func:`optimize_plans` — the **optimize** stage: dedupe identical plans and
  group the remainder by (query type x capability), so a heterogeneous batch
  becomes one ``count_many`` pass, one ``extract_many`` batch per extraction
  length, and one locate walk per distinct pattern — never a per-query loop;
* :class:`PlanExecutor` — the capability surface a backend must provide to
  execute plans.  The existing :class:`~repro.engine.backends.EngineBackend`
  adapters satisfy it structurally, so every registered backend (and any
  third-party one) is already a plan executor;
* :class:`EpochLRU` — the one cache primitive: a locked, bounded LRU
  invalidated by the owning shard's monotonically increasing **growth
  epoch** (bumped by ``add_batch`` / ``consolidate`` and persisted by the
  index format), optionally budgeted in approximate bytes;
* :class:`ResultCache` — an :class:`EpochLRU` keyed on canonical plans and
  weighed in payload bytes (``cache_max_bytes``), so high-frequency locate
  payloads cannot pin unbounded match sets;
* :class:`IntervalCache` — the second cache tier: an :class:`EpochLRU`
  mapping encoded pattern-prefix tuples to backward-search suffix ranges
  (``(sp, ep)``, or ``None`` for a prefix that never occurs).  Where the
  result cache short-circuits *whole plans*, the interval cache accelerates
  the *search inside* a miss: backends that support interval sharing
  (``supports_interval_sharing``) resume backward search from the deepest
  cached ancestor of each pattern, so incremental one-edge extensions cost a
  single LF step and coalesced batches from different clients warm each
  other;
* :class:`QueryExecutor` — the **execute** stage: serve plans from the cache
  where possible, route the misses through the grouped vectorized paths
  (threading the interval cache into backends that share intervals), and
  fill the cache with what they produce.  Contains plans probe their
  :meth:`~repro.engine.plan.QueryPlan.count_twin` (same batch, then cache)
  before falling back to the backend's early-exit ``contains`` path.

Each shard (:class:`~repro.engine.engine.EngineShard`) owns one executor and
therefore one pair of caches and one growth epoch: growing a shard
invalidates *that shard's* entries only, so answers cached for untouched
shards survive ``add_batch`` on their neighbours.

Cached payloads are plain values (occurrence counts, resolved match tuples,
extracted symbol tuples), never result objects: the engine wraps them back
around the original query at assembly time, so cached and uncached answers
are bit-identical.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Protocol, Sequence, runtime_checkable

from ..queries.strict_path import StrictPathMatch
from .plan import KIND_CONTAINS, KIND_COUNT, KIND_EXTRACT, KIND_LOCATE, QueryPlan

#: Resolves an encoded pattern to located, timestamp-annotated matches,
#: taking the executor's optional ``interval_cache`` keyword.  Provided by the
#: engine (it owns the timestamp store the matches borrow their
#: ``start_time``/``end_time`` from).
MatchResolver = Callable[..., tuple[StrictPathMatch, ...]]


@runtime_checkable
class PlanExecutor(Protocol):
    """What a backend must provide to execute canonical query plans.

    This is the capability-driven execution surface of the pipeline: count
    plans run through :meth:`count_many`, locate plans through
    :meth:`locate_matches`, extract plans through :meth:`extract` /
    :meth:`extract_many`.  :class:`~repro.engine.backends.EngineBackend`
    satisfies the protocol, so adapters never subclass anything new — the
    spec's capability flags (checked at plan time) declare which methods are
    actually callable.
    """

    def count_many(
        self, patterns: Sequence[Sequence[int]], interval_cache=None
    ) -> list[int]: ...

    def contains(self, pattern: Sequence[int], interval_cache=None) -> bool: ...

    def locate_matches(
        self, pattern: Sequence[int], interval_cache=None
    ) -> list[tuple[int, int, int]]: ...

    def extract(self, row: int, length: int) -> list[int]: ...

    def extract_many(self, rows: Sequence[int], length: int) -> list[list[int]]: ...


# --------------------------------------------------------------------------- #
# optimize stage
# --------------------------------------------------------------------------- #
@dataclass
class PlanGroups:
    """Deduplicated plans grouped by (query type x capability)."""

    count: list[QueryPlan] = field(default_factory=list)
    contains: list[QueryPlan] = field(default_factory=list)
    locate: list[QueryPlan] = field(default_factory=list)
    #: extraction plans share one ``extract_many`` batch per length
    extract: "OrderedDict[int, list[QueryPlan]]" = field(default_factory=OrderedDict)

    @property
    def n_plans(self) -> int:
        """Total distinct plans across all groups."""
        return (
            len(self.count)
            + len(self.contains)
            + len(self.locate)
            + sum(len(group) for group in self.extract.values())
        )


def optimize_plans(plans: Iterable[QueryPlan]) -> PlanGroups:
    """Dedupe canonical plans and group them for vectorized execution.

    Input plans must already be canonical (window-stripped); the first
    occurrence of each distinct plan wins, so a batch carrying the same
    pattern as both a count and a contains query — or the same extraction
    twice — does each piece of work exactly once.
    """
    groups = PlanGroups()
    seen: set[QueryPlan] = set()
    for plan in plans:
        if plan in seen:
            continue
        seen.add(plan)
        if plan.kind == KIND_COUNT:
            groups.count.append(plan)
        elif plan.kind == KIND_CONTAINS:
            groups.contains.append(plan)
        elif plan.kind == KIND_LOCATE:
            groups.locate.append(plan)
        elif plan.kind == KIND_EXTRACT:
            groups.extract.setdefault(plan.length, []).append(plan)
        else:  # pragma: no cover - the planner only emits the four kinds
            raise ValueError(f"unknown plan kind: {plan.kind!r}")
    return groups


# --------------------------------------------------------------------------- #
# caches
# --------------------------------------------------------------------------- #
_MISS = object()

#: Approximate CPython heap cost of a small int / bool payload element.
_INT_BYTES = 28
#: Approximate fixed overhead of a tuple payload (header, before 8B/slot).
_TUPLE_BASE = 56
#: Approximate heap cost of one resolved :class:`StrictPathMatch`.
_MATCH_BYTES = 120


def approximate_payload_bytes(payload: object) -> int:
    """Deterministic size estimate (in bytes) of a cached plan payload.

    Payloads are ints (counts), bools (contains), tuples of ints (extracted
    symbols) or tuples of :class:`StrictPathMatch` (locate / strict-path).
    The constants approximate CPython object sizes; what matters is that the
    estimate is stable and roughly proportional to real memory, so a
    ``cache_max_bytes`` budget evicts the big locate payloads first.
    """
    if isinstance(payload, (bool, int)):
        return _INT_BYTES
    if isinstance(payload, tuple):
        total = _TUPLE_BASE + 8 * len(payload)
        for item in payload:
            total += _MATCH_BYTES if isinstance(item, StrictPathMatch) else _INT_BYTES
        return total
    return _TUPLE_BASE


class EpochLRU:
    """Bounded LRU of computed values, invalidated by the engine's growth epoch.

    The primitive under both engine caches.  One cache belongs to one shard
    and tracks that shard's growth epoch: whenever :meth:`sync_epoch` is told
    about a different epoch, every entry is dropped (the index changed, so
    every cached value is potentially stale).  ``capacity`` bounds the number
    of entries; ``capacity <= 0`` disables the cache, which is also what
    :meth:`disable` switches to at runtime.  An optional ``weigher`` sizes
    each value in approximate bytes, and ``max_bytes`` (when given) then
    bounds their total as well — a single value larger than the whole budget
    is never stored.

    **Thread safety.**  Every public method takes one internal lock, so
    concurrent callers (the serving tier's worker threads) keep the counters,
    LRU order and byte accounting consistent.  A lookup → compute → store
    sequence is *not* atomic as a whole: two threads may both miss and both
    compute.  That is benign — values are deterministic, so the second store
    writes an identical value — and deliberately cheap: holding the lock
    across backend execution would serialize callers.  What must not happen
    is a value computed before a growth step landing after it, so
    :meth:`get` and :meth:`put` take the epoch their caller started under
    and, under the lock, miss or drop the write once the cache has moved on.
    """

    def __init__(
        self,
        capacity: int,
        epoch: int = 0,
        *,
        weigher: Callable[[object], int] | None = None,
        max_bytes: int | None = None,
    ):
        self._capacity = max(int(capacity), 0)
        self._weigher = weigher
        self._max_bytes = None if max_bytes is None else max(int(max_bytes), 0)
        self._entries: OrderedDict = OrderedDict()
        self._sizes: dict = {}
        self._payload_bytes = 0
        self._epoch = int(epoch)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    @property
    def enabled(self) -> bool:
        """True when the cache stores anything at all."""
        return self._capacity > 0

    @property
    def epoch(self) -> int:
        """Growth epoch the cached entries were computed under."""
        return self._epoch

    def sync_epoch(self, epoch: int) -> None:
        """Adopt the engine's growth epoch, dropping entries if it moved."""
        epoch = int(epoch)
        with self._lock:
            if epoch == self._epoch:
                return
            if self._entries:
                self.invalidations += 1
                self._drop_entries()
            self._epoch = epoch

    def get(self, key: Hashable, epoch: int | None = None, *, count_miss: bool = True) -> object:
        """The cached value for ``key``, or the module-private miss marker.

        A probe made for an epoch the cache has left misses.  With
        ``count_miss=False`` an absent key leaves the miss counter alone
        (cross-plan sharing probes, where not finding the key is no miss).
        """
        with self._lock:
            if epoch is not None and epoch != self._epoch:
                value = _MISS
            else:
                value = self._entries.get(key, _MISS)
            if value is _MISS:
                if count_miss:
                    self.misses += 1
                return _MISS
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: object, epoch: int | None = None) -> None:
        """Store one computed value, evicting the least recently used.

        ``epoch`` is the growth epoch the value was computed under; a value
        from an epoch the cache has already left is stale and is dropped.
        Eviction keeps going until every bound holds.
        """
        with self._lock:
            if self._capacity <= 0 or (epoch is not None and epoch != self._epoch):
                return
            if self._weigher is not None:
                nbytes = self._weigher(value)
                if self._max_bytes is not None and nbytes > self._max_bytes:
                    return  # would evict everything and still not fit
                self._payload_bytes += nbytes - self._sizes.get(key, 0)
                self._sizes[key] = nbytes
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self._capacity or (
                self._max_bytes is not None and self._payload_bytes > self._max_bytes
            ):
                evicted, _ = self._entries.popitem(last=False)
                if self._weigher is not None:
                    self._payload_bytes -= self._sizes.pop(evicted)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._drop_entries()

    def disable(self) -> None:
        """Turn the cache off for the rest of its owner's lifetime."""
        with self._lock:
            self._capacity = 0
            self._drop_entries()

    def _drop_entries(self) -> None:
        # Callers hold self._lock.
        self._entries.clear()
        self._sizes.clear()
        self._payload_bytes = 0

    def __getstate__(self) -> dict[str, object]:
        """Picklable snapshot (the lock is recreated on unpickle).

        Shards travel to worker processes whole under
        ``shard_executor="processes"`` with the ``spawn`` start method; the
        cache ships its entries so a freshly synced worker starts warm.
        """
        with self._lock:
            state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def stats(self) -> dict[str, int | bool]:
        """Counters for observability (``query --verbose``, ``/stats``).

        Weighed caches also report ``payload_bytes`` and ``max_bytes``
        (0 when unbounded).
        """
        with self._lock:
            stats: dict[str, int | bool] = {
                "enabled": self._capacity > 0,
                "capacity": self._capacity,
                "size": len(self._entries),
            }
            if self._weigher is not None:
                stats["payload_bytes"] = self._payload_bytes
                stats["max_bytes"] = self._max_bytes or 0
            stats.update(
                epoch=self._epoch,
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                invalidations=self.invalidations,
            )
            return stats


class ResultCache(EpochLRU):
    """Executed plan payloads keyed on canonical plans.

    Keys are canonical :class:`~repro.engine.plan.QueryPlan` records; values
    are the executed payloads (ints, bools, match tuples, symbol tuples).
    Two bounds apply together: ``capacity`` limits the *number* of cached
    plans, ``max_bytes`` (when given) the approximate *payload bytes* (see
    :func:`approximate_payload_bytes`) — locate payloads are full match
    tuples, so a count bound alone lets high-frequency paths pin big result
    sets.
    """

    def __init__(self, capacity: int, epoch: int = 0, max_bytes: int | None = None):
        super().__init__(
            capacity, epoch, weigher=approximate_payload_bytes, max_bytes=max_bytes
        )

    def peek(self, plan: QueryPlan) -> object:
        """Like :meth:`get`, but an absent key does not count as a miss.

        Used for cross-plan sharing probes (a contains plan consulting its
        count twin): finding the twin is a real hit, not finding it should
        not distort the miss counter of the plan actually being executed.
        """
        return self.get(plan, count_miss=False)


#: An interval-cache key: an encoded pattern-prefix tuple, optionally
#: prefixed with a tier id by the partitioned backend's per-partition views.
IntervalKey = tuple[int, ...]


class IntervalCache(EpochLRU):
    """Encoded pattern-prefixes → backward-search suffix ranges.

    The second cache tier of the query pipeline.  Keys are tuples of encoded
    symbols — the travel-order prefix a backward search has consumed so far
    (the partitioned backend additionally prefixes a tier id per compressed
    partition).  Values are ``(sp, ep)`` suffix ranges, or ``None`` for a
    prefix that provably never occurs, so repeated misses are as warm as
    repeated hits.  A suffix range is a position in the BWT, so *any* growth
    invalidates every entry.

    Three surfaces serve the two consumers:

    * :meth:`lookup` — exact-key probe used by the trie executor for every
      trie node: an adopted node is a hit (no rank work), a computed node is
      a miss;
    * :meth:`deepest` — longest-first ancestor probe used by the scalar
      backward search; the whole probe counts one hit *or* one miss, so a
      single query never distorts the counters by its pattern length;
    * :meth:`store` — insert (never counted), performed for every freshly
      computed search state.

    A disabled cache neither counts nor stores.  :meth:`pinned` hands
    backends a view that passes one execution's epoch on every call.
    """

    def pinned(self, epoch: int) -> "PinnedIntervalCache":
        """This cache as seen by a search that started under ``epoch``."""
        return PinnedIntervalCache(self, epoch)

    def lookup(
        self, key: IntervalKey, epoch: int | None = None
    ) -> tuple[bool, "tuple[int, int] | None"]:
        """``(found, interval)`` for one prefix key; counts a hit or a miss."""
        if self._capacity <= 0:
            return False, None
        interval = self.get(key, epoch)
        if interval is _MISS:
            return False, None
        return True, interval  # type: ignore[return-value]

    def deepest(
        self, keys: Sequence[IntervalKey], epoch: int | None = None
    ) -> tuple[int, "tuple[int, int] | None"]:
        """Probe ancestor keys (longest first); ``(index, interval)`` or ``(-1, None)``.

        The whole probe counts exactly one hit (the deepest ancestor found)
        or one miss (no ancestor cached), so scalar queries contribute to the
        counters per *query*, not per pattern symbol.
        """
        with self._lock:
            if self._capacity <= 0:
                return -1, None
            stale = epoch is not None and epoch != self._epoch
            for index, key in enumerate(() if stale else keys):
                interval = self._entries.get(key, _MISS)
                if interval is _MISS:
                    continue
                self._entries.move_to_end(key)
                self.hits += 1
                return index, interval  # type: ignore[return-value]
            self.misses += 1
            return -1, None

    def store(
        self, key: IntervalKey, interval: "tuple[int, int] | None", epoch: int | None = None
    ) -> None:
        """Remember one computed search state (LRU-evicting; never counted)."""
        self.put(key, interval, epoch)


class PinnedIntervalCache:
    """An :class:`IntervalCache` pinned to the epoch one execution started under.

    Backends see the usual ``enabled``/``lookup``/``deepest``/``store``
    surface; every call carries the pinned epoch, so once the engine grows
    the execution neither reads ranges of the new index nor writes ranges
    of the old one.
    """

    __slots__ = ("_cache", "_epoch")

    def __init__(self, cache: IntervalCache, epoch: int):
        self._cache = cache
        self._epoch = int(epoch)

    @property
    def enabled(self) -> bool:
        return self._cache.enabled

    def lookup(self, key: IntervalKey) -> tuple[bool, "tuple[int, int] | None"]:
        return self._cache.lookup(key, self._epoch)

    def deepest(self, keys: Sequence[IntervalKey]) -> tuple[int, "tuple[int, int] | None"]:
        return self._cache.deepest(keys, self._epoch)

    def store(self, key: IntervalKey, interval: "tuple[int, int] | None") -> None:
        self._cache.store(key, interval, self._epoch)


# --------------------------------------------------------------------------- #
# execute stage
# --------------------------------------------------------------------------- #
class QueryExecutor:
    """Execute canonical plans against a backend, fronted by the result cache.

    One executor belongs to one engine.  :meth:`execute` is the whole execute
    stage: look every canonical plan up in the cache, run
    :func:`optimize_plans` over the misses, route each group through the
    backend's vectorized path, and return a payload per canonical plan.
    """

    def __init__(
        self,
        backend: PlanExecutor,
        resolver: MatchResolver,
        cache: ResultCache,
        interval_cache: IntervalCache | None = None,
    ):
        self._backend = backend
        self._resolver = resolver
        self._cache = cache
        self._interval_cache = interval_cache
        self._share_intervals = bool(
            getattr(backend, "supports_interval_sharing", False)
        )

    def _interval_kwargs(self) -> dict[str, PinnedIntervalCache]:
        """Backend kwargs carrying the interval cache, when it applies.

        The cache goes in pinned to its current epoch (see
        :class:`PinnedIntervalCache`).  Empty for backends without suffix
        ranges (``supports_interval_sharing`` unset) and when the cache is
        disabled, so those backends keep their exact pre-cache call
        signature.
        """
        cache = self._interval_cache
        if cache is not None and self._share_intervals and cache.enabled:
            return {"interval_cache": cache.pinned(cache.epoch)}
        return {}

    def execute(self, plans: Iterable[QueryPlan]) -> dict[QueryPlan, object]:
        """Payloads for every distinct canonical plan in ``plans``.

        Both cache epochs are read before anything executes: a read that
        overlaps a growth step computes against the old index, so none of
        its payloads or ranges may land in the caches after the step has
        emptied them.
        """
        run = _Execution(self._cache.epoch, self._interval_kwargs())
        canonical: list[QueryPlan] = []
        seen: set[QueryPlan] = set()
        for plan in plans:
            key = plan.canonical()
            if key not in seen:
                seen.add(key)
                canonical.append(key)

        misses: list[QueryPlan] = []
        for key in canonical:
            cached = self._cache.get(key)
            if cached is _MISS:
                misses.append(key)
            else:
                run.payloads[key] = cached

        groups = optimize_plans(misses)
        self._execute_counts(groups.count, run)
        # Contains after counts: a count over the same pattern computed in
        # this very batch (or already cached) answers the contains for free.
        self._execute_contains(groups.contains, run)
        self._execute_extracts(groups.extract, run)
        self._execute_locates(groups.locate, run)
        return run.payloads

    def _record(self, run: "_Execution", plan: QueryPlan, payload: object) -> None:
        run.payloads[plan] = payload
        self._cache.put(plan, payload, run.epoch)

    # ------------------------------------------------------------------ #
    # per-group vectorized execution
    # ------------------------------------------------------------------ #
    def _execute_counts(self, plans: Sequence[QueryPlan], run: "_Execution") -> None:
        if not plans:
            return
        counts = self._backend.count_many(
            [list(plan.pattern) for plan in plans], **run.intervals
        )
        for plan, count in zip(plans, counts):
            self._record(run, plan, int(count))

    def _execute_contains(self, plans: Sequence[QueryPlan], run: "_Execution") -> None:
        unresolved: list[QueryPlan] = []
        for plan in plans:
            twin = plan.count_twin()
            count = run.payloads.get(twin, _MISS)
            if count is _MISS:
                count = self._cache.peek(twin)
            if count is _MISS:
                unresolved.append(plan)
                continue
            self._record(run, plan, int(count) > 0)  # type: ignore[call-overload]
        if not unresolved:
            return
        if len(unresolved) == 1:
            # The scalar path keeps the backend's early-exit contains
            # specializations (partitioned any-partition short-circuit,
            # linear-scan first-match stop), not a full count.
            plan = unresolved[0]
            found = self._backend.contains(list(plan.pattern), **run.intervals)
            self._record(run, plan, bool(found))
            return
        # Several distinct contains misses run as one vectorized count_many
        # pass instead of a scalar loop; the counts land in the cache under
        # their count twins too, so later counts over the same paths are warm.
        counts = self._backend.count_many(
            [list(plan.pattern) for plan in unresolved], **run.intervals
        )
        for plan, count in zip(unresolved, counts):
            self._cache.put(plan.count_twin(), int(count), run.epoch)
            self._record(run, plan, int(count) > 0)

    def _execute_extracts(
        self, grouped: "OrderedDict[int, list[QueryPlan]]", run: "_Execution"
    ) -> None:
        for length, plans in grouped.items():
            if len(plans) == 1:
                # The scalar path keeps the backend's single-row diagnostics
                # (e.g. which BWT position was out of range).
                symbol_lists = [self._backend.extract(plans[0].row, length)]
            else:
                symbol_lists = self._backend.extract_many(
                    [plan.row for plan in plans], length
                )
            for plan, symbols in zip(plans, symbol_lists):
                self._record(run, plan, tuple(int(symbol) for symbol in symbols))

    def _execute_locates(self, plans: Sequence[QueryPlan], run: "_Execution") -> None:
        for plan in plans:
            self._record(run, plan, self._resolver(plan.pattern, **run.intervals))


@dataclass
class _Execution:
    """State of one :meth:`QueryExecutor.execute` call."""

    #: Result-cache epoch the execution started under.
    epoch: int
    #: Backend kwargs carrying the pinned interval cache (or none).
    intervals: dict[str, PinnedIntervalCache]
    payloads: dict[QueryPlan, object] = field(default_factory=dict)


__all__ = [
    "MatchResolver",
    "PlanExecutor",
    "PlanGroups",
    "approximate_payload_bytes",
    "optimize_plans",
    "EpochLRU",
    "IntervalCache",
    "PinnedIntervalCache",
    "ResultCache",
    "QueryExecutor",
]
