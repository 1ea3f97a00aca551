"""Span recording for the benchmark's ``--trace`` run.

The program under test has no spans of its own yet, so this module wraps
the public entry points of each layer from the outside (the wrappers are
installed by ``traced_serve.py`` and ``batch_caller.py`` before the engine
is loaded).  The model follows Dapper (Sigelman et al., Google TR 2010):

* a span has a name, a start, an end and a parent;
* the parent is the innermost open span on the same thread (a per-thread
  stack), so nested calls nest their spans;
* a layer's *self* time is its span minus the time of its child spans.

Two entry points do not nest on one thread.  ``MicroBatchCoalescer.submit``
is a coroutine that awaits a batch run on a worker thread; its span is
linked to that batch by the identity of the query object it submitted, and
its self time (the coalescing wait) is ``submit - batch``.

Spans stay in memory and are written to JSON once, when the process ends:
``{"fields": [...], "spans": [[...], ...], "facts": {...}}`` with one row
per span in :data:`FIELDS` order.  Times are ``time.monotonic()`` seconds,
the clock the load generator also uses.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable

#: Columns of one span row.  ``child`` is the summed duration of direct
#: children, ``count`` a per-span work count (patterns, matches, jobs) and
#: ``link`` the id of the batch span a ``coalescer.submit`` waited for.
FIELDS = ("id", "parent", "name", "start", "end", "child", "count", "link")
_ID, _PARENT, _NAME, _START, _END, _CHILD, _COUNT, _LINK = range(len(FIELDS))

Counter = Callable[[tuple, dict, object], int]


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.facts: dict[str, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        # id(query) -> the open coalescer.submit span that submitted it
        self._submits: dict[int, list] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, count: Counter | None = None, link: bool = False) -> Callable:
        """A synchronous wrapper recording one span per call of ``fn``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = [next(tracer._ids), parent[_ID] if parent else 0, name, 0.0, 0.0, 0.0, 0, 0]
            if link:
                # run_many(self, queries): point every waiting submit here.
                for query in args[1]:
                    submit = tracer._submits.get(id(query))
                    if submit is not None:
                        submit[_LINK] = span[_ID]
            stack.append(span)
            span[_START] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = time.monotonic()
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += span[_END] - span[_START]
                tracer.spans.append(span)
            if count is not None:
                span[_COUNT] = count(args, kwargs, result)
            return result

        return traced

    def wrap_submit(self, fn: Callable) -> Callable:
        """Wrapper for the coroutine ``MicroBatchCoalescer.submit``."""
        tracer = self

        @functools.wraps(fn)
        async def traced(self_, query, timeout=None):
            span = [next(tracer._ids), 0, "coalescer.submit", time.monotonic(), 0.0, 0.0, 1, 0]
            tracer._submits[id(query)] = span
            try:
                return await fn(self_, query, timeout)
            finally:
                span[_END] = time.monotonic()
                tracer._submits.pop(id(query), None)
                tracer.spans.append(span)

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": list(FIELDS), "spans": self.spans, "facts": self.facts}, handle)


def _one(args, kwargs, result) -> int:
    return 1


def _first_argument_size(args, kwargs, result) -> int:
    """Patterns, rows or jobs: the size of the call's first argument."""
    return len(args[1])


def _result_size(args, kwargs, result) -> int:
    return len(result)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    from repro.core import cinct
    from repro.engine import backends, engine, executor, plan, sharding
    from repro.fmindex import base, trie
    from repro.service import coalescer, server
    from repro.temporal import store
    from repro.wavelet import tree

    def patch(owner, attr: str, name: str, count: Counter | None = None, link: bool = False) -> None:
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count, link))

    # service.protocol, as the server module imported it
    for attr in ("query_from_json", "ingest_from_json", "result_to_json"):
        patch(server, attr, "protocol")
    coalescer.MicroBatchCoalescer.submit = tracer.wrap_submit(coalescer.MicroBatchCoalescer.submit)
    # the engine facades: batch entry points and ingest
    patch(engine.TrajectoryEngine, "run_many", "engine.run_many", link=True)
    patch(sharding.ShardedTrajectoryEngine, "run_many", "sharding.run_many")
    patch(engine.TrajectoryEngine, "add_batch", "ingest.add_batch", _one)
    # engine.plan and engine.executor
    patch(plan.QueryPlanner, "plan", "plan.plan", _one)
    patch(plan.QueryPlanner, "plan_many", "plan.plan_many")
    patch(executor.QueryExecutor, "execute", "executor.execute")
    patch(executor, "optimize_plans", "executor.optimize")
    # fmindex.trie, under the names the indexes imported it by
    patch(trie.PatternTrie, "__init__", "trie.build")
    patch(cinct, "trie_backward_search", "trie.search", _one)
    patch(base, "trie_backward_search", "trie.search", _one)
    # engine.backends
    for owner in (backends._BWTBackend, backends.PartitionedBackend):
        patch(owner, "count_many", "backend.count", _first_argument_size)
        patch(owner, "contains", "backend.count", _one)
    for owner in (backends._SingleStringBackend, backends.PartitionedBackend):
        patch(owner, "locate_matches", "backend.locate", _result_size)
    patch(backends._BWTBackend, "extract", "backend.extract", _one)
    patch(backends._BWTBackend, "extract_many", "backend.extract", _first_argument_size)
    # wavelet.tree: every rank and access entry point
    for attr in ("rank", "rank_many", "rank_pairs", "access", "access_many"):
        patch(tree.WaveletTree, attr, "wavelet", _one)
    # temporal.store
    patch(store.TimestampStore, "timestamp", "timestamps", _one)
    # the shard fan-out, shard work included (every executor runs it)
    patch(sharding.ShardExecutor, "run_jobs", "sharding.run_jobs", _first_argument_size)


# --------------------------------------------------------------------------- #
# summaries
# --------------------------------------------------------------------------- #
def load_spans(path) -> tuple[list[list], dict]:
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return document["spans"], document.get("facts", {})


def in_window(spans: list[list], start: float, end: float) -> list[list]:
    """Spans that began inside ``[start, end]`` (the measured window)."""
    return [s for s in spans if start <= s[_START] <= end]


def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``count``, ``total_ms`` and ``self_ms``."""
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        row = totals.setdefault(span[_NAME], {"calls": 0, "count": 0, "total_ms": 0.0, "self_ms": 0.0})
        duration = span[_END] - span[_START]
        row["calls"] += 1
        row["count"] += span[_COUNT]
        row["total_ms"] += duration * 1e3
        row["self_ms"] += (duration - span[_CHILD]) * 1e3
    return totals


def coalescer_waits(spans: list[list]) -> list[float]:
    """Per submitted request: ``submit - its batch`` in seconds."""
    batches = {s[_ID]: s[_END] - s[_START] for s in spans if s[_NAME] == "engine.run_many"}
    return [
        (s[_END] - s[_START]) - batches.get(s[_LINK], 0.0)
        for s in spans
        if s[_NAME] == "coalescer.submit"
    ]


def layer_metrics(spans: list[list], request_ms: float) -> dict[str, float]:
    """The span-derived per-layer metrics (counters come from ``/stats``).

    Times are shares of ``request_ms``, the summed latency of the requests
    the spans served: a layer a workload never enters reads 0 %, and the
    shares compare across workloads whose request counts differ.
    """
    totals = span_totals(spans)

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    def pct(ms: float) -> float:
        return 100.0 * ms / request_ms if request_ms > 0 else 0.0

    def self_pct(*names: str) -> float:
        return pct(sum(get(name, "self_ms") for name in names))

    return {
        "protocol.calls": get("protocol", "calls"),
        "protocol.self_pct": self_pct("protocol"),
        "coalescer.wait_pct": pct(1e3 * sum(coalescer_waits(spans))),
        "plan.calls": get("plan.plan", "calls"),
        "plan.self_pct": self_pct("plan.plan", "plan.plan_many"),
        "executor.self_pct": self_pct("executor.execute", "executor.optimize", "engine.run_many"),
        "trie.calls": get("trie.search", "calls"),
        "trie.self_pct": self_pct("trie.build", "trie.search"),
        "backend.count.patterns": get("backend.count", "count"),
        "backend.count.self_pct": self_pct("backend.count"),
        "backend.locate.calls": get("backend.locate", "calls"),
        "backend.locate.matches": get("backend.locate", "count"),
        "backend.locate.self_pct": self_pct("backend.locate"),
        "backend.extract.self_pct": self_pct("backend.extract"),
        "wavelet.calls": get("wavelet", "calls"),
        "wavelet.self_pct": self_pct("wavelet"),
        "timestamps.calls": get("timestamps", "calls"),
        "timestamps.self_pct": self_pct("timestamps"),
        "sharding.self_pct": self_pct("sharding.run_many", "sharding.run_jobs"),
        "sharding.fanout_pct": pct(get("sharding.run_jobs", "total_ms")),
        "sharding.jobs": get("sharding.run_jobs", "count"),
        "ingest.add_batch.calls": get("ingest.add_batch", "calls"),
        "ingest.add_batch.self_pct": self_pct("ingest.add_batch"),
    }


def attributed_ms(spans: list[list]) -> float:
    """Server time a layer accounts for, summed over the requests.

    Per HTTP request that is its ``coalescer.submit`` (wait plus batch) and
    its protocol calls; per ingest, its ``add_batch``; per library batch
    (no HTTP), its ``sharding.run_many`` or ``engine.run_many``.
    """
    names = {s[_NAME] for s in spans}
    if "coalescer.submit" in names or "protocol" in names:
        wanted = {"coalescer.submit", "protocol", "ingest.add_batch"}
    else:
        wanted = {"sharding.run_many", "engine.run_many"}
    return 1e3 * sum(
        s[_END] - s[_START] for s in spans if s[_NAME] in wanted and s[_PARENT] == 0
    )


__all__ = [
    "FIELDS",
    "Tracer",
    "attributed_ms",
    "coalescer_waits",
    "in_window",
    "install",
    "layer_metrics",
    "load_spans",
    "span_totals",
]
