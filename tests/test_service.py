"""Serving tier: config, wire protocol, coalescer semantics, HTTP surface.

The contract under test: every answer the service produces — through the
coalescer directly or over HTTP — is bit-identical to a direct
``engine.run`` of the same typed query, including the ``degraded`` and
``failed_shards`` reliability flags; concurrent submissions coalesce into at
most ``ceil(N / max_batch_size)`` engine batches; admission control sheds
with the canonical :class:`~repro.exceptions.ServiceOverloadError` /
:class:`~repro.exceptions.DeadlineExceededError`; and shutdown drains
in-flight batches while shedding queued requests with a retriable status.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.engine import (
    ContainsQuery,
    CountQuery,
    EngineConfig,
    ExtractQuery,
    LocateQuery,
    StrictPathQuery,
    build_engine,
)
from repro.exceptions import (
    AlphabetError,
    ConstructionError,
    DeadlineExceededError,
    QueryError,
    ServiceError,
    ServiceOverloadError,
)
from repro.reliability import faults
from repro.service import (
    MicroBatchCoalescer,
    ServiceConfig,
    query_from_json,
    result_to_json,
    serve_in_background,
)
from repro.trajectories import Trajectory


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear_faults()
    yield
    faults.clear_faults()


@pytest.fixture(scope="module")
def dataset():
    # String edge ids so every query round-trips through the JSON protocol;
    # overlapping ring walks so paths repeat across trajectories.
    rng = np.random.default_rng(1234)
    ring = [f"e{i}" for i in range(12)]
    trajectories = []
    for trajectory_id in range(16):
        length = int(rng.integers(5, 12))
        start = int(rng.integers(0, len(ring)))
        walk = [ring[(start + step) % len(ring)] for step in range(length)]
        departure = float(rng.uniform(0, 300))
        dwell = rng.uniform(4, 16, size=length)
        trajectories.append(
            Trajectory(
                edges=walk,
                timestamps=list(departure + np.cumsum(dwell) - dwell[0]),
                trajectory_id=trajectory_id,
            )
        )
    return trajectories


@pytest.fixture(scope="module")
def engine(dataset):
    return build_engine(dataset, EngineConfig(backend="cinct", sa_sample_rate=4))


@pytest.fixture(scope="module")
def sharded(dataset):
    return build_engine(
        dataset,
        EngineConfig(backend="cinct", sa_sample_rate=4, num_shards=2, shard_workers=1),
    )


@pytest.fixture(scope="module")
def probe_edge(dataset):
    return dataset[0].edges[0]


def _all_query_types(dataset):
    """One query of every type, all answerable by the fixture engines."""
    edges = list(dataset[0].edges[:2])
    return [
        CountQuery(edges),
        ContainsQuery(edges),
        LocateQuery(edges),
        ExtractQuery(row=1, length=3),
        StrictPathQuery(edges, t_start=0.0, t_end=1e9),
    ]


class _RecordingEngine:
    """Engine proxy that records every batch handed to ``run_many``."""

    def __init__(self, engine, delay: float = 0.0):
        self._engine = engine
        self._delay = delay
        self.batches: list[int] = []

    def run_many(self, queries):
        self.batches.append(len(queries))
        if self._delay:
            time.sleep(self._delay)
        return self._engine.run_many(queries)

    def __getattr__(self, name):
        return getattr(self._engine, name)


# --------------------------------------------------------------------------- #
# ServiceConfig
# --------------------------------------------------------------------------- #
class TestServiceConfig:
    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.max_batch_size >= 1
        assert config.max_queue_depth >= 1
        assert config.default_deadline is None

    @pytest.mark.parametrize(
        "overrides",
        [
            {"host": "  "},
            {"port": -1},
            {"port": 70000},
            {"batch_window_ms": -1.0},
            {"max_batch_size": 0},
            {"max_queue_depth": 0},
            {"default_deadline": 0.0},
            {"worker_threads": 0},
            {"drain_timeout": -0.5},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ConstructionError):
            ServiceConfig(**overrides)

    def test_from_env_reads_prefixed_variables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "9999")
        monkeypatch.setenv("REPRO_SERVE_BATCH_WINDOW_MS", "12.5")
        monkeypatch.setenv("REPRO_SERVE_MAX_BATCH_SIZE", "7")
        monkeypatch.setenv("REPRO_SERVE_DEFAULT_DEADLINE", "2.5")
        config = ServiceConfig.from_env()
        assert config.port == 9999
        assert config.batch_window_ms == 12.5
        assert config.max_batch_size == 7
        assert config.default_deadline == 2.5

    def test_explicit_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "9999")
        config = ServiceConfig.from_env(port=4321, max_batch_size=None)
        assert config.port == 4321  # flag wins over env
        assert config.max_batch_size == ServiceConfig().max_batch_size  # None = unset

    def test_malformed_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_PORT", "not-a-port")
        with pytest.raises(ConstructionError, match="REPRO_SERVE_PORT"):
            ServiceConfig.from_env()

    def test_dict_round_trip(self):
        config = ServiceConfig(port=0, batch_window_ms=2.0, max_batch_size=3)
        assert ServiceConfig.from_dict(config.as_dict()) == config
        with pytest.raises(ConstructionError, match="unknown"):
            ServiceConfig.from_dict({"bogus": 1})


# --------------------------------------------------------------------------- #
# wire protocol
# --------------------------------------------------------------------------- #
class TestProtocol:
    def test_parses_every_query_type(self):
        query, timeout = query_from_json({"type": "count", "path": ["a", 2]})
        assert query == CountQuery(["a", 2])
        assert timeout is None
        query, _ = query_from_json({"type": "contains", "path": ["a"]})
        assert query == ContainsQuery(["a"])
        query, _ = query_from_json({"type": "locate", "path": ["a"]})
        assert query == LocateQuery(["a"])
        query, _ = query_from_json({"type": "extract", "row": 3, "length": 2})
        assert query == ExtractQuery(row=3, length=2)
        query, timeout = query_from_json(
            {"type": "strict_path", "path": ["a"], "t_start": 1.0, "t_end": 2.0,
             "deadline_ms": 250}
        )
        assert query == StrictPathQuery(["a"], t_start=1.0, t_end=2.0)
        assert timeout == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "document",
        [
            "not an object",
            {"type": "nope", "path": ["a"]},
            {"type": "count"},
            {"type": "count", "path": []},
            {"type": "count", "path": [True]},
            {"type": "count", "path": ["a"], "deadline_ms": 0},
            {"type": "count", "path": ["a"], "deadline_ms": "soon"},
            {"type": "count", "path": ["a"], "deadline_ms": float("nan")},
            {"type": "extract", "row": 1.5, "length": 2},
            {"type": "extract", "row": 1},
        ],
    )
    def test_malformed_documents_raise_query_error(self, document):
        with pytest.raises(QueryError):
            query_from_json(document)

    def test_result_round_trip_matches_engine(self, engine, dataset):
        for query in _all_query_types(dataset):
            document = result_to_json(engine.run(query))
            assert document["degraded"] is False
            assert document["failed_shards"] == []
            assert json.loads(json.dumps(document)) == document  # JSON-safe


# --------------------------------------------------------------------------- #
# coalescer
# --------------------------------------------------------------------------- #
class TestCoalescer:
    @pytest.mark.parametrize("fixture", ["engine", "sharded"])
    def test_bit_identity_with_direct_run(self, request, dataset, fixture):
        target = request.getfixturevalue(fixture)
        queries = _all_query_types(dataset)
        expected = [target.run(query) for query in queries]

        async def main():
            coalescer = MicroBatchCoalescer(
                target, ServiceConfig(batch_window_ms=20.0, max_batch_size=16)
            )
            try:
                return await asyncio.gather(
                    *[coalescer.submit(query) for query in queries]
                )
            finally:
                await coalescer.aclose()

        assert asyncio.run(main()) == expected

    def test_concurrent_submissions_coalesce(self, engine, probe_edge):
        n_clients, max_batch = 20, 8
        recorder = _RecordingEngine(engine)

        async def main():
            coalescer = MicroBatchCoalescer(
                recorder,
                ServiceConfig(batch_window_ms=200.0, max_batch_size=max_batch),
            )
            tasks = [
                asyncio.create_task(coalescer.submit(CountQuery([probe_edge])))
                for _ in range(n_clients)
            ]
            results = await asyncio.gather(*tasks)
            stats = coalescer.stats()
            await coalescer.aclose()
            return results, stats

        results, stats = asyncio.run(main())
        assert len(recorder.batches) <= math.ceil(n_clients / max_batch)
        assert sum(recorder.batches) == n_clients
        assert stats["batches"] == len(recorder.batches)
        assert stats["served"] == n_clients
        assert stats["largest_batch"] == max_batch
        expected = engine.run(CountQuery([probe_edge]))
        assert all(result == expected for result in results)

    def test_queue_full_sheds_with_overload_error(self, engine, probe_edge):
        slow = _RecordingEngine(engine, delay=0.3)

        async def main():
            coalescer = MicroBatchCoalescer(
                slow,
                ServiceConfig(
                    batch_window_ms=1.0,
                    max_batch_size=4,
                    max_queue_depth=2,
                    worker_threads=1,
                ),
            )
            first = asyncio.create_task(coalescer.submit(CountQuery([probe_edge])))
            second = asyncio.create_task(coalescer.submit(CountQuery([probe_edge])))
            await asyncio.sleep(0.05)  # both now occupy the queue (in flight)
            with pytest.raises(ServiceOverloadError) as excinfo:
                await coalescer.submit(CountQuery([probe_edge]))
            assert excinfo.value.reason == "queue_full"
            assert excinfo.value.retriable is True
            assert isinstance(excinfo.value, ServiceError)
            shed = coalescer.stats()["shed"]
            results = await asyncio.gather(first, second)
            await coalescer.aclose()
            return shed, results

        shed, results = asyncio.run(main())
        assert shed["queue_full"] == 1
        assert results == [engine.run(CountQuery([probe_edge]))] * 2

    def test_deadline_shorter_than_window_sheds_immediately(self, engine, probe_edge):
        async def main():
            coalescer = MicroBatchCoalescer(
                engine, ServiceConfig(batch_window_ms=200.0)
            )
            with pytest.raises(DeadlineExceededError):
                await coalescer.submit(CountQuery([probe_edge]), timeout=0.01)
            stats = coalescer.stats()
            await coalescer.aclose()
            return stats

        stats = asyncio.run(main())
        assert stats["shed"]["deadline"] == 1
        assert stats["submitted"] == 0  # shed before joining a window

    def test_deadline_lapsing_in_window_sheds_at_dispatch(self, engine, probe_edge):
        async def main():
            coalescer = MicroBatchCoalescer(
                engine, ServiceConfig(batch_window_ms=0.0)
            )
            # Admitted (deadline is past the zero-length window's close), but
            # certainly expired by the time the flush callback actually runs.
            with pytest.raises(DeadlineExceededError):
                await coalescer.submit(CountQuery([probe_edge]), timeout=1e-9)
            stats = coalescer.stats()
            await coalescer.aclose()
            return stats

        stats = asyncio.run(main())
        assert stats["shed"]["deadline"] == 1
        assert stats["submitted"] == 1  # joined a window, shed at dispatch

    def test_default_deadline_comes_from_config(self, engine, probe_edge):
        async def main():
            coalescer = MicroBatchCoalescer(
                engine,
                ServiceConfig(batch_window_ms=200.0, default_deadline=0.01),
            )
            with pytest.raises(DeadlineExceededError):
                await coalescer.submit(CountQuery([probe_edge]))  # no timeout arg
            await coalescer.aclose()

        asyncio.run(main())

    def test_bad_query_does_not_fail_its_batch_neighbours(
        self, engine, dataset, probe_edge
    ):
        good = CountQuery([probe_edge])

        async def main():
            coalescer = MicroBatchCoalescer(
                engine, ServiceConfig(batch_window_ms=30.0, max_batch_size=8)
            )
            good_task = asyncio.create_task(coalescer.submit(good))
            bad_task = asyncio.create_task(
                coalescer.submit(CountQuery(["no-such-segment"]))
            )
            results = await asyncio.gather(good_task, bad_task, return_exceptions=True)
            await coalescer.aclose()
            return results

        good_result, bad_result = asyncio.run(main())
        assert good_result == engine.run(good)
        assert isinstance(bad_result, AlphabetError)

    def test_graceful_drain(self, engine, probe_edge):
        slow = _RecordingEngine(engine, delay=0.2)

        async def main():
            coalescer = MicroBatchCoalescer(
                slow,
                # A window far longer than the test: the third request is
                # still waiting in it when the drain begins, however slow the
                # host.
                ServiceConfig(batch_window_ms=10_000, max_batch_size=2, worker_threads=1),
            )
            # Two fill a batch and dispatch immediately (in flight)...
            in_flight = [
                asyncio.create_task(coalescer.submit(CountQuery([probe_edge])))
                for _ in range(2)
            ]
            await asyncio.sleep(0.02)
            # ...one more waits in a fresh window when the drain begins.
            queued = asyncio.create_task(coalescer.submit(CountQuery([probe_edge])))
            await asyncio.sleep(0.001)
            await coalescer.aclose()
            queued_outcome = await asyncio.gather(queued, return_exceptions=True)
            served = await asyncio.gather(*in_flight)
            with pytest.raises(ServiceOverloadError) as excinfo:
                await coalescer.submit(CountQuery([probe_edge]))
            return served, queued_outcome[0], excinfo.value, coalescer.stats()

        served, queued_outcome, late_error, stats = asyncio.run(main())
        # In-flight work completed with real answers.
        assert served == [engine.run(CountQuery([probe_edge]))] * 2
        # The queued request was shed with a retriable shutdown status.
        assert isinstance(queued_outcome, ServiceOverloadError)
        assert queued_outcome.reason == "shutdown"
        assert queued_outcome.retriable is True
        # Post-drain submissions shed the same way.
        assert late_error.reason == "shutdown"
        assert stats["shed"]["shutdown"] == 2
        assert stats["draining"] is True

    def test_degraded_results_flow_through(self, sharded, probe_edge):
        sharded.configure_reliability(degraded_results=True)
        try:
            query = CountQuery([probe_edge])
            with faults.shard_fault(0, "raise"):
                expected = sharded.run(query)

                async def main():
                    coalescer = MicroBatchCoalescer(
                        sharded, ServiceConfig(batch_window_ms=5.0)
                    )
                    result = await coalescer.submit(query)
                    await coalescer.aclose()
                    return result

                result = asyncio.run(main())
            assert result == expected
            assert result.degraded is True
            assert result.failed_shards == (0,)
        finally:
            sharded.configure_reliability(degraded_results=False)


# --------------------------------------------------------------------------- #
# HTTP surface
# --------------------------------------------------------------------------- #
def _post(url: str, document: object, timeout: float = 10.0):
    request = urllib.request.Request(
        url + "/query",
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


def _get(url: str, route: str, timeout: float = 10.0):
    with urllib.request.urlopen(url + route, timeout=timeout) as response:
        return json.load(response)


class TestHTTPSurface:
    @pytest.fixture(scope="class")
    def handle(self, engine):
        with serve_in_background(
            engine, ServiceConfig(port=0, batch_window_ms=2.0)
        ) as handle:
            yield handle

    def test_query_answers_match_direct_run(self, handle, engine, dataset):
        for query in _all_query_types(dataset):
            request = _request_document(query)
            assert _post(handle.url, request) == result_to_json(engine.run(query))

    def test_health_aggregates_engine_and_service(self, handle, engine):
        health = _get(handle.url, "/health")
        assert health["status"] == "ok"
        assert health["epochs"] == [engine.epoch]
        assert health["engine_health"]["num_shards"] == 1
        assert set(health) >= {"cache", "queue_depth", "shed", "served", "coalesced"}

    def test_stats_surface(self, handle):
        stats = _get(handle.url, "/stats")
        assert stats["engine"]["engine"] == "single"
        assert stats["config"]["max_batch_size"] == ServiceConfig().max_batch_size
        assert stats["service"]["shed"] == {
            "queue_full": 0, "deadline": 0, "shutdown": 0,
        }

    @pytest.mark.parametrize(
        "body, expected_status",
        [
            (b"this is not json", 400),
            (b'{"type": "bogus"}', 400),
            (b'{"type": "count", "path": []}', 400),
            (b'{"type": "count", "path": ["no-such-segment"]}', 400),
        ],
    )
    def test_bad_requests_get_400(self, handle, body, expected_status):
        request = urllib.request.Request(handle.url + "/query", data=body)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == expected_status
        payload = json.load(excinfo.value)
        assert payload["reason"] == "bad_request"
        assert payload["retriable"] is False

    def test_inverted_window_is_400_on_a_fleet(self, sharded, dataset):
        # The fleet planner rejects t_end < t_start before the fan-out, so
        # the client gets the canonical bad-request answer, not a shard
        # failure (500).
        body = {
            "type": "strict_path",
            "path": list(dataset[0].edges[:2]),
            "t_start": 20.0,
            "t_end": 5.0,
        }
        with serve_in_background(
            sharded, ServiceConfig(port=0, batch_window_ms=2.0)
        ) as handle:
            request = urllib.request.Request(
                handle.url + "/query", data=json.dumps(body).encode()
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            payload = json.load(excinfo.value)
        assert excinfo.value.code == 400
        assert payload["reason"] == "bad_request"

    def test_unknown_route_is_404_and_get_query_is_405(self, handle):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(handle.url + "/nope", timeout=10.0)
        assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(handle.url + "/query", timeout=10.0)
        assert excinfo.value.code == 405

    def test_expired_deadline_is_504(self, engine, probe_edge):
        with serve_in_background(
            engine, ServiceConfig(port=0, batch_window_ms=100.0)
        ) as handle:
            request = urllib.request.Request(
                handle.url + "/query",
                data=json.dumps(
                    {"type": "count", "path": [probe_edge], "deadline_ms": 1}
                ).encode(),
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            assert excinfo.value.code == 504
            assert json.load(excinfo.value)["reason"] == "deadline"

    def test_overload_is_503_with_retry_after(self, engine, probe_edge):
        slow = _RecordingEngine(engine, delay=0.5)
        config = ServiceConfig(
            port=0,
            batch_window_ms=1.0,
            max_batch_size=1,
            max_queue_depth=1,
            worker_threads=1,
        )
        with serve_in_background(slow, config) as handle:
            statuses: list[int] = []
            lock = threading.Lock()

            def client():
                try:
                    _post(handle.url, {"type": "count", "path": [probe_edge]})
                    outcome = 200
                except urllib.error.HTTPError as error:
                    outcome = error.code
                    if error.code == 503:
                        assert error.headers["Retry-After"] is not None
                        payload = json.load(error)
                        assert payload["retriable"] is True
                        assert payload["reason"] in {"queue_full", "shutdown"}
                with lock:
                    statuses.append(outcome)

            threads = [threading.Thread(target=client) for _ in range(6)]
            for thread in threads:
                thread.start()
                time.sleep(0.02)  # let earlier requests occupy the queue
            for thread in threads:
                thread.join()
        assert 200 in statuses  # the service kept serving under overload
        assert 503 in statuses  # and shed the excess

    def test_degraded_flag_reaches_json_clients(self, sharded, probe_edge):
        sharded.configure_reliability(degraded_results=True)
        try:
            with faults.shard_fault(0, "raise"):
                with serve_in_background(
                    sharded, ServiceConfig(port=0, batch_window_ms=2.0)
                ) as handle:
                    document = _post(
                        handle.url, {"type": "count", "path": [probe_edge]}
                    )
            assert document["degraded"] is True
            assert document["failed_shards"] == [0]
        finally:
            sharded.configure_reliability(degraded_results=False)


def _request_document(query) -> dict:
    """The wire request that parses back into ``query``."""
    if isinstance(query, CountQuery):
        return {"type": "count", "path": list(query.path)}
    if isinstance(query, ContainsQuery):
        return {"type": "contains", "path": list(query.path)}
    if isinstance(query, LocateQuery):
        return {"type": "locate", "path": list(query.path)}
    if isinstance(query, ExtractQuery):
        return {"type": "extract", "row": query.row, "length": query.length}
    return {
        "type": "strict_path",
        "path": list(query.path),
        "t_start": query.t_start,
        "t_end": query.t_end,
    }
