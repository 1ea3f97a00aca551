"""LSM-style ingest fast path: tail parity, compaction, crash safety.

The contract under test: an engine ingesting through the mutable tail answers
every query type with the brute-force answers over the same raw
trajectories (:mod:`brute_force`) — before compaction (tail-only), after
compaction (sealed
partitions), after a save/load round-trip, while a background compaction is
racing concurrent queries, and after a crash injected at the compaction swap
point (which must leave the pre-swap view serving and loadable).  Tail
appends never pay a suffix sort, and a background compaction bumps only the
compacted shard's epoch.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.error
import urllib.request

import brute_force
import numpy as np
import pytest

from repro.core import partitioned as partitioned_module
from repro.core.partitioned import COMPACTION_SWAP_STAGE, PartitionedCiNCT
from repro.engine import CountQuery, EngineConfig, build_engine
from repro.exceptions import QueryError
from repro.io import load_index
from repro.reliability import faults
from repro.service import (
    ServiceConfig,
    TrajectoryService,
    ingest_from_json,
    serve_in_background,
)
from repro.trajectories import Trajectory


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear_faults()
    yield
    faults.clear_faults()


def _make_trajectories(n, seed=42):
    """Overlapping timestamped ring walks so probe paths repeat."""
    rng = np.random.default_rng(seed)
    ring = [f"e{i}" for i in range(10)]
    trajectories = []
    for _ in range(n):
        length = int(rng.integers(4, 9))
        start = int(rng.integers(0, len(ring)))
        walk = [ring[(start + step) % len(ring)] for step in range(length)]
        departure = float(rng.uniform(0, 200))
        dwell = rng.uniform(2, 10, size=length)
        trajectories.append(
            Trajectory(edges=walk, timestamps=list(departure + np.cumsum(dwell) - dwell[0]))
        )
    return trajectories


SEED_BATCH = _make_trajectories(6, seed=7)
STREAM_BATCHES = [_make_trajectories(3, seed=s) for s in (11, 12, 13, 14)]
ALL_TRAJECTORIES = SEED_BATCH + [t for batch in STREAM_BATCHES for t in batch]

PROBE_PATHS = [["e0", "e1"], ["e3", "e4", "e5"], ["e9", "e0"], ["e7"]]


def assert_parity(engine, trajectories=ALL_TRAJECTORIES):
    """Every query type gives the brute-force answer over ``trajectories``."""
    assert engine.n_trajectories == len(trajectories)
    for path in PROBE_PATHS:
        expected = brute_force.locate(trajectories, path)
        assert engine.count(path) == len(expected), path
        assert engine.contains(path) == bool(expected), path
        assert sorted(brute_force.as_tuples(engine.locate(path))) == expected, path
        windowed = brute_force.as_tuples(engine.strict_path(path, 0.0, 1e9))
        assert sorted(windowed) == brute_force.locate(trajectories, path, 0.0, 1e9), path
    if engine.spec.supports_extract:  # partitioned backends don't extract
        for row in (0, len(trajectories) // 2, len(trajectories) - 1):
            assert engine.extract(row, 3) == brute_force.extract(trajectories, row, 3), row


def _tail_config(num_shards=1, **overrides):
    base = dict(
        backend="partitioned-cinct",
        sa_sample_rate=4,
        num_shards=num_shards,
        shard_executor="serial" if num_shards > 1 else "threads",
        tail_max_trajectories=10_000,
        compaction="inline",
    )
    base.update(overrides)
    return EngineConfig(**base)


def _ingest_stream(engine):
    for batch in STREAM_BATCHES:
        engine.add_batch(batch)


class TestLifecycleParity:
    """All query types x sharded/unsharded x pre/post-compaction x reload."""

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_pre_compaction_tail_only(self, num_shards):
        engine = build_engine(SEED_BATCH, _tail_config(num_shards))
        _ingest_stream(engine)
        ingest = engine.stats()["ingest"]
        assert ingest["tail"]["trajectories"] == len(ALL_TRAJECTORIES)
        assert ingest["compaction"]["count"] == 0
        assert_parity(engine)

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_post_compaction(self, num_shards):
        engine = build_engine(
            SEED_BATCH, _tail_config(num_shards, tail_max_trajectories=4)
        )
        _ingest_stream(engine)
        ingest = engine.stats()["ingest"]
        assert ingest["compaction"]["count"] >= 1
        assert_parity(engine)

    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize("tail_max", [10_000, 4])
    def test_post_reload(self, num_shards, tail_max, tmp_path):
        engine = build_engine(
            SEED_BATCH, _tail_config(num_shards, tail_max_trajectories=tail_max)
        )
        _ingest_stream(engine)
        before = engine.stats()["ingest"]
        engine.save(tmp_path / "index")
        reloaded = load_index(tmp_path / "index")
        after = reloaded.stats()["ingest"]
        assert after["tail"]["trajectories"] == before["tail"]["trajectories"]
        assert_parity(reloaded)

    def test_reloaded_tail_keeps_growing(self, tmp_path):
        engine = build_engine(SEED_BATCH, _tail_config())
        engine.save(tmp_path / "index")
        reloaded = load_index(tmp_path / "index")
        _ingest_stream(reloaded)
        assert_parity(reloaded)


class TestNoSuffixSortOnAppend:
    def test_tail_append_never_builds_bwt(self, monkeypatch):
        engine = build_engine(SEED_BATCH, _tail_config())

        def _forbidden(*args, **kwargs):
            raise AssertionError("tail add_batch must not run a suffix sort")

        monkeypatch.setattr(
            partitioned_module, "burrows_wheeler_transform", _forbidden
        )
        _ingest_stream(engine)  # O(batch) appends only
        assert engine.count(["e0", "e1"]) == brute_force.count(ALL_TRAJECTORIES, ["e0", "e1"])

    def test_legacy_path_still_builds_bwt(self, monkeypatch):
        engine = build_engine(SEED_BATCH, EngineConfig(backend="partitioned-cinct"))

        def _forbidden(*args, **kwargs):
            raise AssertionError("boom")

        monkeypatch.setattr(
            partitioned_module, "burrows_wheeler_transform", _forbidden
        )
        with pytest.raises(AssertionError, match="boom"):
            engine.add_batch(STREAM_BATCHES[0])


class TestBackgroundCompaction:
    def test_parity_after_background_compaction(self):
        engine = build_engine(
            SEED_BATCH, _tail_config(tail_max_trajectories=4, compaction="background")
        )
        _ingest_stream(engine)
        assert engine.wait_for_compaction(timeout=30.0)
        assert engine.stats()["ingest"]["compaction"]["count"] >= 1
        assert_parity(engine)

    def test_bumps_only_the_compacted_shards_epoch(self):
        config = _tail_config(
            num_shards=3, tail_max_trajectories=3, compaction="background"
        )
        engine = build_engine(SEED_BATCH[:3], config)  # one trajectory per shard
        assert engine.wait_for_compaction(timeout=30.0)
        base = list(engine.epochs)
        # Round-robin by global id: ids 3,4,5,6 land on shards 0,1,2,0 —
        # only shard 0 reaches the 3-trajectory threshold and compacts.
        for trajectory in ALL_TRAJECTORIES[3:7]:
            engine.add_batch([trajectory])
        assert engine.wait_for_compaction(timeout=30.0)
        deltas = [epoch - b for epoch, b in zip(engine.epochs, base)]
        per_shard = engine.stats()["ingest"]["shards"]
        compactions = [entry["compaction"]["count"] for entry in per_shard]
        assert compactions == [1, 0, 0]
        # Every shard's epoch moved by its own adds + its own compactions —
        # the background swap bumped only the compacted shard, and the
        # untouched shards' epochs (and caches) survived.
        adds = [2, 1, 1]
        assert deltas == [a + c for a, c in zip(adds, compactions)]

    def test_consistent_counts_under_concurrent_queries(self):
        engine = build_engine(
            SEED_BATCH, _tail_config(tail_max_trajectories=4, compaction="background")
        )
        probe = ["e0", "e1"]
        # Valid answers are exactly the prefix counts: after the seed batch,
        # then after each streamed batch.  Any other observation means a
        # query saw a torn (mid-swap or double-counted) view.
        prefixes = [SEED_BATCH]
        for batch in STREAM_BATCHES:
            prefixes.append(prefixes[-1] + batch)
        valid = {brute_force.count(prefix, probe) for prefix in prefixes}
        observed = []
        errors = []
        stop = threading.Event()

        def _query_loop():
            while not stop.is_set():
                try:
                    results = engine.run_many([CountQuery(probe)] * 3)
                except Exception as error:  # noqa: BLE001 - recorded for the assert
                    errors.append(error)
                    return
                observed.extend(result.count for result in results)

        thread = threading.Thread(target=_query_loop)
        thread.start()
        try:
            _ingest_stream(engine)
            assert engine.wait_for_compaction(timeout=30.0)
        finally:
            stop.set()
            thread.join(timeout=30.0)
        assert not errors, errors
        assert observed, "query thread never ran"
        assert set(observed) <= valid, (set(observed), valid)
        assert engine.count(probe) == brute_force.count(ALL_TRAJECTORIES, probe)


class TestCacheFillAcrossIngest:
    def test_read_overlapping_add_batch_caches_nothing_stale(self, monkeypatch):
        """A count computed before an ingest must not be served after it.

        The wrapped backend call finishes computing, then an ingest lands
        (bumping the epoch and emptying the caches) before the executor
        writes the payload back; that write must be dropped.
        """
        path = ["a", "b", "c"]
        engine = build_engine([path, path, ["c", "d"]], _tail_config())
        backend = engine.shards[0].backend
        original = backend.count_many
        ingested = []

        def count_then_ingest(*args, **kwargs):
            counts = original(*args, **kwargs)
            if not ingested:
                ingested.append(True)
                engine.add_batch([path])
            return counts

        monkeypatch.setattr(backend, "count_many", count_then_ingest)
        # The overlapping read may answer for the pre-ingest prefix ...
        assert engine.run(CountQuery(path)).count == 2
        # ... but every read after the ingest sees it.
        assert engine.run(CountQuery(path)).count == 3
        assert engine.count(path) == 3


class TestCrashMidCompaction:
    def test_crash_at_swap_keeps_serving_and_loadable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SAVE_CRASH", COMPACTION_SWAP_STAGE)
        faults.reload_env()
        engine = build_engine(SEED_BATCH, _tail_config(tail_max_trajectories=4))
        _ingest_stream(engine)  # every seal attempt dies at the swap point
        ingest = engine.stats()["ingest"]
        assert ingest["compaction"]["count"] == 0
        assert ingest["compaction"]["failures"] >= 1
        assert ingest["tail"]["trajectories"] == len(ALL_TRAJECTORIES)
        assert_parity(engine)  # pre-swap view still serves
        engine.save(tmp_path / "index")
        monkeypatch.delenv("REPRO_SAVE_CRASH")
        faults.clear_faults()
        reloaded = load_index(tmp_path / "index")
        assert_parity(reloaded)
        # With the fault gone the next batch seals the backlog successfully.
        reloaded.add_batch(_make_trajectories(2, seed=99))
        assert reloaded.stats()["ingest"]["compaction"]["count"] >= 1

    def test_crash_then_recovery_in_process(self):
        partitioned = PartitionedCiNCT(tail_max_trajectories=3, sa_sample_rate=4)
        with faults.save_crash(COMPACTION_SWAP_STAGE):
            partitioned.add_batch([["a", "b", "c"], ["b", "c"], ["c", "a"]])
        stats = partitioned.ingest_stats()
        assert stats["compaction"]["failures"] == 1
        assert stats["compaction"]["last_error"]
        assert partitioned.count(["b", "c"]) == 2
        partitioned.add_batch([["a", "b"]])  # fault cleared: seal succeeds
        assert partitioned.ingest_stats()["compaction"]["count"] == 1
        assert partitioned.count(["b", "c"]) == 2
        assert partitioned.count(["a", "b"]) == 2  # t0 and the new t3


class TestIngestProtocol:
    def test_parses_typed_trajectories(self):
        batch = ingest_from_json(
            {
                "trajectories": [
                    {"edges": ["e1", "e2"], "timestamps": [0, 30.5]},
                    {"edges": [7, 8]},
                ]
            }
        )
        assert [t.edges for t in batch] == [["e1", "e2"], [7, 8]]
        assert batch[0].timestamps == [0.0, 30.5]
        assert batch[1].timestamps is None

    @pytest.mark.parametrize(
        "document",
        [
            None,
            [],
            {},
            {"trajectories": []},
            {"trajectories": [["e1"]]},
            {"trajectories": [{"edges": []}]},
            {"trajectories": [{"edges": ["e1", True]}]},
            {"trajectories": [{"edges": ["e1"], "timestamps": [1.0, 2.0]}]},
            {"trajectories": [{"edges": ["e1"], "timestamps": ["soon"]}]},
        ],
    )
    def test_rejects_malformed_documents(self, document):
        with pytest.raises(QueryError):
            ingest_from_json(document)


def _post(url, document):
    request = urllib.request.Request(
        url,
        data=json.dumps(document).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestIngestOverHttp:
    def test_ingested_batch_is_immediately_queryable(self):
        engine = build_engine(SEED_BATCH, _tail_config(tail_max_trajectories=8))
        service_config = ServiceConfig(port=0, batch_window_ms=1)
        with serve_in_background(engine, service_config) as handle:
            before = engine.count(["e0", "e1"])
            status, body = _post(
                handle.url + "/ingest",
                {"trajectories": [{"edges": ["e0", "e1"], "timestamps": [0.0, 5.0]}]},
            )
            assert status == 200
            assert body["added"] == 1
            assert body["n_trajectories"] == len(SEED_BATCH) + 1
            status, answer = _post(
                handle.url + "/query", {"type": "count", "path": ["e0", "e1"]}
            )
            assert status == 200
            assert answer["count"] == before + 1
            # Push past the tail threshold: /stats must show the compaction.
            for batch in STREAM_BATCHES:
                status, _ = _post(
                    handle.url + "/ingest",
                    {"trajectories": [{"edges": list(t.edges)} for t in batch]},
                )
                assert status == 200
            with urllib.request.urlopen(handle.url + "/stats", timeout=30) as response:
                stats = json.loads(response.read())
            assert stats["engine"]["ingest"]["compaction"]["count"] >= 1
            service_ingest = stats["service"]["ingest"]
            assert service_ingest["batches"] == 1 + len(STREAM_BATCHES)
            assert service_ingest["trajectories"] == 1 + sum(
                len(batch) for batch in STREAM_BATCHES
            )

    def test_malformed_and_misrouted_ingest(self):
        engine = build_engine(SEED_BATCH, _tail_config())
        with serve_in_background(engine, ServiceConfig(port=0)) as handle:
            status, body = _post(handle.url + "/ingest", {"trajectories": []})
            assert status == 400
            assert body["reason"] == "bad_request"
            status, body = _post(
                handle.url + "/ingest",
                {"trajectories": [{"edges": ["e1", "e2"], "timestamps": [9.0, 1.0]}]},
            )
            assert status == 400  # decreasing timestamps -> ConstructionError
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(handle.url + "/ingest", timeout=30)
            assert excinfo.value.code == 405

    def test_ingest_sheds_while_draining(self):
        engine = build_engine(SEED_BATCH, _tail_config())

        async def scenario():
            service = TrajectoryService(engine, ServiceConfig(port=0))
            await service.coalescer.aclose()
            return await service._handle_ingest(
                b'{"trajectories": [{"edges": ["e1"]}]}'
            )

        status, body = asyncio.run(scenario())
        assert status == 503
        assert body["reason"] == "shutdown"
        assert body["retriable"] is True
