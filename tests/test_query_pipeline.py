"""The staged query pipeline: plan -> optimize -> execute, cache, epochs.

Covers the contract the pipeline must honour on every registered backend:
mixed-type ``run_many`` batches (with duplicates) are bit-identical to
sequential ``run`` calls, the result cache serves repeats without changing
answers, growth bumps the engine epoch and invalidates the cache, and the
epoch survives persistence (format version 3; version-2 documents load at
epoch 0).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine import (
    ContainsQuery,
    CountQuery,
    EngineConfig,
    ExtractQuery,
    LocateQuery,
    PlanExecutor,
    QueryPlan,
    StrictPathQuery,
    TrajectoryEngine,
    available_backends,
    backend_spec,
    optimize_plans,
    sample_paths,
)
from repro.exceptions import QueryError
from repro.network import grid_network
from repro.trajectories import TrajectoryDataset, straight_biased_walks

BACKENDS = available_backends()


@pytest.fixture(scope="module")
def fleet_dataset():
    """A timestamped fleet on a grid network, shared by every backend."""
    network = grid_network(5, 5)
    rng = np.random.default_rng(31)
    trajectories = straight_biased_walks(
        network, n_trajectories=24, min_length=5, max_length=13, rng=rng
    )
    for trajectory in trajectories:
        departure = float(rng.uniform(0, 500))
        dwell = rng.uniform(4, 18, size=len(trajectory.edges))
        trajectory.timestamps = list(departure + np.cumsum(dwell) - dwell[0])
    return TrajectoryDataset(name="pipeline-fleet", trajectories=trajectories, network=network)


@pytest.fixture(scope="module")
def growth_batch(fleet_dataset):
    """Extra timestamped trajectories for the growth/epoch cases."""
    network = fleet_dataset.network
    rng = np.random.default_rng(77)
    trajectories = straight_biased_walks(
        network, n_trajectories=6, min_length=5, max_length=10, rng=rng
    )
    for trajectory in trajectories:
        departure = float(rng.uniform(600, 900))
        dwell = rng.uniform(4, 18, size=len(trajectory.edges))
        trajectory.timestamps = list(departure + np.cumsum(dwell) - dwell[0])
    return trajectories


def mixed_workload(engine, fleet_dataset, seed=5):
    """Every query type interleaved, with deliberate duplicates."""
    paths = sample_paths(fleet_dataset, 3, 6, seed=seed)
    window_source = engine.strict_path(paths[0]) or engine.strict_path(paths[1])
    t0, t1 = (0.0, 1e9)
    if window_source and window_source[0].start_time is not None:
        t0, t1 = window_source[0].start_time, window_source[0].end_time
    queries = [
        CountQuery(paths[0]),
        StrictPathQuery(paths[1]),
        ContainsQuery(paths[0]),          # duplicate pattern, different type
        LocateQuery(paths[2]),
        CountQuery(paths[0]),             # literal duplicate
        StrictPathQuery(paths[0], t0, t1),
        ContainsQuery(paths[3]),
        LocateQuery(paths[1]),            # same pattern as the strict-path above
        CountQuery(paths[4]),
        StrictPathQuery(paths[0], 0.0, 1e9),  # same path, different window
        CountQuery(list(reversed(paths[5]))),  # likely non-occurring
    ]
    if backend_spec(engine.backend_name).supports_extract:
        queries[3:3] = [ExtractQuery(row=0, length=4)]
        queries.append(ExtractQuery(row=1, length=4))
        queries.append(ExtractQuery(row=0, length=4))  # duplicate extraction
        queries.append(ExtractQuery(row=2, length=2))  # different length group
    return queries


@pytest.mark.parametrize("backend", BACKENDS)
class TestMixedBatches:
    def test_run_many_bit_identical_to_sequential_run(self, fleet_dataset, backend):
        engine = TrajectoryEngine.build(
            fleet_dataset, EngineConfig(backend=backend, block_size=31, sa_sample_rate=8)
        )
        queries = mixed_workload(engine, fleet_dataset)
        # A cache-less twin provides the sequential reference, so neither
        # side can leak answers to the other through the cache.
        reference = TrajectoryEngine.build(
            fleet_dataset,
            EngineConfig(backend=backend, block_size=31, sa_sample_rate=8, cache_size=0),
        )
        expected = [reference.run(query) for query in queries]
        assert engine.run_many(queries) == expected
        # A second pass is served (partly) from the cache — still identical.
        assert engine.run_many(queries) == expected
        assert engine.cache_stats()["hits"] > 0

    def test_run_many_pre_and_post_growth(self, fleet_dataset, growth_batch, backend):
        if not backend_spec(backend).supports_growth:
            pytest.skip(f"{backend} cannot grow")
        engine = TrajectoryEngine.build(
            fleet_dataset, EngineConfig(backend=backend, block_size=31, sa_sample_rate=8)
        )
        queries = mixed_workload(engine, fleet_dataset)
        pre = engine.run_many(queries)
        assert pre == [engine.run(query) for query in queries]

        engine.add_batch(growth_batch)
        # The growth epoch moved, so cached pre-growth answers must not leak.
        fresh = TrajectoryEngine.build(
            list(fleet_dataset.trajectories) + list(growth_batch),
            EngineConfig(backend=backend, block_size=31, sa_sample_rate=8, cache_size=0),
        )
        post = engine.run_many(queries)
        assert post == [fresh.run(query) for query in queries]
        assert post == [engine.run(query) for query in queries]


class TestCacheSemantics:
    @pytest.fixture()
    def engine(self, fleet_dataset):
        return TrajectoryEngine.build(
            fleet_dataset, EngineConfig(backend="cinct", block_size=31, sa_sample_rate=8)
        )

    def test_repeat_queries_hit_the_cache(self, engine, fleet_dataset):
        path = sample_paths(fleet_dataset, 3, 1, seed=2)[0]
        first = engine.count(path)
        stats = engine.cache_stats()
        assert stats["misses"] >= 1
        assert engine.count(path) == first
        assert engine.cache_stats()["hits"] >= 1

    def test_contains_shares_the_count_plan(self, engine, fleet_dataset):
        path = sample_paths(fleet_dataset, 3, 1, seed=3)[0]
        count = engine.count(path)
        hits_before = engine.cache_stats()["hits"]
        assert engine.contains(path) == (count > 0)
        assert engine.cache_stats()["hits"] == hits_before + 1

    def test_strict_path_windows_share_one_locate_plan(self, engine, fleet_dataset):
        path = sample_paths(fleet_dataset, 3, 1, seed=4)[0]
        unwindowed = engine.strict_path(path)
        hits_before = engine.cache_stats()["hits"]
        engine.strict_path(path, 0.0, 1e9)
        engine.strict_path(path, 0.0, 50.0)
        assert engine.locate(path) == unwindowed
        assert engine.cache_stats()["hits"] == hits_before + 3

    def test_cache_size_zero_disables_caching(self, fleet_dataset):
        engine = TrajectoryEngine.build(
            fleet_dataset, EngineConfig(backend="cinct", cache_size=0)
        )
        path = sample_paths(fleet_dataset, 3, 1, seed=5)[0]
        assert engine.count(path) == engine.count(path)
        stats = engine.cache_stats()
        assert not stats["enabled"]
        assert stats["hits"] == 0 and stats["size"] == 0

    def test_lru_eviction_is_bounded(self, fleet_dataset):
        engine = TrajectoryEngine.build(
            fleet_dataset, EngineConfig(backend="cinct", cache_size=3)
        )
        for path in sample_paths(fleet_dataset, 3, 8, seed=6):
            engine.count(path)
        stats = engine.cache_stats()
        assert stats["size"] <= 3
        assert stats["evictions"] >= 1

    def test_disable_at_runtime(self, engine, fleet_dataset):
        path = sample_paths(fleet_dataset, 3, 1, seed=7)[0]
        engine.count(path)
        engine.shards[0].result_cache.disable()
        assert engine.cache_stats()["size"] == 0
        assert not engine.shards[0].result_cache.enabled
        hits_before = engine.cache_stats()["hits"]
        engine.count(path)
        assert engine.cache_stats()["hits"] == hits_before

    def test_byte_budget_bounds_payload_bytes(self, fleet_dataset):
        # A budget that fits a couple of locate payloads but not many: the
        # byte dimension must evict even though the entry count is nowhere
        # near the cache_size bound.
        engine = TrajectoryEngine.build(
            fleet_dataset,
            EngineConfig(
                backend="cinct", sa_sample_rate=8, cache_size=1024, cache_max_bytes=600
            ),
        )
        for path in sample_paths(fleet_dataset, 2, 10, seed=12):
            engine.locate(path)
        stats = engine.cache_stats()
        assert stats["max_bytes"] == 600
        assert stats["payload_bytes"] <= 600
        assert stats["size"] < 10  # far below the entry bound, bytes evicted
        assert stats["evictions"] >= 1

    def test_oversized_payload_is_never_stored(self, fleet_dataset):
        # A single payload bigger than the whole budget is not cached at all
        # (storing it would evict everything and still not fit).
        engine = TrajectoryEngine.build(
            fleet_dataset,
            EngineConfig(
                backend="cinct", sa_sample_rate=8, cache_size=1024, cache_max_bytes=100
            ),
        )
        path = sample_paths(fleet_dataset, 2, 1, seed=13)[0]
        assert engine.count(path) >= 0  # an int payload fits the budget
        assert engine.cache_stats()["size"] == 1
        matches = engine.locate(path)
        assert len(matches) >= 1  # big match-tuple payload exceeds the budget
        assert engine.cache_stats()["size"] == 1
        assert engine.locate(path) == matches  # still correct, just uncached

    def test_byte_accounting_returns_to_zero_on_invalidation(self, fleet_dataset):
        engine = TrajectoryEngine.build(
            fleet_dataset,
            EngineConfig(
                backend="partitioned-cinct",
                sa_sample_rate=8,
                cache_max_bytes=1 << 20,
            ),
        )
        for path in sample_paths(fleet_dataset, 3, 4, seed=14):
            engine.locate(path)
        assert engine.cache_stats()["payload_bytes"] > 0
        engine.add_batch([["y1", "y2", "y3"]])
        assert engine.cache_stats()["payload_bytes"] == 0
        assert engine.cache_stats()["size"] == 0


class TestContainsKind:
    """The dedicated contains plan reaches backend early-exit paths."""

    @pytest.fixture()
    def engine(self, fleet_dataset):
        engine = TrajectoryEngine.build(
            fleet_dataset,
            EngineConfig(backend="partitioned-cinct", block_size=31, sa_sample_rate=8),
        )
        engine.add_batch(fleet_dataset.trajectories[:4])  # a second partition
        return engine

    @pytest.fixture()
    def spy(self, engine, monkeypatch):
        calls = {"contains": 0, "count_many": 0}
        backend = engine.shards[0].backend
        real_contains, real_count_many = backend.contains, backend.count_many

        def spy_contains(pattern, **kwargs):
            calls["contains"] += 1
            return real_contains(pattern, **kwargs)

        def spy_count_many(patterns, **kwargs):
            calls["count_many"] += 1
            return real_count_many(patterns, **kwargs)

        monkeypatch.setattr(backend, "contains", spy_contains)
        monkeypatch.setattr(backend, "count_many", spy_count_many)
        return calls

    def test_contains_executes_backend_contains_not_count(
        self, engine, fleet_dataset, spy
    ):
        path = sample_paths(fleet_dataset, 3, 1, seed=15)[0]
        assert engine.contains(path)
        assert spy == {"contains": 1, "count_many": 0}

    def test_cached_count_answers_contains_without_backend(
        self, engine, fleet_dataset, spy
    ):
        path = sample_paths(fleet_dataset, 3, 1, seed=16)[0]
        count = engine.count(path)
        assert engine.contains(path) == (count > 0)
        assert spy["contains"] == 0  # served from the count twin in the cache

    def test_same_batch_count_shares_with_contains(self, engine, fleet_dataset, spy):
        path = sample_paths(fleet_dataset, 3, 1, seed=17)[0]
        results = engine.run_many([ContainsQuery(path), CountQuery(path)])
        assert results[0].found == (results[1].count > 0)
        assert spy == {"contains": 0, "count_many": 1}

    def test_contains_batch_runs_one_vectorized_pass(self, engine, fleet_dataset, spy):
        # Several distinct contains misses become one count_many call (not a
        # scalar loop), and the computed counts warm the count twins.
        paths = sample_paths(fleet_dataset, 3, 4, seed=18)
        results = engine.run_many([ContainsQuery(path) for path in paths])
        assert spy == {"contains": 0, "count_many": 1}
        counts = engine.count_many(paths)
        assert spy["count_many"] == 1  # served from the cached count twins
        assert [r.found for r in results] == [count > 0 for count in counts]

    def test_partitioned_contains_encoded_short_circuits(self, engine, fleet_dataset):
        # The any-partition short-circuit: a pattern present in the first
        # partition must never consult the second.
        partitioned = engine.shards[0].backend.partitioned
        consulted = []

        def instrument(partition):
            original = partition.index.contains

            def spy_contains(symbols):
                consulted.append(partition.first_trajectory_id)
                return original(symbols)

            partition.index.contains = spy_contains

        for partition in partitioned.partitions():
            instrument(partition)
        path = list(fleet_dataset.trajectories[0].edges[:2])
        pattern = partitioned.alphabet.encode_path(path)
        assert partitioned.contains_encoded(pattern)
        assert consulted == [0]


class TestEpochs:
    def test_growth_bumps_epoch_and_invalidates(self, fleet_dataset, growth_batch):
        engine = TrajectoryEngine.build(
            fleet_dataset,
            EngineConfig(backend="partitioned-cinct", block_size=31, sa_sample_rate=8),
        )
        assert engine.epoch == 0
        probe = list(growth_batch[0].edges[:2])
        baseline = engine.count(probe)
        engine.add_batch(growth_batch)
        assert engine.epoch == 1
        assert engine.shards[0].result_cache.epoch == 1
        assert engine.cache_stats()["invalidations"] == 1
        # The post-growth answer reflects the new trajectories, not the cache.
        assert engine.count(probe) >= max(baseline, 1)
        engine.consolidate()
        assert engine.epoch == 2

    def test_epoch_persists_at_current_format_version(
        self, fleet_dataset, growth_batch, tmp_path
    ):
        engine = TrajectoryEngine.build(
            fleet_dataset,
            EngineConfig(backend="partitioned-cinct", block_size=31, sa_sample_rate=8),
        )
        engine.add_batch(growth_batch)
        engine.consolidate()
        engine.save(tmp_path / "fleet")
        document = json.loads((tmp_path / "fleet" / "engine.json").read_text(encoding="utf-8"))
        assert document["format_version"] == 6
        assert document["epoch"] == 2
        reloaded = TrajectoryEngine.load(tmp_path / "fleet")
        assert reloaded.epoch == 2
        reloaded.add_batch([["x1", "x2"]])
        assert reloaded.epoch == 3


class TestPlanLayer:
    def test_contains_plans_to_dedicated_kind_with_count_twin(self, fleet_dataset):
        engine = TrajectoryEngine.build(fleet_dataset, EngineConfig(backend="cinct"))
        planner = engine._planner
        path = sample_paths(fleet_dataset, 3, 1, seed=9)[0]
        count_plan = planner.plan(CountQuery(path)).plan
        contains_plan = planner.plan(ContainsQuery(path)).plan
        # A dedicated kind (reaching backend early-exit contains paths) whose
        # count twin names the count plan for cache sharing.
        assert contains_plan.kind == "contains"
        assert contains_plan != count_plan
        assert contains_plan.pattern == count_plan.pattern
        assert contains_plan.count_twin() == count_plan

    def test_strict_path_canonicalizes_to_locate(self, fleet_dataset):
        engine = TrajectoryEngine.build(fleet_dataset, EngineConfig(backend="cinct"))
        planner = engine._planner
        path = sample_paths(fleet_dataset, 3, 1, seed=10)[0]
        locate_plan = planner.plan(LocateQuery(path)).plan
        windowed = planner.plan(StrictPathQuery(path, 0.0, 10.0)).plan
        assert windowed.windowed and not locate_plan.windowed
        assert windowed.canonical() == locate_plan

    def test_planning_raises_before_execution(self, fleet_dataset):
        engine = TrajectoryEngine.build(fleet_dataset, EngineConfig(backend="linear-scan"))
        with pytest.raises(QueryError, match="extract is not supported"):
            engine.run_many([ExtractQuery(row=0, length=2)])
        with pytest.raises(QueryError, match="unsupported query type"):
            engine.run_many([object()])  # type: ignore[list-item]

    def test_invalid_extract_fails_at_plan_time(self, fleet_dataset):
        # An out-of-range extraction aborts the whole batch during normalize:
        # nothing executes, so nothing lands in the cache.
        engine = TrajectoryEngine.build(fleet_dataset, EngineConfig(backend="cinct"))
        path = sample_paths(fleet_dataset, 3, 1, seed=11)[0]
        with pytest.raises(QueryError, match="out of range"):
            engine.run_many([CountQuery(path), ExtractQuery(row=engine.length, length=4)])
        assert engine.cache_stats()["size"] == 0
        with pytest.raises(QueryError, match="non-negative"):
            engine.run(ExtractQuery(row=0, length=-1))

    def test_optimize_groups_and_dedupes(self):
        count_a = QueryPlan("count", pattern=(2, 3))
        count_b = QueryPlan("count", pattern=(3, 4))
        contains_a = QueryPlan("contains", pattern=(2, 3))
        locate = QueryPlan("locate", pattern=(2, 3))
        extract_4 = QueryPlan("extract", row=0, length=4)
        extract_4b = QueryPlan("extract", row=1, length=4)
        extract_2 = QueryPlan("extract", row=0, length=2)
        groups = optimize_plans(
            [
                count_a,
                count_b,
                count_a,
                contains_a,
                contains_a,
                locate,
                extract_4,
                extract_4b,
                extract_4,
                extract_2,
            ]
        )
        assert groups.count == [count_a, count_b]
        assert groups.contains == [contains_a]
        assert groups.locate == [locate]
        assert list(groups.extract) == [4, 2]
        assert groups.extract[4] == [extract_4, extract_4b]
        assert groups.n_plans == 7

    def test_backends_satisfy_the_plan_executor_protocol(self, fleet_dataset):
        for backend in BACKENDS:
            engine = TrajectoryEngine.build(fleet_dataset, EngineConfig(backend=backend))
            assert isinstance(engine.shards[0].backend, PlanExecutor)


def test_available_backends_is_sorted_and_stable():
    assert BACKENDS == sorted(BACKENDS)
    assert available_backends() == BACKENDS
