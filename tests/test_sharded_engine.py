"""Sharded fleet layer: routing, bit-identical fan-out/merge, shard caches.

The contract under test: a :class:`ShardedTrajectoryEngine` over any
locate-capable backend answers every query — scalar and ``run_many``, pre and
post growth, pre and post reload — bit-identically to an unsharded
:class:`TrajectoryEngine` built over the same fleet in the same order, while
growth on one shard leaves the other shards' cached plans untouched.
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
    ShardRouter,
    ShardedTrajectoryEngine,
    StrictPathQuery,
    TrajectoryEngine,
    available_backends,
    backend_spec,
    build_engine,
    sample_paths,
)
from repro.exceptions import ConstructionError, QueryError
from repro.io import load_index
from repro.network import grid_network
from repro.trajectories import TrajectoryDataset, straight_biased_walks

LOCATE_BACKENDS = [
    name for name in available_backends() if backend_spec(name).supports_locate
]
SHARD_COUNTS = (1, 3)


@pytest.fixture(scope="module")
def fleet_dataset():
    """A timestamped fleet on a grid network, shared by every backend."""
    network = grid_network(5, 5)
    rng = np.random.default_rng(41)
    trajectories = straight_biased_walks(
        network, n_trajectories=22, min_length=5, max_length=12, rng=rng
    )
    for trajectory in trajectories:
        departure = float(rng.uniform(0, 400))
        dwell = rng.uniform(4, 16, size=len(trajectory.edges))
        trajectory.timestamps = list(departure + np.cumsum(dwell) - dwell[0])
    return TrajectoryDataset(name="shard-fleet", trajectories=trajectories, network=network)


@pytest.fixture(scope="module")
def growth_batch(fleet_dataset):
    network = fleet_dataset.network
    rng = np.random.default_rng(43)
    trajectories = straight_biased_walks(
        network, n_trajectories=5, min_length=5, max_length=9, rng=rng
    )
    for trajectory in trajectories:
        departure = float(rng.uniform(500, 800))
        dwell = rng.uniform(4, 16, size=len(trajectory.edges))
        trajectory.timestamps = list(departure + np.cumsum(dwell) - dwell[0])
    return trajectories


def _config(backend, num_shards, **kwargs):
    return EngineConfig(
        backend=backend,
        block_size=31,
        sa_sample_rate=8,
        num_shards=num_shards,
        **kwargs,
    )


def assert_query_parity(sharded, unsharded, fleet_dataset, seed=5):
    """Scalar and batched answers must be bit-identical between the engines."""
    paths = sample_paths(fleet_dataset, 2, 4, seed=seed)
    paths += sample_paths(fleet_dataset, 4, 4, seed=seed + 1)
    paths += [list(reversed(path)) for path in paths[:3]]  # mostly non-occurring
    for path in paths:
        assert sharded.count(path) == unsharded.count(path), path
        assert sharded.contains(path) == unsharded.contains(path), path
        assert sharded.locate(path) == unsharded.locate(path), path
        assert sharded.strict_path(path) == unsharded.strict_path(path), path
    assert sharded.count_many(paths) == unsharded.count_many(paths)
    # A windowed strict-path query anchored on a real traversal.
    for path in paths:
        full = unsharded.strict_path(path)
        if full:
            window = (full[0].start_time, full[0].end_time)
            assert sharded.strict_path(path, *window) == unsharded.strict_path(
                path, *window
            )
            break
    queries = [
        CountQuery(paths[0]),
        StrictPathQuery(paths[1]),
        ContainsQuery(paths[0]),
        LocateQuery(paths[2]),
        CountQuery(paths[0]),
        StrictPathQuery(paths[3], 0.0, 1e9),
        ContainsQuery(list(reversed(paths[4]))),
    ]
    assert sharded.run_many(queries) == unsharded.run_many(queries)


@pytest.mark.parametrize("shard_executor", ["threads", "processes"])
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("backend", LOCATE_BACKENDS)
class TestShardParity:
    @staticmethod
    def _sharded(fleet_dataset, backend, num_shards, shard_executor):
        if num_shards == 1 and shard_executor != "threads":
            pytest.skip("unsharded engines have no fan-out executor")
        return build_engine(
            fleet_dataset, _config(backend, num_shards, shard_executor=shard_executor)
        )

    def test_scalar_and_batched_queries(
        self, fleet_dataset, backend, num_shards, shard_executor
    ):
        sharded = self._sharded(fleet_dataset, backend, num_shards, shard_executor)
        unsharded = TrajectoryEngine.build(fleet_dataset, _config(backend, 1))
        if num_shards == 1:
            assert isinstance(sharded, TrajectoryEngine)
        else:
            assert isinstance(sharded, ShardedTrajectoryEngine)
            assert sharded.num_shards == num_shards
            assert sharded.n_trajectories == unsharded.n_trajectories
            assert sharded.executor_info()["mode"] == shard_executor
        assert_query_parity(sharded, unsharded, fleet_dataset)
        if num_shards > 1:
            sharded.close()

    def test_parity_survives_reload(
        self, fleet_dataset, backend, num_shards, shard_executor, tmp_path
    ):
        sharded = self._sharded(fleet_dataset, backend, num_shards, shard_executor)
        unsharded = TrajectoryEngine.build(fleet_dataset, _config(backend, 1))
        sharded.save(tmp_path / "fleet")
        reloaded = load_index(tmp_path / "fleet")
        assert type(reloaded) is type(sharded)
        assert reloaded.config == sharded.config
        assert_query_parity(reloaded, unsharded, fleet_dataset, seed=7)
        if num_shards > 1:
            sharded.close()
            reloaded.close()

    def test_parity_survives_growth_and_reload(
        self, fleet_dataset, growth_batch, backend, num_shards, shard_executor, tmp_path
    ):
        if not backend_spec(backend).supports_growth:
            pytest.skip(f"{backend} cannot grow")
        sharded = self._sharded(fleet_dataset, backend, num_shards, shard_executor)
        unsharded = TrajectoryEngine.build(fleet_dataset, _config(backend, 1))
        sharded.add_batch(growth_batch)
        unsharded.add_batch(growth_batch)
        assert sharded.n_trajectories == unsharded.n_trajectories
        assert_query_parity(sharded, unsharded, fleet_dataset, seed=9)
        # Matches on grown trajectories resolve to the same global ids.
        probe = list(growth_batch[0].edges[:3])
        assert sharded.locate(probe) == unsharded.locate(probe)
        sharded.save(tmp_path / "grown")
        reloaded = load_index(tmp_path / "grown")
        assert_query_parity(reloaded, unsharded, fleet_dataset, seed=11)
        reloaded.add_batch(growth_batch[:2])
        unsharded.add_batch(growth_batch[:2])
        assert_query_parity(reloaded, unsharded, fleet_dataset, seed=13)
        if num_shards > 1:
            sharded.close()
            reloaded.close()


@pytest.mark.parametrize("backend", ["cinct", "icb-huff"])
def test_extract_row_space_concatenates_shards(fleet_dataset, backend):
    sharded = ShardedTrajectoryEngine.build(fleet_dataset, _config(backend, 3))
    assert sharded.length == sum(shard.length for shard in sharded.shards)
    offset = 0
    for shard in sharded.shards:
        for local_row in (0, shard.length // 2, shard.length - 1):
            assert sharded.extract(offset + local_row, 3) == shard.extract(local_row, 3)
        offset += shard.length
    # run_many routes each extraction to exactly one shard.
    rows = [0, sharded.length // 2, sharded.length - 1]
    batched = sharded.run_many([ExtractQuery(row=row, length=4) for row in rows])
    assert [list(result.edges) for result in batched] == [
        sharded.extract(row, 4) for row in rows
    ]
    # Returned symbols are globalised: decoding them against the *fleet*
    # alphabet must agree with the result's edges (shard-local ids would
    # silently decode to different edges).
    for result in batched:
        for symbol, edge in zip(result.symbols, result.edges):
            if sharded.alphabet.is_edge_symbol(symbol):
                assert sharded.alphabet.decode(symbol) == edge


class TestShardRouter:
    def test_round_robin_bijection(self):
        router = ShardRouter(4)
        for global_id in range(100):
            shard = router.shard_of(global_id)
            local = router.local_of(global_id)
            assert shard == global_id % 4
            assert router.global_of(shard, local) == global_id

    def test_split_is_stable_across_batches(self):
        router = ShardRouter(3)
        one_shot = router.split(list(range(10)), first_global_id=0)
        streamed = [list() for _ in range(3)]
        for start, stop in ((0, 4), (4, 7), (7, 10)):
            chunk = list(range(start, stop))
            for shard, items in enumerate(router.split(chunk, first_global_id=start)):
                streamed[shard].extend(items)
        assert streamed == one_shot

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ConstructionError, match="num_shards"):
            ShardRouter(0)


class TestShardScopedInvalidation:
    def test_growth_on_one_shard_keeps_other_caches(self, fleet_dataset, growth_batch):
        engine = ShardedTrajectoryEngine.build(
            fleet_dataset, _config("partitioned-cinct", 3)
        )
        paths = sample_paths(fleet_dataset, 3, 12, seed=21)
        engine.count_many(paths)  # fill every shard's cache
        warm_sizes = [shard.cache_stats()["size"] for shard in engine.shards]
        assert all(size > 0 for size in warm_sizes)

        # One new trajectory routes to exactly one shard...
        target = engine.router.shard_of(engine.n_trajectories)
        epochs_before = engine.epochs
        engine.add_batch([growth_batch[0]])
        assert engine.epochs == tuple(
            epoch + (1 if shard == target else 0)
            for shard, epoch in enumerate(epochs_before)
        )
        # ...so only that shard's cache is invalidated.
        for shard_id, shard in enumerate(engine.shards):
            stats = shard.cache_stats()
            if shard_id == target:
                assert stats["invalidations"] == 1
                assert stats["size"] == 0
            else:
                assert stats["invalidations"] == 0
                assert stats["size"] == warm_sizes[shard_id]

        # The replay is answered from the untouched shards' warm entries
        # (every plan they are asked again is a hit) and stays correct.
        hits_before = [shard.cache_stats()["hits"] for shard in engine.shards]
        misses_before = [shard.cache_stats()["misses"] for shard in engine.shards]
        fresh = TrajectoryEngine.build(
            list(fleet_dataset.trajectories) + [growth_batch[0]],
            _config("partitioned-cinct", 1, cache_size=0),
        )
        assert engine.count_many(paths) == fresh.count_many(paths)
        for shard_id, shard in enumerate(engine.shards):
            stats = shard.cache_stats()
            if shard_id != target:
                assert stats["misses"] == misses_before[shard_id]
                assert stats["hits"] > hits_before[shard_id]

    def test_fleet_cache_stats_aggregate(self, fleet_dataset):
        engine = ShardedTrajectoryEngine.build(fleet_dataset, _config("cinct", 3))
        paths = sample_paths(fleet_dataset, 3, 6, seed=23)
        engine.count_many(paths)
        engine.count_many(paths)
        merged = engine.cache_stats()
        per_shard = engine.shard_cache_stats()
        for key in ("hits", "misses", "size", "capacity"):
            assert merged[key] == sum(stats[key] for stats in per_shard)
        assert merged["enabled"]
        engine.disable_cache()
        assert not engine.cache_stats()["enabled"]
        assert engine.cache_stats()["size"] == 0


class TestShardedPersistenceLayout:
    def test_manifest_and_shard_subdirectories(self, fleet_dataset, tmp_path):
        engine = ShardedTrajectoryEngine.build(fleet_dataset, _config("cinct", 3))
        engine.save(tmp_path / "fleet")
        document = json.loads(
            (tmp_path / "fleet" / "engine.json").read_text(encoding="utf-8")
        )
        assert document["format_version"] == 6
        assert document["num_shards"] == 3
        assert document["shards"] == ["shard_00", "shard_01", "shard_02"]
        for name in document["shards"]:
            shard_doc = json.loads(
                (tmp_path / "fleet" / name / "engine.json").read_text(encoding="utf-8")
            )
            assert shard_doc["config"]["num_shards"] == 1
            # Every shard directory is itself a loadable single engine.
            assert isinstance(load_index(tmp_path / "fleet" / name), TrajectoryEngine)

    def test_empty_shards_round_trip_as_null_entries(self, tmp_path):
        # Two trajectories over three shards: shard 2 is never populated.
        engine = ShardedTrajectoryEngine.build(
            [["a", "b", "c"], ["b", "c", "d"]], _config("cinct", 3)
        )
        assert engine.shards[2] is None
        assert engine.count(["b", "c"]) == 2
        engine.save(tmp_path / "sparse")
        document = json.loads(
            (tmp_path / "sparse" / "engine.json").read_text(encoding="utf-8")
        )
        assert document["shards"][2] is None
        reloaded = load_index(tmp_path / "sparse")
        assert reloaded.shards[2] is None
        assert reloaded.count(["b", "c"]) == 2

    def test_load_classmethod_returns_either_layout(self, fleet_dataset, tmp_path):
        # The load entry point returns whatever the directory holds: the flat
        # one-shard layout or the fleet layout.
        TrajectoryEngine.build(fleet_dataset, _config("cinct", 1)).save(tmp_path / "one")
        one = ShardedTrajectoryEngine.load(tmp_path / "one")
        assert type(one) is TrajectoryEngine and one.num_shards == 1
        sharded = ShardedTrajectoryEngine.build(fleet_dataset, _config("cinct", 2))
        sharded.save(tmp_path / "two")
        two = ShardedTrajectoryEngine.load(tmp_path / "two")
        assert type(two) is TrajectoryEngine and two.num_shards == 2
        assert_query_parity(two, one, fleet_dataset, seed=31)
        two.close()

    def test_corrupt_manifest_rejected(self, fleet_dataset, tmp_path):
        engine = ShardedTrajectoryEngine.build(fleet_dataset, _config("cinct", 2))
        engine.save(tmp_path / "fleet")
        document_path = tmp_path / "fleet" / "engine.json"
        document = json.loads(document_path.read_text(encoding="utf-8"))
        document["num_shards"] = 5
        document_path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ConstructionError, match="shard manifest"):
            load_index(tmp_path / "fleet")


class TestShardedConstruction:
    def test_build_accepts_any_shard_count(self, fleet_dataset):
        # num_shards=4 builds a four-shard engine of the one engine class,
        # answering like the one-shard engine.
        engine = TrajectoryEngine.build(fleet_dataset, _config("cinct", 4))
        unsharded = TrajectoryEngine.build(fleet_dataset, _config("cinct", 1))
        assert type(engine) is type(unsharded) is TrajectoryEngine
        assert engine.num_shards == len(engine.shards) == 4
        assert_query_parity(engine, unsharded, fleet_dataset, seed=33)
        engine.close()

    def test_config_names_must_match_shards(self, fleet_dataset):
        inner = TrajectoryEngine.build(fleet_dataset, _config("cinct", 1))
        with pytest.raises(ConstructionError, match="shards"):
            ShardedTrajectoryEngine([inner], _config("cinct", 2), inner.alphabet)

    def test_shard_workers_one_forces_sequential_fanout(self, fleet_dataset):
        engine = ShardedTrajectoryEngine.build(
            fleet_dataset, _config("cinct", 3, shard_workers=1)
        )
        unsharded = TrajectoryEngine.build(fleet_dataset, _config("cinct", 1))
        assert_query_parity(engine, unsharded, fleet_dataset, seed=25)
        assert engine._pool is None  # never spun up

    def test_close_and_context_manager(self, fleet_dataset):
        with ShardedTrajectoryEngine.build(fleet_dataset, _config("cinct", 2)) as engine:
            paths = sample_paths(fleet_dataset, 3, 4, seed=27)
            engine.count_many(paths)
        assert engine._pool is None
        # Still queryable after close (fan-out recreates the pool on demand).
        assert engine.count_many(paths) == engine.count_many(paths)
        engine.close()

    def test_windowed_strict_path_on_partially_timestamped_fleet(self):
        # Trajectory 1 (and with it a whole shard) carries no timestamps: the
        # fan-out must skip that shard — not let its planner reject the
        # window — and stay bit-identical to the unsharded engine.
        from repro.trajectories import Trajectory

        fleet = [
            Trajectory(edges=["a", "b", "c"], timestamps=[0.0, 5.0, 10.0]),
            Trajectory(edges=["a", "b", "d"]),
            Trajectory(edges=["a", "b", "e"], timestamps=[100.0, 105.0, 110.0]),
        ]
        sharded = ShardedTrajectoryEngine.build(fleet, _config("cinct", 2))
        unsharded = TrajectoryEngine.build(fleet, _config("cinct", 1))
        assert not sharded.shards[1].timestamp_store.any_timestamped
        for window in ((0.0, 10.0), (0.0, 1e9), (50.0, 120.0)):
            assert sharded.strict_path(["a", "b"], *window) == unsharded.strict_path(
                ["a", "b"], *window
            )
        matches = sharded.strict_path(["a", "b"], 0.0, 10.0)
        assert [m.trajectory_id for m in matches] == [0]

    def test_load_reloads_a_fleet_directory(self, fleet_dataset, tmp_path):
        ShardedTrajectoryEngine.build(fleet_dataset, _config("cinct", 2)).save(
            tmp_path / "fleet"
        )
        loaded = TrajectoryEngine.load(tmp_path / "fleet")
        assert loaded.num_shards == 2
        assert isinstance(load_index(tmp_path / "fleet"), ShardedTrajectoryEngine)
        unsharded = TrajectoryEngine.build(fleet_dataset, _config("cinct", 1))
        assert_query_parity(loaded, unsharded, fleet_dataset, seed=35)
        loaded.close()

    def test_timestamps_route_by_global_id(self, fleet_dataset):
        engine = ShardedTrajectoryEngine.build(fleet_dataset, _config("cinct", 3))
        unsharded = TrajectoryEngine.build(fleet_dataset, _config("cinct", 1))
        assert engine.timestamps == unsharded.timestamps
        for global_id in (0, 5, len(fleet_dataset.trajectories) - 1):
            assert engine.timestamps_of(global_id) == unsharded.timestamps_of(global_id)
        with pytest.raises(QueryError, match="trajectory id 10000 out of range"):
            engine.timestamps_of(10_000)

    def test_growth_capable_fleet_starts_empty(self, growth_batch):
        engine = ShardedTrajectoryEngine.build([], _config("partitioned-cinct", 3))
        assert engine.n_trajectories == 0
        engine.add_batch(growth_batch)
        unsharded = TrajectoryEngine.build(
            growth_batch, _config("partitioned-cinct", 1)
        )
        probe = list(growth_batch[0].edges[:2])
        assert engine.count(probe) == unsharded.count(probe)
        assert engine.locate(probe) == unsharded.locate(probe)

    def test_consolidate_every_shard(self, fleet_dataset, growth_batch):
        engine = ShardedTrajectoryEngine.build(
            fleet_dataset, _config("partitioned-cinct", 3)
        )
        engine.add_batch(growth_batch)
        assert engine.n_partitions == 6  # two batches landed on every shard
        engine.consolidate()
        assert engine.n_partitions == 3
        unsharded = TrajectoryEngine.build(
            list(fleet_dataset.trajectories) + list(growth_batch),
            _config("partitioned-cinct", 1),
        )
        assert_query_parity(engine, unsharded, fleet_dataset, seed=29)
