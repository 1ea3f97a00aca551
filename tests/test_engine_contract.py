"""Engine contract suite: every registered backend answers identically.

The engine facade promises that ``count`` / ``contains`` / ``locate`` /
``extract`` / ``strict_path`` return the same answers on every backend (CiNCT
is the reference), that the batch paths are bit-identical to the scalar ones,
and that the typed ``run``/``run_many`` layer round-trips query objects.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    ContainsQuery,
    ContainsResult,
    CountQuery,
    CountResult,
    EngineConfig,
    ExtractQuery,
    ExtractResult,
    LocateQuery,
    StrictPathQuery,
    TrajectoryEngine,
    available_backends,
    backend_spec,
    build_engine,
    sample_paths,
)
from repro.network import grid_network
from repro.trajectories import TrajectoryDataset, straight_biased_walks

BACKENDS = available_backends()
LOCATE_BACKENDS = [name for name in BACKENDS if backend_spec(name).supports_locate]
REFERENCE = "cinct"
SHARD_COUNTS = (1, 3)


@pytest.fixture(scope="module")
def fleet_dataset():
    """A timestamped fleet on a grid network, shared by every backend."""
    network = grid_network(5, 5)
    rng = np.random.default_rng(7)
    trajectories = straight_biased_walks(
        network, n_trajectories=25, min_length=5, max_length=14, rng=rng
    )
    for trajectory in trajectories:
        departure = float(rng.uniform(0, 600))
        dwell = rng.uniform(5, 20, size=len(trajectory.edges))
        trajectory.timestamps = list(departure + np.cumsum(dwell) - dwell[0])
    return TrajectoryDataset(name="contract-fleet", trajectories=trajectories, network=network)


@pytest.fixture(scope="module")
def engines(fleet_dataset):
    """One engine per registered backend over the shared fleet."""
    return {
        name: TrajectoryEngine.build(
            fleet_dataset,
            EngineConfig(backend=name, block_size=31, sa_sample_rate=8),
        )
        for name in BACKENDS
    }


@pytest.fixture(scope="module")
def probe_paths(fleet_dataset):
    """Sampled real sub-paths plus their reversals (mostly non-occurring)."""
    paths = []
    for length in (2, 3, 5):
        paths.extend(sample_paths(fleet_dataset, length, 5, seed=length))
    paths.extend([list(reversed(path)) for path in paths[:5]])
    return paths


@pytest.mark.parametrize("backend", BACKENDS)
class TestSpatialContract:
    def test_count_matches_reference(self, engines, probe_paths, backend):
        reference = engines[REFERENCE]
        engine = engines[backend]
        for path in probe_paths:
            assert engine.count(path) == reference.count(path), path

    def test_contains_matches_reference(self, engines, probe_paths, backend):
        reference = engines[REFERENCE]
        engine = engines[backend]
        for path in probe_paths:
            assert engine.contains(path) == reference.contains(path), path

    def test_count_many_equals_scalar(self, engines, probe_paths, backend):
        engine = engines[backend]
        assert engine.count_many(probe_paths) == [engine.count(p) for p in probe_paths]

    def test_locate_matches_reference(self, engines, probe_paths, backend):
        reference = engines[REFERENCE]
        engine = engines[backend]
        for path in probe_paths:
            assert engine.locate(path) == reference.locate(path), path

    def test_locate_count_consistency(self, engines, probe_paths, backend):
        # Every occurrence that does not straddle a trajectory boundary is a
        # resolved match, so locate can never return more than count.
        engine = engines[backend]
        for path in probe_paths:
            assert len(engine.locate(path)) <= engine.count(path)

    def test_extract_matches_reference(self, engines, backend):
        if not backend_spec(backend).supports_extract:
            pytest.skip(f"{backend} has no suffix structure to extract from")
        reference = engines[REFERENCE]
        engine = engines[backend]
        rows = [0, 1, engine.length // 2, engine.length - 1]
        for row in rows:
            assert engine.extract(row, 4) == reference.extract(row, 4)

    def test_strict_path_matches_reference(self, engines, probe_paths, backend):
        reference = engines[REFERENCE]
        engine = engines[backend]
        for path in probe_paths[:8]:
            full = engine.strict_path(path)
            assert full == reference.strict_path(path)
            if not full:
                continue
            window = (full[0].start_time, full[0].end_time)
            narrowed = engine.strict_path(path, window[0], window[1])
            assert narrowed == reference.strict_path(path, window[0], window[1])
            assert all(
                match.start_time >= window[0] and match.end_time <= window[1]
                for match in narrowed
            )


@pytest.mark.parametrize("backend", BACKENDS)
def test_run_many_matches_scalar_run(engines, probe_paths, backend):
    engine = engines[backend]
    queries = [CountQuery(probe_paths[0]), ContainsQuery(probe_paths[1])]
    queries += [LocateQuery(probe_paths[2]), StrictPathQuery(probe_paths[3])]
    if backend_spec(backend).supports_extract:
        queries += [ExtractQuery(row=0, length=3), ExtractQuery(row=1, length=3)]
    batched = engine.run_many(queries)
    assert batched == [engine.run(query) for query in queries]


def test_run_returns_typed_results(engines):
    engine = engines[REFERENCE]
    path = engine.shards[0].backend.trajectory_string.trajectory_edges(0)[:2]
    count = engine.run(CountQuery(path))
    assert isinstance(count, CountResult) and count.count >= 1
    found = engine.run(ContainsQuery(path))
    assert isinstance(found, ContainsResult) and found.found
    extracted = engine.run(ExtractQuery(row=0, length=3))
    assert isinstance(extracted, ExtractResult)
    assert len(extracted.symbols) == 3 and len(extracted.edges) == 3


def test_extract_returns_stored_text_order():
    """Extraction reads the stored text, where every trajectory is reversed.

    On a two-trajectory corpus the only marker-free length-3 window is the
    reversed first trajectory, from the batched and the scalar path alike.
    """
    engine = build_engine(
        [["a", "b", "c"], ["d", "e"]], EngineConfig(backend="cinct", cache_size=0)
    )
    rows = range(engine.length)
    batched = engine.run_many([ExtractQuery(row=row, length=3) for row in rows])
    windows = {
        result.edges for result in batched if not {"#", "$"} & set(result.edges)
    }
    assert windows == {("c", "b", "a")}
    assert [list(result.edges) for result in batched] == [
        engine.extract(row, 3) for row in rows
    ]


def test_locate_resolves_real_traversals(engines, fleet_dataset):
    # Each match must point at an actual sub-path of the named trajectory.
    engine = engines[REFERENCE]
    path = list(fleet_dataset.trajectories[3].edges[1:4])
    matches = engine.locate(path)
    assert matches
    for match in matches:
        edges = fleet_dataset.trajectories[match.trajectory_id].edges
        assert list(edges[match.start_edge_index : match.end_edge_index + 1]) == path


@pytest.fixture(scope="module")
def sharded_engines(fleet_dataset):
    """Sharded fleets per (locate-capable backend, shard count)."""
    return {
        (name, num_shards): build_engine(
            fleet_dataset,
            EngineConfig(
                backend=name, block_size=31, sa_sample_rate=8, num_shards=num_shards
            ),
        )
        for name in LOCATE_BACKENDS
        for num_shards in SHARD_COUNTS
    }


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
@pytest.mark.parametrize("backend", LOCATE_BACKENDS)
class TestShardedContract:
    """A sharded fleet answers bit-identically to the unsharded engines."""

    def test_scalar_queries_match_unsharded(
        self, engines, sharded_engines, probe_paths, backend, num_shards
    ):
        reference = engines[backend]
        sharded = sharded_engines[(backend, num_shards)]
        for path in probe_paths:
            assert sharded.count(path) == reference.count(path), path
            assert sharded.contains(path) == reference.contains(path), path
            assert sharded.locate(path) == reference.locate(path), path
        for path in probe_paths[:6]:
            assert sharded.strict_path(path) == reference.strict_path(path), path

    def test_run_many_matches_unsharded(
        self, engines, sharded_engines, probe_paths, backend, num_shards
    ):
        reference = engines[backend]
        sharded = sharded_engines[(backend, num_shards)]
        queries = [
            CountQuery(probe_paths[0]),
            ContainsQuery(probe_paths[1]),
            LocateQuery(probe_paths[2]),
            StrictPathQuery(probe_paths[3]),
            CountQuery(probe_paths[0]),  # duplicate
            StrictPathQuery(probe_paths[2], 0.0, 1e9),
        ]
        assert sharded.run_many(queries) == reference.run_many(queries)


def test_temporal_index_built_for_timestamped_fleet(engines):
    engine = engines[REFERENCE]
    assert engine.shards[0].temporal is not None
    assert engine.shards[0].temporal.n_trajectories == engine.n_trajectories
    assert engine.size_in_bits() > engine.shards[0].backend.size_in_bits()
