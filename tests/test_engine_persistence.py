"""Persistence: save -> load -> query round-trips for every backend variant
(:mod:`engine_variants`), checked against the brute-force answers over the
raw trajectories."""

from __future__ import annotations

import json

import brute_force
import engine_variants
import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    TrajectoryEngine,
    build_engine,
    sample_paths,
)
from repro.exceptions import (
    ConstructionError,
    DatasetError,
    IndexCorruptionError,
    unsupported_format_message,
)
from repro.io import load_index, save_index
from repro.network import grid_network
from repro.trajectories import TrajectoryDataset, straight_biased_walks

VARIANTS = engine_variants.NAMES


@pytest.fixture(scope="module")
def fleet_dataset():
    network = grid_network(5, 5)
    rng = np.random.default_rng(21)
    trajectories = straight_biased_walks(
        network, n_trajectories=20, min_length=5, max_length=12, rng=rng
    )
    for trajectory in trajectories:
        departure = float(rng.uniform(0, 300))
        dwell = rng.uniform(5, 15, size=len(trajectory.edges))
        trajectory.timestamps = list(departure + np.cumsum(dwell) - dwell[0])
    return TrajectoryDataset(name="persist-fleet", trajectories=trajectories, network=network)


@pytest.fixture(scope="module")
def probe_paths(fleet_dataset):
    return sample_paths(fleet_dataset, 3, 8, seed=3)


@pytest.mark.parametrize("variant", VARIANTS)
class TestRoundTrip:
    def test_queries_survive_roundtrip(self, fleet_dataset, probe_paths, tmp_path, variant):
        config = engine_variants.config(variant, block_size=31, sa_sample_rate=8)
        engine = engine_variants.build(variant, fleet_dataset, block_size=31, sa_sample_rate=8)
        engine.save(tmp_path / "index")
        reloaded = TrajectoryEngine.load(tmp_path / "index")
        assert reloaded.backend_name == engine.backend_name
        assert reloaded.config == config
        assert reloaded.n_trajectories == engine.n_trajectories
        assert reloaded.size_in_bits() == engine.size_in_bits()
        for path in probe_paths:
            assert reloaded.count(path) == brute_force.count(fleet_dataset, path)
            expected = brute_force.locate(fleet_dataset, path)
            assert brute_force.as_tuples(reloaded.locate(path)) == expected

    def test_strict_path_survives_roundtrip(self, fleet_dataset, probe_paths, tmp_path, variant):
        engine = engine_variants.build(variant, fleet_dataset, block_size=31, sa_sample_rate=8)
        save_index(engine, tmp_path / "index")
        reloaded = load_index(tmp_path / "index")
        assert reloaded.timestamp_store.n_timestamped == reloaded.n_trajectories
        for path in probe_paths[:4]:
            expected = brute_force.locate(fleet_dataset, path, 0.0, 1e9)
            assert brute_force.as_tuples(reloaded.strict_path(path, 0.0, 1e9)) == expected


@pytest.mark.parametrize("num_shards", (1, 3))
@pytest.mark.parametrize("variant", VARIANTS)
def test_sharded_queries_survive_roundtrip(
    fleet_dataset, probe_paths, tmp_path, variant, num_shards
):
    fields = dict(block_size=31, sa_sample_rate=8, num_shards=num_shards)
    config = engine_variants.config(variant, **fields)
    engine = engine_variants.build(variant, fleet_dataset, **fields)
    engine.save(tmp_path / "fleet")
    reloaded = load_index(tmp_path / "fleet")
    assert type(reloaded) is type(engine)
    assert reloaded.config == config
    assert reloaded.n_trajectories == engine.n_trajectories
    assert reloaded.size_in_bits() == engine.size_in_bits()
    for path in probe_paths:
        assert reloaded.count(path) == brute_force.count(fleet_dataset, path)
        expected = brute_force.locate(fleet_dataset, path)
        assert brute_force.as_tuples(reloaded.locate(path)) == expected
    for path in probe_paths[:4]:
        expected = brute_force.locate(fleet_dataset, path, 0.0, 1e9)
        assert brute_force.as_tuples(reloaded.strict_path(path, 0.0, 1e9)) == expected


def test_sharded_partitioned_growth_survives_roundtrip(fleet_dataset, tmp_path):
    config = EngineConfig(
        backend="partitioned-cinct", block_size=31, sa_sample_rate=8, num_shards=3
    )
    engine = build_engine([], config)
    trajectories = fleet_dataset.trajectories
    engine.add_batch(trajectories[:8])
    engine.add_batch(trajectories[8:])
    engine.save(tmp_path / "fleet")
    reloaded = load_index(tmp_path / "fleet")
    assert reloaded.num_shards == 3
    assert reloaded.epochs == engine.epochs
    probe = list(trajectories[10].edges[:3])
    assert reloaded.count(probe) == engine.count(probe)
    assert reloaded.locate(probe) == engine.locate(probe)
    # The reloaded fleet keeps growing with stable round-robin routing.
    reloaded.add_batch([["x1", "x2", "x3"]])
    assert reloaded.count(["x1", "x2"]) == 1
    assert reloaded.locate(["x1", "x2"])[0].trajectory_id == len(trajectories)
    reloaded.consolidate()
    assert reloaded.count(probe) == engine.count(probe)


def test_partitioned_growth_survives_roundtrip(fleet_dataset, tmp_path):
    config = EngineConfig(backend="partitioned-cinct", block_size=31, sa_sample_rate=8)
    engine = TrajectoryEngine.build([], config)
    trajectories = fleet_dataset.trajectories
    engine.add_batch(trajectories[:8])
    engine.add_batch(trajectories[8:])
    engine.save(tmp_path / "fleet")
    reloaded = TrajectoryEngine.load(tmp_path / "fleet")
    assert reloaded.n_partitions == 2
    probe = list(trajectories[10].edges[:3])
    assert reloaded.count(probe) == engine.count(probe)
    # The reloaded engine keeps growing and consolidating.
    reloaded.add_batch([["x1", "x2", "x3"]])
    assert reloaded.count(["x1", "x2"]) == 1
    reloaded.consolidate()
    assert reloaded.n_partitions == 1
    assert reloaded.count(probe) == engine.count(probe)
    assert reloaded.count(["x1", "x2"]) == 1


def test_engine_json_carries_no_raw_timestamps(fleet_dataset, tmp_path):
    # Timestamps live in the compressed timestamps.npz artefact, never as raw
    # JSON arrays inside engine.json.
    engine = TrajectoryEngine.build(fleet_dataset, EngineConfig(backend="cinct"))
    engine.save(tmp_path / "index")
    document = json.loads((tmp_path / "index" / "engine.json").read_text(encoding="utf-8"))
    assert "timestamps" not in document
    assert document["timestamps_file"] == "timestamps.npz"
    assert (tmp_path / "index" / "timestamps.npz").exists()
    reloaded = TrajectoryEngine.load(tmp_path / "index")
    assert reloaded.timestamps == engine.timestamps
    assert reloaded.timestamp_store.size_in_bits() == engine.timestamp_store.size_in_bits()


def test_missing_timestamp_archive_rejected(fleet_dataset, tmp_path):
    engine = TrajectoryEngine.build(fleet_dataset, EngineConfig(backend="cinct"))
    engine.save(tmp_path / "index")
    (tmp_path / "index" / "timestamps.npz").unlink()
    with pytest.raises(IndexCorruptionError, match="timestamps.npz"):
        load_index(tmp_path / "index")


def test_missing_directory_rejected(tmp_path):
    with pytest.raises(DatasetError):
        load_index(tmp_path / "nothing-here")


@pytest.mark.parametrize("layout", ["format-6", "format-5", "save_cinct"])
def test_older_formats_rejected_with_canonical_error(fleet_dataset, tmp_path, layout):
    # Only format 7 loads; an older document names its version and asks for
    # a rebuild from the trajectories.  Format 6 could hold a retired
    # backend and the retired temporal_index config key.
    target = tmp_path / "index"
    if layout in ("format-6", "format-5"):
        TrajectoryEngine.build(fleet_dataset, EngineConfig(backend="cinct")).save(target)
        document_path = target / "engine.json"
        document = json.loads(document_path.read_text(encoding="utf-8"))
        document["format_version"] = version = int(layout[-1])
        document["config"]["temporal_index"] = True
        document_path.write_text(json.dumps(document), encoding="utf-8")
    else:  # the retired CiNCT-only layout: index.json beside bwt.npz
        target.mkdir()
        version = 1
        (target / "index.json").write_text(json.dumps({"format_version": version}), encoding="utf-8")
        np.savez(target / "bwt.npz", format_version=np.asarray([version]))
    with pytest.raises(ConstructionError) as caught:
        load_index(target)
    assert str(caught.value) == unsupported_format_message(version, 7)
    assert "rebuild the index from its trajectories" in str(caught.value)


def test_corrupted_version_rejected(fleet_dataset, tmp_path):
    engine = TrajectoryEngine.build(fleet_dataset, EngineConfig(backend="cinct"))
    engine.save(tmp_path / "index")
    document_path = tmp_path / "index" / "engine.json"
    document = json.loads(document_path.read_text(encoding="utf-8"))
    document["format_version"] = 999
    document_path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(ConstructionError):
        load_index(tmp_path / "index")


def test_unknown_config_field_rejected(fleet_dataset, tmp_path):
    engine = TrajectoryEngine.build(fleet_dataset, EngineConfig(backend="cinct"))
    engine.save(tmp_path / "index")
    document_path = tmp_path / "index" / "engine.json"
    document = json.loads(document_path.read_text(encoding="utf-8"))
    document["config"]["mystery_knob"] = 5
    document_path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(ConstructionError):
        load_index(tmp_path / "index")
