"""Crash-safe persistence: atomic promotes, checksums, canonical corruption.

The contract under test: ``save_index`` never leaves a directory in a state
``load_index`` would misread — a crash at any artefact-write boundary leaves
the previously promoted index bit-identically loadable (and no staging
litter), a re-save replaces the directory wholesale (no stale shard
artefacts), and any post-save corruption (truncation, bit rot, deletion)
fails the format-7 manifest check with one
:class:`~repro.exceptions.IndexCorruptionError` naming the torn artefact.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine import EngineConfig, TrajectoryEngine, build_engine
from repro.exceptions import IndexCorruptionError
from repro.io import load_index, save_index
from repro.network import grid_network
from repro.reliability import faults
from repro.trajectories import TrajectoryDataset, straight_biased_walks

SHARD_COUNTS = (1, 3)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear_faults()
    yield
    faults.clear_faults()


@pytest.fixture(scope="module")
def fleet_dataset():
    network = grid_network(5, 5)
    rng = np.random.default_rng(83)
    trajectories = straight_biased_walks(
        network, n_trajectories=15, min_length=5, max_length=11, rng=rng
    )
    for trajectory in trajectories:
        departure = float(rng.uniform(0, 300))
        dwell = rng.uniform(4, 16, size=len(trajectory.edges))
        trajectory.timestamps = list(departure + np.cumsum(dwell) - dwell[0])
    return TrajectoryDataset(
        name="persist-reliability", trajectories=trajectories, network=network
    )


@pytest.fixture(scope="module")
def probe_path(fleet_dataset):
    return list(fleet_dataset.trajectories[0].edges[:2])


def _build(fleet_dataset, num_shards):
    return build_engine(
        fleet_dataset, EngineConfig(backend="cinct", num_shards=num_shards)
    )


def _tree(directory):
    """Relative path -> bytes for every file under ``directory``."""
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


# --------------------------------------------------------------------------- #
# format 7: manifest round trips
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_document_carries_manifest(fleet_dataset, tmp_path, num_shards):
    engine = _build(fleet_dataset, num_shards)
    save_index(engine, tmp_path / "index")
    document = json.loads(
        (tmp_path / "index" / "engine.json").read_text(encoding="utf-8")
    )
    assert document["format_version"] == 7
    manifest = document["manifest"]
    assert manifest, "the manifest must cover at least one artefact"
    for entry in manifest.values():
        assert set(entry) == {"sha256", "bytes"}
        assert len(entry["sha256"]) == 64
        assert entry["bytes"] > 0
    if num_shards > 1:
        # Chain of trust: the fleet manifest checksums the shard documents;
        # each shard document's manifest covers that shard's artefacts.
        assert all(name.endswith("engine.json") for name in manifest)
        shard_doc = json.loads(
            (tmp_path / "index" / "shard_00" / "engine.json").read_text(
                encoding="utf-8"
            )
        )
        assert "timestamps.npz" in shard_doc["manifest"]
    else:
        assert "timestamps.npz" in manifest


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
def test_round_trip_after_checksummed_save(
    fleet_dataset, tmp_path, probe_path, num_shards
):
    engine = _build(fleet_dataset, num_shards)
    save_index(engine, tmp_path / "index")
    reloaded = load_index(tmp_path / "index")
    assert reloaded.count(probe_path) == engine.count(probe_path)


# --------------------------------------------------------------------------- #
# crash-mid-save atomicity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "stage", ["backend", "timestamps", "document"]
)
def test_crash_mid_save_preserves_previous_index(
    fleet_dataset, tmp_path, probe_path, stage
):
    engine = _build(fleet_dataset, 1)
    target = tmp_path / "index"
    save_index(engine, target)
    before = _tree(target)
    with faults.save_crash(stage):
        with pytest.raises(faults.SimulatedCrash):
            save_index(engine, target)
    assert _tree(target) == before  # bit-identical: the promote never ran
    assert not list(tmp_path.glob("*.tmp-*")), "no staging litter"
    assert load_index(target).count(probe_path) == engine.count(probe_path)


def test_crash_mid_sharded_save_preserves_previous_index(
    fleet_dataset, tmp_path, probe_path
):
    single = _build(fleet_dataset, 1)
    fleet = _build(fleet_dataset, 3)
    target = tmp_path / "index"
    save_index(single, target)
    before = _tree(target)
    with faults.save_crash("shard_01/backend"):
        with pytest.raises(faults.SimulatedCrash):
            save_index(fleet, target)
    assert _tree(target) == before
    assert not list(tmp_path.glob("*.tmp-*"))
    assert load_index(target).count(probe_path) == single.count(probe_path)


def test_crash_on_first_save_leaves_nothing(fleet_dataset, tmp_path):
    engine = _build(fleet_dataset, 1)
    with faults.save_crash("backend"):
        with pytest.raises(faults.SimulatedCrash):
            save_index(engine, tmp_path / "fresh")
    assert not (tmp_path / "fresh").exists()
    assert not list(tmp_path.glob("*.tmp-*"))


def test_env_driven_save_crash(fleet_dataset, tmp_path, monkeypatch):
    engine = _build(fleet_dataset, 1)
    monkeypatch.setenv("REPRO_SAVE_CRASH", "timestamps")
    faults.reload_env()
    with pytest.raises(faults.SimulatedCrash):
        save_index(engine, tmp_path / "index")
    assert not (tmp_path / "index").exists()


# --------------------------------------------------------------------------- #
# re-save hygiene
# --------------------------------------------------------------------------- #
def test_resave_replaces_directory_wholesale(fleet_dataset, tmp_path, probe_path):
    fleet = _build(fleet_dataset, 3)
    single = _build(fleet_dataset, 1)
    target = tmp_path / "index"
    save_index(fleet, target)
    assert (target / "shard_00").is_dir()
    save_index(single, target)  # fewer artefacts than the previous layout
    leftovers = [p.name for p in target.iterdir() if p.name.startswith("shard_")]
    assert leftovers == [], "stale shard artefacts must not survive a re-save"
    assert load_index(target).count(probe_path) == single.count(probe_path)


def test_resave_shrinking_shard_count(fleet_dataset, tmp_path, probe_path):
    wide = _build(fleet_dataset, 3)
    narrow = build_engine(
        fleet_dataset, EngineConfig(backend="cinct", num_shards=2)
    )
    target = tmp_path / "index"
    save_index(wide, target)
    save_index(narrow, target)
    shard_dirs = sorted(
        p.name for p in target.iterdir() if p.name.startswith("shard_")
    )
    assert shard_dirs == ["shard_00", "shard_01"]
    assert load_index(target).count(probe_path) == narrow.count(probe_path)


# --------------------------------------------------------------------------- #
# corruption detection (manifest verification)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", ["truncate", "flip", "delete"])
def test_corrupt_timestamps_detected(fleet_dataset, tmp_path, mode):
    engine = _build(fleet_dataset, 1)
    save_index(engine, tmp_path / "index")
    faults.corrupt_artifact(tmp_path / "index" / "timestamps.npz", mode=mode)
    with pytest.raises(IndexCorruptionError, match="timestamps.npz"):
        load_index(tmp_path / "index")


def test_corrupt_backend_archive_detected(fleet_dataset, tmp_path):
    engine = _build(fleet_dataset, 1)
    save_index(engine, tmp_path / "index")
    archives = [
        p
        for p in (tmp_path / "index").glob("*.npz")
        if p.name != "timestamps.npz"
    ]
    assert archives, "the cinct backend persists at least one archive"
    faults.corrupt_artifact(archives[0], mode="truncate")
    with pytest.raises(IndexCorruptionError, match=archives[0].name):
        load_index(tmp_path / "index")


def test_corrupt_shard_artefact_detected(fleet_dataset, tmp_path):
    engine = _build(fleet_dataset, 3)
    save_index(engine, tmp_path / "index")
    faults.corrupt_artifact(
        tmp_path / "index" / "shard_01" / "timestamps.npz", mode="flip"
    )
    with pytest.raises(IndexCorruptionError, match="timestamps.npz"):
        load_index(tmp_path / "index")


def test_missing_shard_directory_detected(fleet_dataset, tmp_path):
    import shutil

    engine = _build(fleet_dataset, 3)
    save_index(engine, tmp_path / "index")
    shutil.rmtree(tmp_path / "index" / "shard_01")
    with pytest.raises(IndexCorruptionError, match="shard_01"):
        load_index(tmp_path / "index")


def test_truncated_engine_document_detected(fleet_dataset, tmp_path):
    engine = _build(fleet_dataset, 1)
    save_index(engine, tmp_path / "index")
    faults.corrupt_artifact(tmp_path / "index" / "engine.json", mode="truncate")
    with pytest.raises(IndexCorruptionError, match="engine.json"):
        load_index(tmp_path / "index")


def test_corruption_error_is_canonical(fleet_dataset, tmp_path):
    from repro import IndexCorruptionError as exported
    from repro.exceptions import DatasetError, ReproError

    assert exported is IndexCorruptionError
    assert issubclass(IndexCorruptionError, DatasetError)
    assert issubclass(IndexCorruptionError, ReproError)
    engine = _build(fleet_dataset, 1)
    save_index(engine, tmp_path / "index")
    faults.corrupt_artifact(tmp_path / "index" / "timestamps.npz")
    with pytest.raises(ReproError):  # the CLI maps ReproError to exit 2
        load_index(tmp_path / "index")


def test_engine_save_goes_through_crash_safe_path(fleet_dataset, tmp_path):
    # The method surface (engine.save / TrajectoryEngine.load) rides the
    # same staged format-7 writer as the free functions.
    engine = TrajectoryEngine.build(fleet_dataset, EngineConfig(backend="cinct"))
    engine.save(tmp_path / "index")
    document = json.loads(
        (tmp_path / "index" / "engine.json").read_text(encoding="utf-8")
    )
    assert document["format_version"] == 7
    assert "manifest" in document
