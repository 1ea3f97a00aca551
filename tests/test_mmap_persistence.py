"""Zero-copy loads: ``load_index(..., mmap=True)`` maps artefacts read-only.

The contract under test: a memory-mapped engine answers every query
bit-identically to a fully deserialized one, the large immutable arrays are
genuine read-only ``np.memmap`` windows into the saved ``.npz`` archives
(so N shard worker processes share one page-cache copy), and growth on a
mapped engine **copies on grow** — the on-disk artefact bytes never change
underneath other processes mapping the same files.  Checksums, the format-7
layout and compressed archives all keep working.
"""

from __future__ import annotations

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
from repro.exceptions import IndexCorruptionError
from repro.io import load_index, save_index
from repro.io.npzutil import load_npz_arrays
from repro.network import grid_network
from repro.temporal.store import TimestampStore
from repro.trajectories import TrajectoryDataset, straight_biased_walks

#: Backends covering each artefact family: the CiNCT archive and the
#: per-partition archives.
MMAP_BACKENDS = ("cinct", "partitioned-cinct")


@pytest.fixture(scope="module")
def fleet_dataset():
    network = grid_network(5, 5)
    rng = np.random.default_rng(83)
    trajectories = straight_biased_walks(
        network, n_trajectories=16, min_length=4, max_length=9, rng=rng
    )
    for trajectory in trajectories:
        departure = float(rng.uniform(0, 300))
        dwell = rng.uniform(4, 16, size=len(trajectory.edges))
        trajectory.timestamps = list(departure + np.cumsum(dwell) - dwell[0])
    return TrajectoryDataset(name="mmap-fleet", trajectories=trajectories, network=network)


@pytest.fixture(scope="module")
def walks(fleet_dataset):
    return [list(t.edges) for t in fleet_dataset.trajectories]


def _mixed_queries(walks, *, extract: bool):
    queries = [
        CountQuery(walks[0][:2]),
        ContainsQuery(walks[3][1:3]),
        LocateQuery(walks[5][:2]),
        StrictPathQuery(walks[2][:3]),
        CountQuery(list(reversed(walks[1][:3]))),  # mostly non-occurring
    ]
    if extract:
        queries.append(ExtractQuery(row=5, length=3))
    return queries


def _mapped_artefact(engine, backend: str):
    """The large immutable array the mmap load should have left on disk."""
    if backend == "partitioned-cinct":
        partition = next(iter(engine.shards[0].backend.partitioned.partitions()))
        return partition.index.arrays()["sa_samples"]
    return engine.shards[0].backend.index.arrays()["hwt_offsets"]


# --------------------------------------------------------------------------- #
# single-engine parity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", MMAP_BACKENDS)
def test_mmap_load_is_bit_identical(fleet_dataset, walks, backend, tmp_path):
    config = EngineConfig(backend=backend, block_size=31, sa_sample_rate=8, cache_size=0)
    engine = build_engine(fleet_dataset, config)
    save_index(engine, tmp_path / "idx")
    plain = load_index(tmp_path / "idx")
    mapped = load_index(tmp_path / "idx", mmap=True)

    extract = backend == "cinct"  # the extract-capable one
    queries = _mixed_queries(walks, extract=extract)
    assert mapped.run_many(queries) == plain.run_many(queries) == engine.run_many(queries)
    assert mapped.timestamp_store.as_lists() == plain.timestamp_store.as_lists()

    # The big array really is a read-only window, not a deserialized copy...
    artefact = _mapped_artefact(mapped, backend)
    assert isinstance(artefact, np.memmap)
    # ...and the non-mmap load really is a plain in-memory array.
    assert not isinstance(_mapped_artefact(plain, backend), np.memmap)


@pytest.mark.parametrize("backend", MMAP_BACKENDS)
def test_mapped_arrays_reject_writes(fleet_dataset, backend, tmp_path):
    config = EngineConfig(backend=backend, block_size=31, sa_sample_rate=8)
    save_index(build_engine(fleet_dataset, config), tmp_path / "idx")
    mapped = load_index(tmp_path / "idx", mmap=True)
    artefact = _mapped_artefact(mapped, backend)
    with pytest.raises((ValueError, OSError)):
        artefact[0] = artefact[0]  # mode "r": any write-through must raise


# --------------------------------------------------------------------------- #
# sharded fleet + copy-on-grow
# --------------------------------------------------------------------------- #
def test_sharded_mmap_growth_copies_instead_of_writing_through(
    fleet_dataset, walks, tmp_path
):
    config = EngineConfig(
        backend="partitioned-cinct",
        num_shards=3,
        block_size=31,
        sa_sample_rate=8,
        cache_size=0,
    )
    fleet = build_engine(fleet_dataset, config)
    save_index(fleet, tmp_path / "fleet")
    plain = load_index(tmp_path / "fleet")
    mapped = load_index(tmp_path / "fleet", mmap=True)
    queries = _mixed_queries(walks, extract=False)
    assert mapped.run_many(queries) == plain.run_many(queries) == fleet.run_many(queries)

    on_disk = {
        path: path.read_bytes()
        for path in sorted((tmp_path / "fleet").rglob("*"))
        if path.is_file()
    }
    growth = [[1, 2, 3, 4], [2, 3, 4, 5, 6], [3, 4, 5]]
    mapped.add_batch(growth)
    plain.add_batch(growth)
    mapped.consolidate()
    plain.consolidate()
    grown_queries = queries + [CountQuery([2, 3, 4]), LocateQuery([3, 4])]
    assert mapped.run_many(grown_queries) == plain.run_many(grown_queries)

    # Copy-on-grow: the artefacts other processes may be mapping are intact.
    after = {
        path: path.read_bytes()
        for path in sorted((tmp_path / "fleet").rglob("*"))
        if path.is_file()
    }
    assert on_disk == after

    # A grown, mapped fleet re-saves to a fresh directory and round-trips.
    save_index(mapped, tmp_path / "fleet2")
    reloaded = load_index(tmp_path / "fleet2", mmap=True)
    assert reloaded.run_many(grown_queries) == plain.run_many(grown_queries)


def test_mmap_checksums_still_verified(fleet_dataset, tmp_path):
    config = EngineConfig(backend="cinct", block_size=31, sa_sample_rate=8)
    save_index(build_engine(fleet_dataset, config), tmp_path / "idx")
    archive = tmp_path / "idx" / "cinct.npz"
    blob = bytearray(archive.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    archive.write_bytes(bytes(blob))
    with pytest.raises(IndexCorruptionError, match="cinct.npz"):
        load_index(tmp_path / "idx", mmap=True)


# --------------------------------------------------------------------------- #
# archive-level mechanics
# --------------------------------------------------------------------------- #
def test_load_npz_arrays_maps_uncompressed_members(tmp_path):
    path = tmp_path / "arrays.npz"
    empty = np.empty(0, dtype=np.int64)
    big = np.arange(10_000, dtype=np.int64)
    fortran = np.asfortranarray(np.arange(12, dtype=np.float64).reshape(3, 4))
    np.savez(path, big=big, empty=empty, fortran=fortran)

    arrays = load_npz_arrays(path, mmap_mode="r")
    assert isinstance(arrays["big"], np.memmap)
    np.testing.assert_array_equal(arrays["big"], big)
    np.testing.assert_array_equal(arrays["empty"], empty)
    np.testing.assert_array_equal(arrays["fortran"], fortran)
    assert arrays["fortran"].flags["F_CONTIGUOUS"]

    in_memory = load_npz_arrays(path)
    np.testing.assert_array_equal(in_memory["big"], big)
    assert not isinstance(in_memory["big"], np.memmap)


def test_load_npz_arrays_falls_back_on_compressed_members(tmp_path):
    """Legacy compressed archives stay loadable — just not zero-copy."""
    path = tmp_path / "compressed.npz"
    data = np.arange(5_000, dtype=np.int64)
    np.savez_compressed(path, data=data)
    arrays = load_npz_arrays(path, mmap_mode="r")
    np.testing.assert_array_equal(arrays["data"], data)
    assert not isinstance(arrays["data"], np.memmap)


def test_timestamp_store_mmap_and_compressed_round_trip(tmp_path):
    store = TimestampStore([[1.0, 2.0, 3.0], None, [5.5, 6.25]])
    uncompressed = tmp_path / "plain.npz"
    store.save(uncompressed, compress=False)
    assert TimestampStore.load(uncompressed, mmap_mode="r").as_lists() == store.as_lists()
    compressed = tmp_path / "compressed.npz"
    store.save(compressed)  # the default stays compressed (smallest archive)
    assert TimestampStore.load(compressed, mmap_mode="r").as_lists() == store.as_lists()
    assert TimestampStore.load(compressed).as_lists() == store.as_lists()
