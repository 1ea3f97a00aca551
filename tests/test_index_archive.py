"""Format 6: a saved CiNCT index is the arrays its queries read.

The contract under test: a save → load → save → load round trip restores
every exported array, ``size_in_bits`` and every answer exactly, plain or
memory-mapped; a load runs no construction step (no suffix sort, ET-graph,
RML labelling, correction terms or wavelet-tree build); partitions restored
from their archives still merge (their texts decoded by the batched inverse
walk) into the same index a fresh build gives; and ``held_bits`` reports the
numpy buffers the engine keeps, views once and mapped pages apart.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.cinct as cinct_module
from repro.analysis.footprint import held_bytes
from repro.core import CiNCT
from repro.core.etgraph import ETGraph
from repro.engine import (
    ContainsQuery,
    CountQuery,
    EngineConfig,
    ExtractQuery,
    LocateQuery,
    StrictPathQuery,
    build_engine,
)
from repro.io import load_index, save_index
from repro.network import grid_network
from repro.strings import bwt as bwt_module
from repro.trajectories import TrajectoryDataset, straight_biased_walks
from repro.wavelet import HuffmanWaveletTree, WaveletTree


@pytest.fixture(scope="module")
def fleet_dataset():
    network = grid_network(5, 5)
    rng = np.random.default_rng(61)
    trajectories = straight_biased_walks(
        network, n_trajectories=18, min_length=4, max_length=10, rng=rng
    )
    for trajectory in trajectories:
        departure = float(rng.uniform(0, 300))
        dwell = rng.uniform(4, 16, size=len(trajectory.edges))
        trajectory.timestamps = list(departure + np.cumsum(dwell) - dwell[0])
    return TrajectoryDataset(name="archive-fleet", trajectories=trajectories, network=network)


def _queries(trajectories, *, extract: bool) -> list:
    walks = [list(t.edges) for t in trajectories]
    queries = []
    for walk in walks[::3]:
        queries += [CountQuery(walk[:3]), ContainsQuery(walk[1:3]), LocateQuery(walk[:2])]
        queries.append(StrictPathQuery(walk[1:4], 0.0, 1e9))
    queries.append(CountQuery(list(reversed(walks[1][:3]))))
    if extract:
        queries += [ExtractQuery(row=row, length=4) for row in (0, 7, 30)]
    return queries


def _assert_same_arrays(left: dict, right: dict) -> None:
    assert sorted(left) == sorted(right)
    for key in left:
        assert left[key].dtype == right[key].dtype, key
        np.testing.assert_array_equal(left[key], right[key], err_msg=key)


def _is_mapped(array: np.ndarray) -> bool:
    while not isinstance(array, np.memmap) and isinstance(array.base, np.ndarray):
        array = array.base
    return isinstance(array, np.memmap)


# --------------------------------------------------------------------------- #
# round trips
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("mmap", [False, True], ids=["plain", "mmap"])
@pytest.mark.parametrize("sa_sample_rate", [None, 8], ids=["unsampled", "sampled"])
@pytest.mark.parametrize("block_size", [15, 63])
@pytest.mark.parametrize("strategy", ["bigram", "random", "unigram"])
def test_cinct_archive_round_trips(
    fleet_dataset, tmp_path, strategy, block_size, sa_sample_rate, mmap
):
    config = EngineConfig(
        backend="cinct",
        block_size=block_size,
        labeling_strategy=strategy,
        sa_sample_rate=sa_sample_rate,
        cache_size=0,
    )
    built = build_engine(fleet_dataset, config)
    save_index(built, tmp_path / "first")
    first = load_index(tmp_path / "first", mmap=mmap)
    save_index(first, tmp_path / "second")
    second = load_index(tmp_path / "second", mmap=mmap)

    queries = _queries(fleet_dataset.trajectories, extract=True)
    expected = built.run_many(queries)
    partitions = [engine.shards[0].backend._partition for engine in (built, first, second)]
    for engine, partition in zip((first, second), partitions[1:]):
        _assert_same_arrays(partitions[0].arrays(), partition.arrays())
        assert engine.size_in_bits() == built.size_in_bits()
        assert engine.run_many(queries) == expected
        index = partition.index
        assert (index.block_size, index.labeling_strategy) == (block_size, strategy)
        assert index.has_sa_samples == (sa_sample_rate is not None)
        assert _is_mapped(index.arrays()["hwt_offsets"]) == mmap
    # The text decoded from a restored index is the indexed trajectory string.
    decoded = partitions[2].trajectory_string(built.alphabet)
    original = partitions[0].trajectory_string(built.alphabet)
    np.testing.assert_array_equal(decoded.text, original.text)
    assert decoded.trajectory_lengths == [len(t.edges) for t in fleet_dataset.trajectories]


@pytest.mark.parametrize("bitvector_backend", ["rrr", "plain"])
def test_cinct_from_arrays_restores_either_bitvector_backend(medium_bwt, bitvector_backend):
    built = CiNCT(medium_bwt, block_size=31, bitvector_backend=bitvector_backend, sa_sample_rate=8)
    restored = CiNCT.from_arrays(built.arrays())
    _assert_same_arrays(built.arrays(), restored.arrays())
    assert restored.bitvector_backend == bitvector_backend
    assert restored.size_in_bits() == built.size_in_bits()
    assert restored.wavelet_tree.codes == built.wavelet_tree.codes
    assert restored.wavelet_tree.average_depth() == built.wavelet_tree.average_depth()
    np.testing.assert_array_equal(restored.labelled_bwt, built.labelled_bwt)
    rows = list(range(0, built.length, 37))
    assert restored.extract_many(rows, 5) == built.extract_many(rows, 5)
    assert restored.locate_many(rows) == built.locate_many(rows)
    assert [restored.locate(row) for row in rows[:5]] == [built.locate(row) for row in rows[:5]]
    text = medium_bwt.text
    patterns = [text[i : i + 3][::-1].tolist() for i in range(0, 400, 7)]
    assert restored.count_many(patterns) == built.count_many(patterns)
    assert [restored.count(p) for p in patterns] == [built.count(p) for p in patterns]


# --------------------------------------------------------------------------- #
# a load builds nothing
# --------------------------------------------------------------------------- #
def test_load_runs_no_construction_step(fleet_dataset, tmp_path, monkeypatch):
    trajectories = fleet_dataset.trajectories[:11]
    cinct = build_engine(fleet_dataset, EngineConfig(backend="cinct", sa_sample_rate=8))
    partitioned = build_engine(
        trajectories[:4],
        EngineConfig(backend="partitioned-cinct", sa_sample_rate=8, tail_max_trajectories=4),
    )
    partitioned.add_batch(trajectories[4:8])
    partitioned.add_batch(trajectories[8:])  # three stay in the tail
    assert partitioned.n_partitions == 2
    assert partitioned.stats()["ingest"]["tail"]["trajectories"] == 3
    save_index(cinct, tmp_path / "cinct")
    save_index(partitioned, tmp_path / "partitioned")

    def forbidden(*args, **kwargs):
        raise AssertionError("a load must not run a construction step")

    monkeypatch.setattr(bwt_module, "suffix_array", forbidden)
    monkeypatch.setattr(ETGraph, "__init__", forbidden)
    for name in ("build_rml", "label_bwt", "compute_correction_terms"):
        monkeypatch.setattr(cinct_module, name, forbidden)
    monkeypatch.setattr(HuffmanWaveletTree, "__init__", forbidden)
    monkeypatch.setattr(WaveletTree, "__init__", forbidden)

    cases = (
        ("cinct", cinct, _queries(fleet_dataset.trajectories, extract=True)),
        ("partitioned", partitioned, _queries(trajectories, extract=False)),
    )
    for mmap in (False, True):
        for name, built, queries in cases:
            loaded = load_index(tmp_path / name, mmap=mmap)
            assert loaded.run_many(queries) == built.run_many(queries)
            assert loaded.size_in_bits() == built.size_in_bits()


# --------------------------------------------------------------------------- #
# merges of restored partitions
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("mmap", [False, True], ids=["plain", "mmap"])
@pytest.mark.parametrize("sa_sample_rate", [None, 8], ids=["unsampled", "sampled"])
def test_merges_after_reload_match_a_fresh_build(fleet_dataset, tmp_path, sa_sample_rate, mmap):
    trajectories = fleet_dataset.trajectories
    batches = [trajectories[:5], trajectories[5:9], trajectories[9:14], trajectories[14:]]
    queries = _queries(trajectories, extract=False)

    def config(**extra) -> EngineConfig:
        return EngineConfig(
            backend="partitioned-cinct", sa_sample_rate=sa_sample_rate, cache_size=0, **extra
        )

    # A max_partitions tiered merge over restored partitions...
    tiered = build_engine(batches[0], config(max_partitions=2))
    tiered.add_batch(batches[1])
    save_index(tiered, tmp_path / "tiered")
    tiered = load_index(tmp_path / "tiered", mmap=mmap)
    for batch in batches[2:]:
        tiered.add_batch(batch)
    assert tiered.n_partitions == 2
    assert tiered.stats()["ingest"]["compaction"]["tiered_merges"] == 2
    fresh = build_engine(batches[0], config(max_partitions=2))
    for batch in batches[1:]:
        fresh.add_batch(batch)
    assert tiered.run_many(queries) == fresh.run_many(queries)
    assert tiered.size_in_bits() == fresh.size_in_bits()

    # ...and a consolidate of them give what a fresh build gives.
    grown = build_engine(batches[0], config())
    for batch in batches[1:]:
        grown.add_batch(batch)
    save_index(grown, tmp_path / "grown")
    consolidated = load_index(tmp_path / "grown", mmap=mmap)
    consolidated.consolidate()
    assert consolidated.n_partitions == 1
    whole = build_engine(trajectories, config())
    assert consolidated.run_many(queries) == whole.run_many(queries)
    assert consolidated.size_in_bits() == whole.size_in_bits()


# --------------------------------------------------------------------------- #
# held bits
# --------------------------------------------------------------------------- #
def test_held_bytes_counts_each_buffer_once_and_mapped_pages_apart(tmp_path):
    base = np.arange(1000, dtype=np.int64)
    holder = {"base": base, "views": [base[10:], base.reshape(10, 100), base[::2]]}
    assert held_bytes(holder, base) == (base.nbytes, 0)
    np.save(tmp_path / "mapped.npy", base)
    mapped = np.load(tmp_path / "mapped.npy", mmap_mode="r")
    assert held_bytes(holder, [mapped, mapped[5:]]) == (base.nbytes, base.nbytes)


@pytest.mark.parametrize("backend", ["cinct", "partitioned-cinct"])
def test_engine_reports_held_bits(fleet_dataset, tmp_path, backend):
    config = EngineConfig(backend=backend, sa_sample_rate=8)
    built = build_engine(fleet_dataset, config)
    save_index(built, tmp_path / "index")
    loaded = load_index(tmp_path / "index")
    mapped = load_index(tmp_path / "index", mmap=True)
    for engine in (built, loaded, mapped):
        stats = engine.stats()
        assert (stats["held_bits"], stats["mapped_bits"]) == engine.held_bits()
        assert "retained_bits" not in (stats["ingest"] or {})
        # Every array the index exports is among the buffers counted.
        index_arrays = [p.arrays() for p in _partitions(engine)]
        assert sum(held_bytes(index_arrays)) * 8 <= sum(engine.held_bits())
    assert built.held_bits() == (loaded.held_bits()[0], 0)
    private, shared = mapped.held_bits()
    assert shared > 0 and private < loaded.held_bits()[0]


def _partitions(engine):
    backend = engine.shards[0].backend
    if hasattr(backend, "partitioned"):
        return list(backend.partitioned.partitions())
    return [backend._partition]
