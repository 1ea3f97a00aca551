"""Workload-aware search sharing: trie execution and the interval cache.

Property coverage for the PR-10 sharing layers:

* :class:`~repro.fmindex.trie.PatternTrie` structure invariants (BFS order,
  shared prefixes, duplicate and prefix-of patterns costing no extra nodes);
* bit-identity of the trie-shared batch path against scalar reference
  answers on **every registered backend**, unsharded and sharded, with the
  interval cache cold and warm;
* the same identity through the tail lifecycle of the growable backend:
  tail-only (fresh ``add_batch``), post-compaction (``consolidate``) and
  post-reload (``save``/``load``);
* :class:`~repro.engine.executor.IntervalCache` semantics — prefix-resume
  hits, capacity-bounded LRU eviction, the ``interval_cache_size=0`` kill
  switch, epoch invalidation on growth (mirroring the result-cache epoch
  cases in ``test_query_pipeline.py``) and epoch-pinned views;
* :meth:`~repro.wavelet.tree.WaveletTree.rank_pairs` agreeing with the
  scalar ``rank`` walk for mixed-symbol frontiers, and the fused
  ``inverse_select_many`` descent agreeing with access + rank, on plain and
  RRR trees and at block boundaries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    ShardedTrajectoryEngine,
    TrajectoryEngine,
    available_backends,
    sample_paths,
)
from repro.engine.executor import IntervalCache
from repro.fmindex.trie import PatternTrie, trie_backward_search
from repro.io import load_index
from repro.network import grid_network
from repro.trajectories import TrajectoryDataset, straight_biased_walks
from repro.wavelet import plain_bitvector_factory, rrr_bitvector_factory
from repro.wavelet.tree import BalancedWaveletTree, HuffmanWaveletTree

BACKENDS = available_backends()


@pytest.fixture(scope="module")
def fleet_dataset():
    """A fleet on a grid network, shared by every backend parametrization."""
    network = grid_network(5, 5)
    rng = np.random.default_rng(31)
    trajectories = straight_biased_walks(
        network, n_trajectories=24, min_length=5, max_length=13, rng=rng
    )
    return TrajectoryDataset(
        name="sharing-fleet", trajectories=trajectories, network=network
    )


@pytest.fixture(scope="module")
def growth_batch(fleet_dataset):
    """Extra trajectories for the tail-lifecycle and epoch cases."""
    rng = np.random.default_rng(77)
    return straight_biased_walks(
        fleet_dataset.network, n_trajectories=6, min_length=5, max_length=10, rng=rng
    )


def sharing_workload(dataset, seed=5):
    """Edge-path batch with the shapes the trie must share correctly.

    Prefix-nested paths (every prefix of a few longer paths), literal
    duplicates, and likely-dead patterns (reversed paths) — shuffled so
    sharing cannot depend on batch order.
    """
    paths = sample_paths(dataset, 5, 6, seed=seed)
    batch = [path[:k] for path in paths for k in range(1, len(path) + 1)]
    batch += [paths[0], paths[0][:2]]  # literal duplicate + duplicated prefix
    batch += [list(reversed(path)) for path in paths[:2]]  # likely dead
    rng = np.random.default_rng(seed)
    return [batch[i] for i in rng.permutation(len(batch))]


def reference_counts(dataset, batch, backend):
    """Scalar per-pattern answers from a cache-less unsharded engine."""
    engine = TrajectoryEngine.build(
        dataset,
        EngineConfig(
            backend=backend,
            block_size=31,
            sa_sample_rate=8,
            cache_size=0,
            interval_cache_size=0,
        ),
    )
    return [engine.count(path) for path in batch]


class TestPatternTrie:
    def test_duplicates_and_prefixes_share_nodes(self):
        pattern = [4, 7, 2, 9]
        trie = PatternTrie([pattern, pattern, pattern[:2], pattern[:2], pattern])
        assert trie.n_nodes == len(pattern) + 1  # root + one node per symbol
        assert trie.n_patterns == 5
        # Duplicate patterns resolve to the same terminal node.
        assert trie.terminals[0] == trie.terminals[1] == trie.terminals[4]
        assert trie.terminals[2] == trie.terminals[3]

    def test_bfs_invariants(self):
        rng = np.random.default_rng(3)
        patterns = [list(rng.integers(0, 6, size=rng.integers(1, 9))) for _ in range(40)]
        trie = PatternTrie(patterns)
        # Parents precede children and sit exactly one level up.
        for node in range(1, trie.n_nodes):
            parent = int(trie.parents[node])
            assert parent < node
            assert trie.depths[node] == trie.depths[parent] + 1
        # Level slices tile [1, n_nodes) contiguously in depth order.
        cursor = 1
        for depth, (start, end) in enumerate(trie.level_slices, start=1):
            assert start == cursor
            assert np.all(trie.depths[start:end] == depth)
            cursor = end
        assert cursor == trie.n_nodes

    def test_prefix_keys_match_pattern_prefixes(self):
        patterns = [[1, 2, 3], [1, 2, 4], [5]]
        trie = PatternTrie(patterns)
        prefixes = set(trie.prefixes)
        for pattern in patterns:
            for k in range(1, len(pattern) + 1):
                assert tuple(pattern[:k]) in prefixes
        for pattern, terminal in zip(patterns, trie.terminals):
            assert trie.prefixes[terminal] == tuple(pattern)

    def test_empty_batch(self):
        trie = PatternTrie([])
        assert trie.n_nodes == 1
        assert trie.level_slices == []
        assert trie_backward_search(trie, np.zeros(2, dtype=np.int64), 1, None) == []


@pytest.mark.parametrize("backend", BACKENDS)
class TestBitIdentityUnsharded:
    def test_trie_batch_matches_scalar_cold_and_warm(self, fleet_dataset, backend):
        engine = TrajectoryEngine.build(
            fleet_dataset, EngineConfig(backend=backend, block_size=31, sa_sample_rate=8)
        )
        batch = sharing_workload(fleet_dataset)
        expected = reference_counts(fleet_dataset, batch, backend)
        assert engine.count_many(batch) == expected  # cold
        assert engine.count_many(batch) == expected  # warm (result + intervals)
        assert [engine.contains(path) for path in batch] == [
            count > 0 for count in expected
        ]


@pytest.mark.parametrize("backend", BACKENDS)
class TestBitIdentitySharded:
    def test_trie_batch_matches_scalar_across_shards(self, fleet_dataset, backend):
        sharded = ShardedTrajectoryEngine.build(
            fleet_dataset,
            EngineConfig(
                backend=backend, block_size=31, sa_sample_rate=8, num_shards=3
            ),
        )
        try:
            batch = sharing_workload(fleet_dataset, seed=9)
            expected = reference_counts(fleet_dataset, batch, backend)
            assert sharded.count_many(batch) == expected
            assert sharded.count_many(batch) == expected  # warm pass
        finally:
            sharded.close()


class TestTailLifecycle:
    """Bit-identity through the growable backend's tail states."""

    BACKEND = "partitioned-cinct"

    def rebuilt(self, fleet_dataset, growth_batch):
        combined = [list(t.edges) for t in fleet_dataset.trajectories]
        combined += [list(t.edges) for t in growth_batch]
        return TrajectoryEngine.build(
            combined,
            EngineConfig(
                backend=self.BACKEND, cache_size=0, interval_cache_size=0
            ),
        )

    def assert_parity(self, engine, reference, fleet_dataset, growth_batch):
        batch = sharing_workload(fleet_dataset, seed=13)
        batch += [list(t.edges[:3]) for t in growth_batch]
        expected = [reference.count(path) for path in batch]
        assert engine.count_many(batch) == expected
        assert engine.count_many(batch) == expected  # warm intervals

    def test_tail_only_compacted_and_reloaded(
        self, fleet_dataset, growth_batch, tmp_path
    ):
        engine = TrajectoryEngine.build(
            fleet_dataset, EngineConfig(backend=self.BACKEND)
        )
        reference = self.rebuilt(fleet_dataset, growth_batch)

        engine.add_batch([list(t.edges) for t in growth_batch])
        self.assert_parity(engine, reference, fleet_dataset, growth_batch)  # tail-only

        engine.consolidate()
        self.assert_parity(engine, reference, fleet_dataset, growth_batch)  # compacted

        engine.save(tmp_path / "grown")
        reloaded = load_index(tmp_path / "grown")
        self.assert_parity(reloaded, reference, fleet_dataset, growth_batch)  # reloaded


class TestIntervalCacheUnit:
    def test_store_lookup_and_dead_prefixes(self):
        cache = IntervalCache(capacity=8)
        assert cache.lookup((1, 2)) == (False, None)
        cache.store((1, 2), (5, 9))
        cache.store((1, 2, 3), None)  # dead prefixes are cacheable facts
        assert cache.lookup((1, 2)) == (True, (5, 9))
        assert cache.lookup((1, 2, 3)) == (True, None)
        stats = cache.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1 and stats["size"] == 2

    def test_deepest_resumes_from_longest_cached_ancestor(self):
        cache = IntervalCache(capacity=8)
        cache.store((1,), (0, 100))
        cache.store((1, 2), (10, 40))
        keys = [(1, 2, 3, 4), (1, 2, 3), (1, 2), (1,)]  # longest first
        assert cache.deepest(keys) == (2, (10, 40))
        assert cache.deepest([(9, 9)]) == (-1, None)

    def test_capacity_bounds_and_evicts_lru(self):
        cache = IntervalCache(capacity=2)
        cache.store((1,), (0, 1))
        cache.store((2,), (0, 2))
        cache.lookup((1,))  # refresh (1,) so (2,) is the LRU victim
        cache.store((3,), (0, 3))
        assert cache.stats()["size"] == 2
        assert cache.stats()["evictions"] == 1
        assert cache.lookup((2,))[0] is False
        assert cache.lookup((1,))[0] is True

    def test_zero_capacity_disables(self):
        cache = IntervalCache(capacity=0)
        assert not cache.enabled
        cache.store((1,), (0, 1))
        assert cache.lookup((1,)) == (False, None)
        assert cache.stats()["size"] == 0

    def test_epoch_sync_invalidates(self):
        cache = IntervalCache(capacity=8, epoch=0)
        cache.store((1,), (0, 1))
        cache.sync_epoch(1)
        assert cache.lookup((1,))[0] is False
        stats = cache.stats()
        assert stats["epoch"] == 1
        assert stats["invalidations"] == 1
        assert stats["size"] == 0

    def test_pinned_view_ignores_a_moved_epoch(self):
        """A search pinned to an old epoch neither reads nor writes ranges."""
        cache = IntervalCache(capacity=8, epoch=0)
        stale = cache.pinned(0)
        stale.store((1,), (0, 1))
        cache.sync_epoch(1)
        cache.store((2,), (0, 2))
        stale.store((3,), (0, 3))  # computed against the old index: dropped
        assert stale.lookup((2,)) == (False, None)
        assert stale.deepest([(2,)]) == (-1, None)
        fresh = cache.pinned(1)
        assert fresh.lookup((2,)) == (True, (0, 2))
        assert fresh.lookup((3,)) == (False, None)
        assert cache.stats()["size"] == 1


class TestIntervalCacheInEngine:
    def test_extension_resumes_from_cached_prefix(self, fleet_dataset):
        engine = TrajectoryEngine.build(
            fleet_dataset, EngineConfig(backend="cinct", cache_size=0)
        )
        path = sample_paths(fleet_dataset, 4, 1, seed=8)[0]
        engine.count(path[:3])
        before = engine.interval_cache_stats()["hits"]
        engine.count(path)  # one-edge extension of the warm prefix
        assert engine.interval_cache_stats()["hits"] > before

    def test_size_knob_bounds_and_disables(self, fleet_dataset):
        bounded = TrajectoryEngine.build(
            fleet_dataset,
            EngineConfig(backend="cinct", cache_size=0, interval_cache_size=4),
        )
        bounded.count_many(sharing_workload(fleet_dataset))
        stats = bounded.interval_cache_stats()
        assert stats["size"] <= 4
        assert stats["evictions"] > 0

        disabled = TrajectoryEngine.build(
            fleet_dataset,
            EngineConfig(backend="cinct", cache_size=0, interval_cache_size=0),
        )
        batch = sharing_workload(fleet_dataset)
        assert disabled.count_many(batch) == bounded.count_many(batch)
        stats = disabled.interval_cache_stats()
        assert not stats["enabled"]
        assert stats["size"] == 0

    def test_runtime_disable_switch(self, fleet_dataset):
        engine = TrajectoryEngine.build(fleet_dataset, EngineConfig(backend="cinct"))
        path = sample_paths(fleet_dataset, 3, 1, seed=4)[0]
        engine.count(path)
        engine.disable_interval_cache()
        stats = engine.interval_cache_stats()
        assert not stats["enabled"]
        assert stats["size"] == 0
        assert engine.count(path) == engine.count(path)

    def test_growth_bumps_epoch_and_invalidates_intervals(
        self, fleet_dataset, growth_batch
    ):
        engine = TrajectoryEngine.build(
            fleet_dataset, EngineConfig(backend="partitioned-cinct")
        )
        probe = list(growth_batch[0].edges[:2])
        baseline = engine.count(probe)
        assert engine.interval_cache_stats()["epoch"] == 0

        engine.add_batch([list(t.edges) for t in growth_batch])
        stats = engine.interval_cache_stats()
        assert stats["epoch"] == engine.epoch == 1
        assert stats["invalidations"] >= 1
        assert stats["size"] == 0  # no pre-growth range can leak
        # Post-growth answers reflect the new trajectories, not stale ranges.
        assert engine.count(probe) >= max(baseline, 1)

        engine.consolidate()
        assert engine.interval_cache_stats()["epoch"] == engine.epoch == 2

    def test_sharded_stats_aggregate_and_invalidate(self, fleet_dataset, growth_batch):
        engine = ShardedTrajectoryEngine.build(
            fleet_dataset,
            EngineConfig(backend="partitioned-cinct", num_shards=3),
        )
        try:
            engine.count_many(sharing_workload(fleet_dataset))
            fleet = engine.interval_cache_stats()
            per_shard = engine.shard_interval_cache_stats()
            assert fleet["enabled"]
            assert fleet["size"] == sum(row["size"] for row in per_shard)
            assert fleet["size"] > 0

            # Growth routes to one shard; that shard's intervals invalidate.
            target = engine.router.shard_of(engine.n_trajectories)
            engine.add_batch([list(growth_batch[0].edges)])
            per_shard = engine.shard_interval_cache_stats()
            assert per_shard[target]["size"] == 0
            assert per_shard[target]["invalidations"] >= 1
        finally:
            engine.close()


class TestRankPairs:
    @pytest.mark.parametrize("tree_cls", [HuffmanWaveletTree, BalancedWaveletTree])
    def test_matches_scalar_rank_for_mixed_frontiers(self, tree_cls):
        rng = np.random.default_rng(0)
        sequence = rng.integers(0, 23, size=3000)
        sequence[rng.random(3000) < 0.5] = 3  # skew so Huffman is non-trivial
        symbols = rng.integers(-2, 30, size=1500)  # includes absent symbols
        positions = rng.integers(0, 3001, size=1500)
        # Block boundaries of every factory below, and both ends.
        edges = np.unique(
            np.concatenate([np.arange(0, 3001, b) for b in (15, 31, 63, 64)] + [[3000]])
        )
        symbols = np.concatenate([symbols, rng.integers(-2, 30, size=edges.size)])
        positions = np.concatenate([positions, edges])
        rows = np.concatenate([rng.integers(0, 3000, size=500), edges[edges < 3000]])
        for block, factory in (
            (64, plain_bitvector_factory()),
            (15, rrr_bitvector_factory(15)),
            (31, rrr_bitvector_factory(31)),
            (63, rrr_bitvector_factory(63)),
        ):
            tree = tree_cls(sequence, factory)
            got = tree.rank_pairs(symbols, positions)
            want = [tree.rank(int(s), int(p)) for s, p in zip(symbols, positions)]
            assert got.tolist() == want
            # The fused descent agrees with an access followed by a rank.
            labels, ranks = tree.inverse_select_many(rows)
            assert labels.tolist() == sequence[rows].tolist()
            assert ranks.tolist() == [
                int(np.count_nonzero(sequence[:r] == sequence[r])) for r in rows
            ]
            # Four equally frequent symbols: every node's length, and so
            # every node's end, is a multiple of the block size.
            aligned = rng.permutation(np.repeat(np.arange(4), block))
            tree = tree_cls(aligned, factory)
            grid = np.arange(aligned.size + 1)
            for symbol in range(4):
                assert tree.rank_pairs(np.full(grid.size, symbol), grid).tolist() == [
                    int(np.count_nonzero(aligned[:p] == symbol)) for p in grid
                ]
            labels, ranks = tree.inverse_select_many(grid[:-1])
            assert labels.tolist() == aligned.tolist()
            assert ranks.tolist() == [
                int(np.count_nonzero(aligned[:r] == aligned[r])) for r in grid[:-1]
            ]

    def test_matches_rank_many_per_symbol(self):
        rng = np.random.default_rng(1)
        sequence = rng.integers(0, 9, size=500)
        tree = HuffmanWaveletTree(sequence)
        positions = rng.integers(0, 501, size=200)
        for symbol in range(9):
            assert np.array_equal(
                tree.rank_pairs(np.full(200, symbol), positions),
                tree.rank_many(symbol, positions),
            )


def test_non_sharing_backends_never_touch_the_interval_cache(fleet_dataset):
    """A backend without ``supports_interval_sharing`` leaves the cache cold.

    The executor must gate the ``interval_cache`` kwarg on the backend's
    declared capability — probing (or worse, populating) the cache through a
    backend that cannot resume suffix ranges would record nonsense stats.
    """
    engine = TrajectoryEngine.build(
        fleet_dataset, EngineConfig(backend="linear-scan", cache_size=0)
    )
    if getattr(engine.shards[0].backend, "supports_interval_sharing", False):
        pytest.skip("linear-scan grew interval sharing; pick another control")
    engine.count_many(sharing_workload(fleet_dataset))
    stats = engine.interval_cache_stats()
    assert stats["enabled"]  # the cache exists and is on ...
    assert stats["hits"] == stats["misses"] == stats["size"] == 0  # ... but idle
