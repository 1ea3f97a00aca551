"""Engines and the result cache under concurrent callers.

The serving tier runs ``engine.run_many`` from multiple worker threads
against one shared engine, so the contract under test is twofold: answers
computed under thread contention are bit-identical to a sequential pass over
the same queries, and the :class:`~repro.engine.executor.ResultCache` keeps
its counters, LRU order, and byte accounting internally consistent while
being hammered from many threads at once.  The wavelet tree's shared memo of
decoded RRR blocks is filled from many threads at once too.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine import (
    ContainsQuery,
    CountQuery,
    EngineConfig,
    LocateQuery,
    ResultCache,
    StrictPathQuery,
    build_engine,
)
from repro.trajectories import Trajectory
from repro.wavelet import HuffmanWaveletTree, rrr_bitvector_factory

N_THREADS = 8


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(4321)
    ring = [f"s{i}" for i in range(10)]
    trajectories = []
    for trajectory_id in range(24):
        length = int(rng.integers(4, 10))
        start = int(rng.integers(0, len(ring)))
        walk = [ring[(start + step) % len(ring)] for step in range(length)]
        departure = float(rng.uniform(0, 200))
        dwell = rng.uniform(3, 12, size=length)
        trajectories.append(
            Trajectory(
                edges=walk,
                timestamps=list(departure + np.cumsum(dwell) - dwell[0]),
                trajectory_id=trajectory_id,
            )
        )
    return trajectories


@pytest.fixture(scope="module")
def query_mix(dataset):
    """A mixed workload with plenty of duplicates (cache contention)."""
    queries = []
    for trajectory in dataset[:8]:
        edges = list(trajectory.edges[:2])
        queries.extend(
            [
                CountQuery(edges),
                ContainsQuery(edges),
                LocateQuery(edges),
                StrictPathQuery(edges, t_start=0.0, t_end=1e9),
                CountQuery(edges),  # duplicate: exercises cache hits
            ]
        )
    return queries


@pytest.mark.parametrize("num_shards", [1, 3])
def test_threaded_run_many_matches_sequential(dataset, query_mix, num_shards):
    engine = build_engine(
        dataset,
        EngineConfig(
            backend="cinct",
            sa_sample_rate=4,
            num_shards=num_shards,
            shard_workers=1 if num_shards > 1 else None,
        ),
    )
    expected = [engine.run(query) for query in query_mix]

    def worker(_):
        return engine.run_many(list(query_mix))

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        outcomes = list(pool.map(worker, range(N_THREADS)))
    for outcome in outcomes:
        assert outcome == expected


def test_threaded_run_many_with_cache_disabled(dataset, query_mix):
    # Same contract without the cache: every execution goes to the backend.
    engine = build_engine(
        dataset, EngineConfig(backend="cinct", sa_sample_rate=4, cache_size=0)
    )
    expected = [engine.run(query) for query in query_mix]

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        outcomes = list(
            pool.map(lambda _: engine.run_many(list(query_mix)), range(N_THREADS))
        )
    for outcome in outcomes:
        assert outcome == expected


def test_wavelet_decode_memo_filled_from_many_threads():
    """Threads racing to decode the same RRR blocks all read correct words.

    The per-tree memo of decoded blocks is shared and unlocked: every writer
    stores the same deterministic word, so a reader sees either the
    not-decoded marker (and decodes the block itself) or the final word.
    """
    rng = np.random.default_rng(11)
    sequence = rng.integers(0, 12, size=6000)
    rows = rng.integers(0, sequence.size, size=(N_THREADS, 300))
    expected = [
        (
            sequence[chunk].tolist(),
            [int(np.count_nonzero(sequence[:r] == sequence[r])) for r in chunk],
        )
        for chunk in rows
    ]
    tree = HuffmanWaveletTree(sequence, rrr_bitvector_factory(15))  # cold memo
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
            futures = [pool.submit(tree.inverse_select_many, chunk) for chunk in rows]
            outcomes = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for (symbols, ranks), (want_symbols, want_ranks) in zip(outcomes, expected):
        assert symbols.tolist() == want_symbols
        assert ranks.tolist() == want_ranks


def _assert_cache_consistent(cache: ResultCache) -> None:
    """The invariants a lost update or torn LRU mutation would break."""
    stats = cache.stats()
    assert set(cache._entries) == set(cache._sizes)
    assert cache._payload_bytes == sum(cache._sizes.values())
    assert stats["size"] == len(cache._entries)
    assert stats["size"] <= stats["capacity"]
    assert stats["hits"] + stats["misses"] >= 0


def test_result_cache_hammer():
    cache = ResultCache(capacity=16)
    barrier = threading.Barrier(N_THREADS)
    errors: list[BaseException] = []

    def hammer(seed: int) -> None:
        rng = np.random.default_rng(seed)
        barrier.wait()
        try:
            for step in range(400):
                key = f"plan-{int(rng.integers(0, 48))}"
                action = int(rng.integers(0, 10))
                if action < 5:
                    cache.get(key)
                elif action < 9:
                    # Tuple payloads exercise the byte accounting.
                    cache.put(key, tuple(range(int(rng.integers(1, 8)))))
                elif action == 9 and step % 97 == 0:
                    cache.clear()
                else:
                    cache.stats()
        except BaseException as error:  # pragma: no cover - only on regression
            errors.append(error)

    threads = [threading.Thread(target=hammer, args=(seed,)) for seed in range(N_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    _assert_cache_consistent(cache)
    stats = cache.stats()
    assert stats["hits"] > 0 and stats["misses"] > 0


def test_result_cache_hammer_with_epoch_churn():
    cache = ResultCache(capacity=8, max_bytes=4096)
    stop = threading.Event()
    errors: list[BaseException] = []

    def mutator() -> None:
        epoch = 0
        try:
            while not stop.is_set():
                epoch += 1
                cache.sync_epoch(epoch)
        except BaseException as error:  # pragma: no cover - only on regression
            errors.append(error)

    def reader_writer(seed: int) -> None:
        rng = np.random.default_rng(seed)
        try:
            for _ in range(300):
                key = f"plan-{int(rng.integers(0, 12))}"
                cache.put(key, int(rng.integers(0, 1000)))
                cache.get(key)
        except BaseException as error:  # pragma: no cover - only on regression
            errors.append(error)

    churn = threading.Thread(target=mutator)
    workers = [
        threading.Thread(target=reader_writer, args=(seed,)) for seed in range(4)
    ]
    churn.start()
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    stop.set()
    churn.join()
    assert not errors
    _assert_cache_consistent(cache)
    assert cache.stats()["invalidations"] > 0
