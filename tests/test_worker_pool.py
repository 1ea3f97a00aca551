"""Process-per-shard execution: worker pool lifecycle, faults and parity.

The contract under test: with ``EngineConfig.shard_executor="processes"`` a
sharded fleet answers every query bit-identically to the thread and serial
executors — including degraded merges under injected worker crashes, growth
(epoch-lazy engine sync over the pipe), and reload — while worker death is a
*retryable* fan-out failure: a crashed or hung worker is killed, respawned,
and the attempt history names the dead worker's pid.  ``close()`` (and
interpreter exit) reap the pool; nothing is orphaned.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import (
    CountQuery,
    EngineConfig,
    ShardedTrajectoryEngine,
    TrajectoryEngine,
    WorkerCrashError,
    build_engine,
    sample_paths,
)
from repro.engine.workers import START_METHOD_ENV
from repro.exceptions import ShardExecutionError
from repro.io import load_index
from repro.network import grid_network
from repro.reliability import faults
from repro.trajectories import TrajectoryDataset, straight_biased_walks


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear_faults()
    yield
    faults.clear_faults()


@pytest.fixture(scope="module")
def fleet_dataset():
    network = grid_network(5, 5)
    rng = np.random.default_rng(61)
    trajectories = straight_biased_walks(
        network, n_trajectories=18, min_length=5, max_length=12, rng=rng
    )
    for trajectory in trajectories:
        departure = float(rng.uniform(0, 300))
        dwell = rng.uniform(4, 16, size=len(trajectory.edges))
        trajectory.timestamps = list(departure + np.cumsum(dwell) - dwell[0])
    return TrajectoryDataset(
        name="worker-fleet", trajectories=trajectories, network=network
    )


@pytest.fixture(scope="module")
def growth_batch(fleet_dataset):
    network = fleet_dataset.network
    rng = np.random.default_rng(63)
    trajectories = straight_biased_walks(
        network, n_trajectories=4, min_length=4, max_length=9, rng=rng
    )
    for trajectory in trajectories:
        trajectory.timestamps = list(
            float(rng.uniform(400, 600)) + np.arange(len(trajectory.edges)) * 5.0
        )
    return trajectories


@pytest.fixture(scope="module")
def probe_path(fleet_dataset):
    """A single-edge path present on *every* shard of a 3-shard fleet."""
    per_shard: dict[int, set] = {0: set(), 1: set(), 2: set()}
    for trajectory_id, trajectory in enumerate(fleet_dataset.trajectories):
        per_shard[trajectory_id % 3].update(trajectory.edges)
    common = per_shard[0] & per_shard[1] & per_shard[2]
    assert common, "fixture dataset must share an edge across all shards"
    return [sorted(common)[0]]


def _fleet(fleet_dataset, backend="cinct", **overrides):
    config = EngineConfig(
        backend=backend,
        num_shards=3,
        cache_size=0,
        shard_executor="processes",
        **overrides,
    )
    return build_engine(fleet_dataset, config)


def _worker_pids(engine) -> dict[int, int]:
    return {
        row["shard"]: row["pid"]
        for row in engine.executor_info()["workers"]
        if row["pid"] is not None
    }


# --------------------------------------------------------------------------- #
# executor parity
# --------------------------------------------------------------------------- #
def test_all_executors_answer_bit_identically(fleet_dataset):
    engines = {
        mode: build_engine(
            fleet_dataset,
            EngineConfig(
                backend="cinct", num_shards=3, cache_size=0, shard_executor=mode
            ),
        )
        for mode in ("serial", "threads", "processes")
    }
    paths = sample_paths(fleet_dataset, 2, 6, seed=31)
    reference = engines["serial"].count_many(paths)
    for mode, engine in engines.items():
        assert engine.executor_info()["mode"] == mode
        assert engine.count_many(paths) == reference
        for path in paths[:3]:
            assert engine.locate(path) == engines["serial"].locate(path)
        engine.close()


def test_configure_executor_swaps_strategy_in_place(fleet_dataset, probe_path):
    engine = _fleet(fleet_dataset)
    with_processes = engine.count(probe_path)
    assert _worker_pids(engine)  # workers actually forked
    engine.configure_executor("threads")
    assert engine.executor_info()["mode"] == "threads"
    assert engine.executor_info()["workers"] == []  # pool reaped on swap
    assert engine.count(probe_path) == with_processes
    engine.configure_executor("processes")
    assert engine.count(probe_path) == with_processes
    engine.close()


def test_workers_are_reused_across_batches(fleet_dataset, probe_path):
    engine = _fleet(fleet_dataset)
    engine.count(probe_path)
    pids = _worker_pids(engine)
    for _ in range(3):
        engine.count(probe_path)
    assert _worker_pids(engine) == pids  # persistent pool, not per-batch forks
    assert all(row["restarts"] == 0 for row in engine.executor_info()["workers"])
    engine.close()


def test_growth_syncs_workers_and_stays_bit_identical(
    fleet_dataset, growth_batch, tmp_path
):
    engine = _fleet(fleet_dataset, backend="partitioned-cinct")
    unsharded = TrajectoryEngine.build(
        fleet_dataset, EngineConfig(backend="partitioned-cinct", cache_size=0)
    )
    paths = sample_paths(fleet_dataset, 3, 6, seed=33)
    assert engine.count_many(paths) == unsharded.count_many(paths)  # fork pool
    engine.add_batch(growth_batch)
    unsharded.add_batch(growth_batch)
    # The grown engines are shipped to the (already forked) workers lazily,
    # on the next dispatch; answers must include the new trajectories.
    assert engine.count_many(paths) == unsharded.count_many(paths)
    probe = list(growth_batch[0].edges[:2])
    assert engine.locate(probe) == unsharded.locate(probe)
    engine.consolidate()
    unsharded.consolidate()
    assert engine.count_many(paths) == unsharded.count_many(paths)
    # ...and the reloaded fleet keeps the configured executor.
    engine.save(tmp_path / "grown")
    engine.close()
    reloaded = load_index(tmp_path / "grown")
    assert reloaded.config.shard_executor == "processes"
    assert reloaded.count_many(paths) == unsharded.count_many(paths)
    reloaded.close()


# --------------------------------------------------------------------------- #
# worker death is retryable
# --------------------------------------------------------------------------- #
def test_worker_crash_respawns_and_retry_recovers(fleet_dataset, probe_path):
    engine = _fleet(fleet_dataset, shard_retries=2)
    reference = TrajectoryEngine.build(fleet_dataset, EngineConfig(backend="cinct"))
    assert engine.count(probe_path) == reference.count(probe_path)  # fork pool
    pids = _worker_pids(engine)
    with faults.shard_fault(1, "worker_crash", times=1):
        assert engine.count(probe_path) == reference.count(probe_path)
    after = _worker_pids(engine)
    assert after[1] != pids[1]  # shard 1 got a fresh process...
    assert after[0] == pids[0] and after[2] == pids[2]  # ...its peers did not
    rows = {row["shard"]: row for row in engine.executor_info()["workers"]}
    assert rows[1]["restarts"] == 1
    assert engine.health()["shards"][1]["worker"]["restarts"] == 1
    engine.close()


def test_worker_crash_without_retry_names_shard_and_pid(fleet_dataset, probe_path):
    engine = _fleet(fleet_dataset)
    engine.count(probe_path)
    pid = _worker_pids(engine)[1]
    with faults.shard_fault(1, "worker_crash"):
        with pytest.raises(ShardExecutionError) as excinfo:
            engine.count(probe_path)
    error = excinfo.value
    assert error.shard_id == 1
    assert "shard 1" in str(error)
    assert f"pid {pid}" in str(error)
    assert "WorkerCrashError" in error.attempts[0].error
    engine.close()


def test_worker_crash_degraded_merge_matches_surviving_shards(
    fleet_dataset, probe_path
):
    engine = _fleet(fleet_dataset, degraded_results=True)
    serial = build_engine(
        fleet_dataset,
        EngineConfig(
            backend="cinct", num_shards=3, cache_size=0, shard_executor="serial"
        ),
    )
    expected = sum(
        shard.count(probe_path)
        for shard_id, shard in enumerate(serial.shards)
        if shard_id != 1 and shard is not None
    )
    engine.count(probe_path)  # fork pool
    with faults.shard_fault(1, "worker_crash"):
        result = engine.run_many([CountQuery(tuple(probe_path))])[0]
    assert result.degraded is True
    assert result.failed_shards == (1,)
    assert result.count == expected
    # The respawned worker serves the very next batch at full strength.
    healthy = engine.run_many([CountQuery(tuple(probe_path))])[0]
    assert healthy.degraded is False
    engine.close()


def test_hung_worker_killed_within_deadline(fleet_dataset, probe_path):
    engine = _fleet(fleet_dataset, shard_deadline=0.4, degraded_results=True)
    engine.count(probe_path)  # fork pool
    pid = _worker_pids(engine)[1]
    with faults.shard_fault(1, "hang", delay_ms=30_000):
        started = time.perf_counter()
        result = engine.run_many([CountQuery(tuple(probe_path))])[0]
        elapsed = time.perf_counter() - started
    assert result.degraded is True
    assert result.failed_shards == (1,)
    assert elapsed < 5.0  # bounded by the deadline, not the 30 s hang
    assert _worker_pids(engine)[1] != pid  # the hung process was killed
    engine.close()


def test_env_driven_worker_crash(fleet_dataset, probe_path, monkeypatch):
    engine = _fleet(fleet_dataset, shard_retries=2)
    reference = TrajectoryEngine.build(fleet_dataset, EngineConfig(backend="cinct"))
    engine.count(probe_path)
    monkeypatch.setenv("REPRO_SHARD_FAULT", "1:worker_crash:0:1")
    faults.reload_env()
    assert engine.count(probe_path) == reference.count(probe_path)
    rows = {row["shard"]: row for row in engine.executor_info()["workers"]}
    assert rows[1]["restarts"] == 1
    engine.close()


# --------------------------------------------------------------------------- #
# pool lifecycle
# --------------------------------------------------------------------------- #
def test_close_reaps_workers_and_engine_stays_queryable(fleet_dataset, probe_path):
    engine = _fleet(fleet_dataset)
    before = engine.count(probe_path)
    pids = list(_worker_pids(engine).values())
    assert pids
    engine.close()
    for pid in pids:
        _assert_pid_gone(pid)
    assert engine.executor_info()["workers"] == []
    # Still queryable after close (a fresh pool forks on demand).
    assert engine.count(probe_path) == before
    engine.close()


def test_interpreter_exit_leaves_no_orphans(fleet_dataset, probe_path, tmp_path):
    """A process that never calls ``close()`` must not leak shard workers."""
    engine = _fleet(fleet_dataset)
    engine.save(tmp_path / "fleet")
    engine.close()
    probe_file = tmp_path / "probe.pickle"
    probe_file.write_bytes(pickle.dumps(list(probe_path)))
    script = textwrap.dedent(
        """
        import pickle
        import sys
        from repro.io import load_index

        engine = load_index(sys.argv[1], mmap=True)
        probe = pickle.loads(open(sys.argv[2], "rb").read())
        engine.count(probe)  # forks the worker pool
        pids = [row["pid"] for row in engine.executor_info()["workers"]]
        assert pids, "the probe must actually fan out"
        print(" ".join(str(pid) for pid in pids))
        # exit WITHOUT engine.close(): the exit-time finalizer must reap.
        """
    )
    completed = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "fleet"), str(probe_file)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
    )
    assert completed.returncode == 0, completed.stderr
    pids = [int(token) for token in completed.stdout.split()]
    assert pids
    for pid in pids:
        _assert_pid_gone(pid)


def _assert_pid_gone(pid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    raise AssertionError(f"worker pid {pid} is still alive")


# --------------------------------------------------------------------------- #
# start methods
# --------------------------------------------------------------------------- #
def test_spawn_start_method_parity(fleet_dataset, probe_path, monkeypatch):
    """The pool works under ``spawn`` too (engines pickled to fresh children)."""
    monkeypatch.setenv(START_METHOD_ENV, "spawn")
    engine = _fleet(fleet_dataset)
    reference = TrajectoryEngine.build(fleet_dataset, EngineConfig(backend="cinct"))
    try:
        assert engine.count(probe_path) == reference.count(probe_path)
        paths = sample_paths(fleet_dataset, 2, 4, seed=35)
        assert engine.count_many(paths) == reference.count_many(paths)
        assert all(row["alive"] for row in engine.executor_info()["workers"])
    finally:
        engine.close()


def test_invalid_start_method_rejected(monkeypatch):
    from repro.engine import workers

    monkeypatch.setenv(START_METHOD_ENV, "bogus-method")
    with pytest.raises(ValueError):
        workers._resolve_context()


# --------------------------------------------------------------------------- #
# observability
# --------------------------------------------------------------------------- #
def test_stats_and_health_report_worker_rows(fleet_dataset, probe_path):
    engine = _fleet(fleet_dataset)
    # Before any fan-out the executor exists but has forked nothing.
    info = engine.executor_info()
    assert info["mode"] == "processes"
    assert info["workers"] == []
    engine.count(probe_path)
    stats = engine.stats()
    executor = stats["executor"]
    assert executor["mode"] == "processes"
    assert executor["started"] is True
    rows = {row["shard"]: row for row in executor["workers"]}
    assert rows, "fan-out must have forked shard workers"
    for row in rows.values():
        assert row["alive"] is True
        assert isinstance(row["pid"], int)
        assert row["restarts"] == 0
    health = engine.health()
    assert health["executor"] == "processes"
    for shard_id, shard_row in enumerate(health["shards"]):
        worker = shard_row["worker"]
        if worker is not None:
            assert worker["pid"] == rows[shard_id]["pid"]
    engine.close()


def test_unsharded_engine_reports_inline_executor(fleet_dataset, probe_path):
    engine = TrajectoryEngine.build(fleet_dataset, EngineConfig(backend="cinct"))
    assert engine.stats()["executor"]["mode"] == "inline"
    assert engine.health()["executor"] == "inline"
    expected = engine.locate(probe_path)
    # The fan-out controls exist on every engine; one shard only records them.
    engine.configure_executor("processes")
    engine.configure_reliability(deadline=5.0, retries=2, degraded_results=True)
    assert engine.config.shard_executor == "processes"
    assert engine.config.shard_retries == 2
    assert engine.executor_info()["mode"] == "inline"
    engine.close()
    assert engine.locate(probe_path) == expected
    assert engine.stats()["executor"]["workers"] == []


def test_worker_crash_error_is_exported():
    error = WorkerCrashError(2, 1234, 17)
    assert error.shard_id == 2
    assert error.pid == 1234
    assert "pid 1234" in str(error)
    assert isinstance(error, Exception)


def test_sharded_engine_pickles_for_spawn(fleet_dataset, probe_path):
    """Every shard engine must survive the pickle trip a spawn pool takes."""
    engine = ShardedTrajectoryEngine.build(
        fleet_dataset,
        EngineConfig(backend="cinct", num_shards=3, shard_executor="processes"),
    )
    for shard in engine.shards:
        if shard is None:
            continue
        clone = pickle.loads(pickle.dumps(shard))
        # probe_path is present on every shard, so every clone must agree.
        assert clone.count(probe_path) == shard.count(probe_path)
        assert clone.locate(probe_path) == shard.locate(probe_path)
    engine.close()
