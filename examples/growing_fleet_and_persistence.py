"""Growing data and universal on-disk persistence through the engine facade.

CiNCT is a static index; the paper (Section III-A) handles growing data by
indexing new batches separately and periodically reconstructing.  This example
shows that workflow end to end on the :class:`repro.engine.TrajectoryEngine`
facade:

1. stream three daily batches of *timestamped* trips into an engine running
   the ``partitioned-cinct`` backend (one immutable CiNCT partition per
   batch); the engine keeps every timestamp in its compressed
   :class:`~repro.temporal.TimestampStore`,
2. query across the partitions with raw edge paths — including a
   time-windowed strict-path query, which works even though the engine was
   built *without* ``sa_sample_rate`` (the partitions fall back to their
   retained suffix arrays),
3. persist the grown engine with :meth:`TrajectoryEngine.save` and reload it
   with :meth:`TrajectoryEngine.load` — the same two calls persist either
   backend; timestamps land in a ``timestamps.npz`` artefact next
   to ``engine.json``, never as raw JSON arrays,
4. export the accumulated trips as JSON Lines and read them back.

Run with:  python examples/growing_fleet_and_persistence.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    Trajectory,
    TrajectoryDataset,
    grid_network,
    load_dataset_jsonl,
    save_dataset_jsonl,
)
from repro.engine import EngineConfig, TrajectoryEngine
from repro.trajectories import straight_biased_walks


def daily_batches(n_days: int = 3, trips_per_day: int = 25) -> list[list[Trajectory]]:
    """Generate a few days of timestamped trips on the same road network."""
    network = grid_network(7, 7)
    batches: list[list[Trajectory]] = []
    for day in range(n_days):
        rng = np.random.default_rng(100 + day)
        walks = straight_biased_walks(
            network, n_trajectories=trips_per_day, min_length=6, max_length=18, rng=rng
        )
        for trajectory in walks:
            departure = float(day * 86_400 + rng.integers(0, 43_200))
            dwell = rng.integers(10, 120, size=len(trajectory.edges)).astype(float)
            trajectory.timestamps = list(departure + np.cumsum(dwell) - dwell[0])
        batches.append(walks)
    return batches


def main() -> None:
    batches = daily_batches()
    probe_path = list(batches[0][0].edges[:3])

    # ---- growing index ---------------------------------------------------- #
    # An empty partitioned engine grows one partition per arriving batch.
    growing = TrajectoryEngine.build(
        [], EngineConfig(backend="partitioned-cinct", block_size=31, max_partitions=5)
    )
    for day, batch in enumerate(batches):
        growing.add_batch(batch)
        print(
            f"day {day}: {growing.n_partitions} partition(s), "
            f"{growing.n_trajectories} trips, "
            f"{growing.bits_per_symbol():.2f} bits/symbol, "
            f"probe path count = {growing.count(probe_path)}"
        )

    before = growing.count(probe_path)
    growing.consolidate()
    print(f"after consolidation: {growing.n_partitions} partition, "
          f"probe path count = {growing.count(probe_path)} (unchanged: {growing.count(probe_path) == before})")

    # ---- strict-path on the unsampled engine ------------------------------ #
    # No sa_sample_rate was configured: locate/strict-path fall back to the
    # partitions' retained suffix arrays instead of raising.
    day0_end = 86_400.0
    day0_matches = growing.strict_path(probe_path, 0.0, day0_end)
    store = growing.timestamp_store
    print(f"strict path {probe_path} on day 0: {len(day0_matches)} traversal(s); "
          f"timestamp store holds {store.n_timestamped}/{store.n_trajectories} "
          f"trajectories in {growing.temporal_size_in_bits()} bits")
    print()

    with tempfile.TemporaryDirectory() as tmp:
        # ---- persistence ---------------------------------------------------- #
        # save()/load() work for both backends; here the partitioned fleet...
        fleet_dir = Path(tmp) / "fleet-partitioned"
        growing.save(fleet_dir)
        on_disk = sum(f.stat().st_size for f in fleet_dir.iterdir())
        npz_bytes = (fleet_dir / "timestamps.npz").stat().st_size
        print(f"saved partitioned engine to {fleet_dir} ({on_disk / 1024:.1f} KiB on disk, "
              f"timestamps.npz {npz_bytes / 1024:.1f} KiB)")
        reloaded = TrajectoryEngine.load(fleet_dir)
        print(f"reloaded engine answers the probe query: {reloaded.count(probe_path)} "
              f"(live engine says {growing.count(probe_path)})")
        print(f"reloaded strict-path matches survive byte-identically: "
              f"{reloaded.strict_path(probe_path, 0.0, day0_end) == day0_matches}")

        # ...and the exact same two calls persist a monolithic CiNCT engine.
        all_trips = [trip for batch in batches for trip in batch]
        monolith = TrajectoryEngine.build(all_trips, EngineConfig(backend="cinct", block_size=31))
        cinct_dir = Path(tmp) / "fleet-cinct"
        monolith.save(cinct_dir)
        print(f"monolithic CiNCT round-trip: "
              f"{TrajectoryEngine.load(cinct_dir).count(probe_path)} matches")
        print()

        # ---- dataset export / import -------------------------------------- #
        dataset = TrajectoryDataset(name="fleet-export", trajectories=all_trips)
        export_path = Path(tmp) / "fleet.jsonl"
        save_dataset_jsonl(dataset, export_path)
        reimported = load_dataset_jsonl(export_path)
        print(f"exported {len(dataset)} trips to JSONL and re-imported {len(reimported)} trips")


if __name__ == "__main__":
    main()
