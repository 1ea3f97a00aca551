"""Quickstart: one engine API over both index backends.

This walks through the paper's running example (Fig. 1a) — four
network-constrained trajectories over six road segments A-F — using the
:class:`repro.engine.TrajectoryEngine` facade:

* build an index from raw edge sequences (no manual pattern encoding),
* count / locate paths, including paths that never occur,
* extract a sub-path from the compressed representation (Algorithm 4),
* attach per-segment timestamps and run a time-windowed strict-path query
  (the timestamps live in the engine's compressed TimestampStore),
* run the same queries against both backends: ``cinct`` and the growing
  ``partitioned-cinct``.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Trajectory
from repro.engine import (
    CountQuery,
    EngineConfig,
    ExtractQuery,
    LocateQuery,
    TrajectoryEngine,
    available_backends,
)

# The four example NCTs of Fig. 1a, each a list of road-segment IDs in travel
# order.  Segment IDs can be any hashable values (strings here; the realistic
# examples use (tail, head) node pairs).
TRAJECTORIES = [
    ["A", "B", "E", "F"],
    ["A", "B", "C"],
    ["B", "C"],
    ["A", "D"],
]


def main() -> None:
    # One call builds the whole pipeline: trajectory string -> BWT -> ET-graph
    # -> RML labelling -> PseudoRank correction terms -> compressed wavelet
    # tree.  The engine owns the alphabet, so queries are raw edge sequences.
    engine = TrajectoryEngine.build(
        TRAJECTORIES, EngineConfig(backend="cinct", block_size=15, sa_sample_rate=4)
    )

    print("Indexed", engine.n_trajectories, "trajectories,",
          engine.length, "symbols,",
          f"{engine.bits_per_symbol():.1f} bits/symbol (tiny data => overhead-dominated)")
    print()

    # --- Pattern matching (suffix-range queries) -------------------------- #
    for path in (["A", "B"], ["B", "C"], ["A", "B", "E", "F"], ["B", "A"]):
        matches = engine.locate(path)
        print(f"path {'->'.join(path):<12} count={engine.count(path)}  "
              f"trajectories={sorted({m.trajectory_id for m in matches})}")
    print()

    # --- Sub-path extraction ---------------------------------------------- #
    # Row 0 of the BWT corresponds to the rotation starting with '#', i.e. the
    # end of the trajectory string; extracting 4 symbols from it recovers the
    # last stored trajectory fragments (see Section IV-C of the paper).
    print("extract(0, 4) recovers the symbols", engine.extract(0, 4))
    print()

    # --- Strict-path queries with timestamps ------------------------------ #
    # Attaching timestamps turns locate into a strict path query; note the
    # engine here has NO sa_sample_rate — locate falls back to the retained
    # suffix array, and the timestamps are held delta-encoded in the
    # engine's TimestampStore (persisted as timestamps.npz by save()).
    timed = TrajectoryEngine.build(
        [
            Trajectory(edges=edges, timestamps=[60.0 * k * (i + 1) for k in range(len(edges))])
            for i, edges in enumerate(TRAJECTORIES)
        ],
        EngineConfig(backend="cinct", block_size=15),
    )
    window = timed.strict_path(["A", "B"], t_start=0.0, t_end=90.0)
    print(f"strict path A->B in [0, 90]s: trajectories "
          f"{sorted({m.trajectory_id for m in window})} "
          f"(timestamp store: {timed.temporal_size_in_bits()} bits)")
    print()

    # --- Batched, typed queries ------------------------------------------- #
    # run_many drives the staged pipeline (normalize -> optimize -> execute):
    # the batch is grouped by query type, duplicates are answered once, and
    # repeats land in the engine's epoch-invalidated result cache.
    results = engine.run_many(
        [CountQuery(["A", "B"]), LocateQuery(["B", "C"]), ExtractQuery(row=0, length=4)]
    )
    for result in results:
        print(type(result).__name__, "->", result)
    engine.run_many(
        [CountQuery(["A", "B"]), LocateQuery(["B", "C"]), ExtractQuery(row=0, length=4)]
    )
    stats = engine.cache_stats()
    print(f"result cache after the repeat: hits={stats['hits']} "
          f"misses={stats['misses']} (epoch {engine.epoch})")
    print()

    # --- The same API over both backends ------------------------------------ #
    probe = ["A", "B"]
    for name in available_backends():
        backend_engine = TrajectoryEngine.build(
            TRAJECTORIES, EngineConfig(backend=name, block_size=15, sa_sample_rate=4)
        )
        print(f"{backend_engine.spec.display_name:<11} count({'->'.join(probe)}) = "
              f"{backend_engine.count(probe)}  "
              f"[{backend_engine.size_in_bits()} bits]")


if __name__ == "__main__":
    main()
