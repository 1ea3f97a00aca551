"""Error normalization: identical exception types and messages everywhere.

Empty patterns, unknown road segments and queries on empty indexes must raise
the same :class:`~repro.exceptions.QueryError` / AlphabetError with the
canonical messages of :mod:`repro.exceptions`, both through the engine facade
(for every backend variant of :mod:`engine_variants`) and through the
individual index classes.
"""

from __future__ import annotations

import engine_variants
import pytest

from repro.core import CiNCT, PartitionedCiNCT
from repro.engine import (
    CountQuery,
    StrictPathQuery,
    TrajectoryEngine,
    build_engine,
)
from repro.exceptions import (
    EMPTY_INDEX_MESSAGE,
    EMPTY_PATH_MESSAGE,
    EMPTY_PATTERN_MESSAGE,
    AlphabetError,
    ConstructionError,
    QueryError,
    symbol_out_of_range_message,
    unknown_segment_message,
)
from repro.fmindex import LinearScanIndex, UncompressedFMIndex

VARIANTS = engine_variants.NAMES
TRAJECTORIES = [["A", "B", "E", "F"], ["A", "B", "C"], ["B", "C"], ["A", "D"]]


@pytest.fixture(scope="module")
def engines():
    return {
        name: engine_variants.build(name, TRAJECTORIES, block_size=15, sa_sample_rate=4)
        for name in VARIANTS
    }


@pytest.mark.parametrize("variant", VARIANTS)
class TestEngineNormalization:
    def test_empty_path_raises_canonical_query_error(self, engines, variant):
        engine = engines[variant]
        for method in (engine.count, engine.contains, engine.locate, engine.strict_path):
            with pytest.raises(QueryError, match=EMPTY_PATH_MESSAGE):
                method([])

    def test_unknown_segment_raises_canonical_alphabet_error(self, engines, variant):
        engine = engines[variant]
        expected = unknown_segment_message("ZZ")
        for method in (engine.count, engine.contains, engine.locate, engine.strict_path):
            with pytest.raises(AlphabetError) as excinfo:
                method(["A", "ZZ"])
            assert str(excinfo.value) == expected

    def test_half_open_time_window_rejected(self, engines, variant):
        engine = engines[variant]
        with pytest.raises(QueryError, match="both t_start and t_end"):
            engine.strict_path(["A", "B"], t_start=0.0)

    def test_window_without_timestamps_rejected(self, engines, variant):
        engine = engines[variant]
        with pytest.raises(QueryError, match="no timestamps"):
            engine.strict_path(["A", "B"], 0.0, 1.0)

    def test_extract_capability_is_enforced(self, engines, variant):
        engine = engines[variant]
        if engine_variants.spec(variant).supports_extract:
            assert len(engine.extract(0, 2)) == 2
        else:
            with pytest.raises(QueryError, match="not supported"):
                engine.extract(0, 2)

    def test_building_from_zero_trajectories(self, variant):
        config = engine_variants.config(variant, block_size=15)
        if engine_variants.spec(variant).supports_growth:
            engine = TrajectoryEngine.build([], config)
            with pytest.raises(QueryError, match=EMPTY_INDEX_MESSAGE):
                engine.count(["A"])
        else:
            with pytest.raises(ConstructionError, match="zero trajectories"):
                TrajectoryEngine.build([], config)

    def test_growth_capability_is_enforced(self, engines, variant):
        engine = engines[variant]
        if engine_variants.spec(variant).supports_growth:
            # Partitions hold the fleet, or (compaction off) the tail does.
            in_tail = engine.ingest_stats()["tail"]["trajectories"]
            assert engine.n_partitions >= 1 or in_tail == engine.n_trajectories
        else:
            assert engine.n_partitions == 1
            with pytest.raises(ConstructionError, match="immutable once built"):
                engine.add_batch([["A", "B"]])
            with pytest.raises(ConstructionError, match="monolithic"):
                engine.consolidate()

    def test_decreasing_timestamps_rejected(self, variant):
        from repro.trajectories import Trajectory

        bad = [Trajectory(edges=["A", "B", "C"], timestamps=[10.0, 5.0, 0.0])]
        with pytest.raises(ConstructionError, match="decreasing timestamps"):
            engine_variants.build(variant, bad, block_size=15)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_timestamps_rejected(self, engines, variant, bad):
        from repro.trajectories import Trajectory

        num_shards = engines[variant].num_shards
        fleet = [
            Trajectory(edges=["A", "B"], timestamps=[0.0, 1.0]),
            Trajectory(edges=["A", "B", "C"], timestamps=[2.0, bad, 9.0]),
        ]
        with pytest.raises(ConstructionError, match="trajectory 1 has non-finite"):
            engine_variants.build(variant, fleet, block_size=15, num_shards=num_shards)
        if engine_variants.spec(variant).supports_growth:
            config = engine_variants.config(variant, block_size=15, num_shards=num_shards)
            engine = TrajectoryEngine.build(fleet[:1], config)
            with pytest.raises(ConstructionError, match="trajectory 1 has non-finite"):
                engine.add_batch(fleet[1:])
            assert engine.n_trajectories == 1

    def test_nan_window_bounds_rejected(self, engines, variant):
        from repro.trajectories import Trajectory

        timed = [
            Trajectory(edges=edges, timestamps=[float(i) for i in range(len(edges))])
            for edges in TRAJECTORIES
        ]
        engine = engine_variants.build(
            variant,
            timed,
            block_size=15,
            sa_sample_rate=4,
            num_shards=engines[variant].num_shards,
        )
        nan = float("nan")
        for t_start, t_end in ((nan, nan), (nan, 10.0), (0.0, nan)):
            with pytest.raises(QueryError, match="must not be NaN"):
                engine.strict_path(["A", "B"], t_start, t_end)
        # Infinite bounds stay legal: an open window.
        window = engine.strict_path(["A", "B"], -float("inf"), float("inf"))
        assert window == engine.locate(["A", "B"])

    def test_inverted_time_window_rejected_at_plan_time(self, engines, variant):
        from repro.trajectories import Trajectory

        # Partly timestamped, so no shard can filter by trajectory activity:
        # only the planner sees the inverted window, before anything runs.
        fleet = [
            Trajectory(
                edges=edges,
                timestamps=[float(i) for i in range(len(edges))] if k % 2 == 0 else None,
            )
            for k, edges in enumerate(TRAJECTORIES)
        ]
        engine = engine_variants.build(
            variant,
            fleet,
            block_size=15,
            sa_sample_rate=4,
            num_shards=engines[variant].num_shards,
        )
        before = engine.cache_stats()
        with pytest.raises(QueryError, match="t_end must not precede t_start"):
            engine.strict_path(["A", "B"], 20.0, 5.0)
        with pytest.raises(QueryError, match="t_end must not precede t_start"):
            engine.run_many([CountQuery(["A"]), StrictPathQuery(["A", "B"], 20.0, 5.0)])
        assert engine.cache_stats() == before  # nothing executed
        assert engine.strict_path(["A", "B"], 5.0, 5.0) == []

    def test_timestamps_of_unknown_trajectory_raises(self, engines, variant):
        engine = engines[variant]
        for trajectory_id in (99, -1):
            with pytest.raises(QueryError, match=f"trajectory id {trajectory_id} out of range"):
                engine.timestamps_of(trajectory_id)

    def test_growth_capability_checked_before_timestamps(self, engines, variant):
        from repro.trajectories import Trajectory

        engine = engines[variant]
        batch = [
            Trajectory(edges=["A", "B"], timestamps=[0.0, 1.0]),
            Trajectory(edges=["B", "C"], timestamps=[5.0, 2.0]),
        ]
        if engine_variants.spec(variant).supports_growth:
            expected = "trajectory 5 has decreasing timestamps"  # a global id
        else:
            expected = "immutable once built"
        with pytest.raises(ConstructionError, match=expected):
            engine.add_batch(batch)
        assert engine.n_trajectories == len(TRAJECTORIES)


class TestShardedNormalization(TestEngineNormalization):
    """A sharded fleet raises the identical canonical errors.

    Inherits every normalization case of :class:`TestEngineNormalization`
    and runs it against 3-shard fleets; the capability/growth/zero cases
    whose expectations are shard-aware are overridden below.
    """

    @pytest.fixture(scope="class")
    def engines(self):
        return {
            name: engine_variants.build(
                name, TRAJECTORIES, block_size=15, sa_sample_rate=4, num_shards=3
            )
            for name in VARIANTS
        }

    def test_building_from_zero_trajectories(self, variant):
        config = engine_variants.config(variant, block_size=15, num_shards=3)
        if engine_variants.spec(variant).supports_growth:
            engine = build_engine([], config)
            with pytest.raises(QueryError, match=EMPTY_INDEX_MESSAGE):
                engine.count(["A"])
        else:
            with pytest.raises(ConstructionError, match="zero trajectories"):
                build_engine([], config)

    def test_growth_capability_is_enforced(self, engines, variant):
        engine = engines[variant]
        if engine_variants.spec(variant).supports_growth:
            in_tail = engine.ingest_stats()["tail"]["trajectories"]
            assert engine.n_partitions >= 1 or in_tail == engine.n_trajectories
        else:
            # One backend partition per populated shard.
            assert engine.n_partitions == 3
            with pytest.raises(ConstructionError, match="immutable once built"):
                engine.add_batch([["A", "B"]])
            with pytest.raises(ConstructionError, match="monolithic"):
                engine.consolidate()

    def test_decreasing_timestamps_rejected(self, variant):
        from repro.trajectories import Trajectory

        bad = [
            Trajectory(edges=["A", "B"], timestamps=[0.0, 1.0]),
            Trajectory(edges=["A", "B", "C"], timestamps=[10.0, 5.0, 0.0]),
        ]
        # The message carries the *global* trajectory id, not a shard-local one.
        with pytest.raises(ConstructionError, match="trajectory 1 has decreasing"):
            engine_variants.build(variant, bad, block_size=15, num_shards=3)


class TestDirectEntryPointNormalization:
    """The pre-facade entry points share the exact canonical messages."""

    def test_empty_pattern_message_is_shared(self, paper_bwt):
        indexes = [
            CiNCT(paper_bwt, block_size=15),
            UncompressedFMIndex(paper_bwt),
            LinearScanIndex(paper_bwt.text, sigma=paper_bwt.sigma),
        ]
        for index in indexes:
            with pytest.raises(QueryError, match=EMPTY_PATTERN_MESSAGE):
                index.count([])

    def test_out_of_range_symbol_message_is_shared(self, paper_bwt):
        bad_symbol = paper_bwt.sigma + 5
        expected = symbol_out_of_range_message(bad_symbol, paper_bwt.sigma)
        indexes = [
            CiNCT(paper_bwt, block_size=15),
            UncompressedFMIndex(paper_bwt),
            LinearScanIndex(paper_bwt.text, sigma=paper_bwt.sigma),
        ]
        for index in indexes:
            with pytest.raises(QueryError) as excinfo:
                index.count([bad_symbol])
            assert str(excinfo.value) == expected

    def test_partitioned_empty_index_message(self):
        partitioned = PartitionedCiNCT()
        with pytest.raises(QueryError, match=EMPTY_INDEX_MESSAGE):
            partitioned.count(["A"])

    def test_partitioned_empty_path_message(self):
        partitioned = PartitionedCiNCT()
        partitioned.add_batch(TRAJECTORIES)
        with pytest.raises(QueryError, match=EMPTY_PATH_MESSAGE):
            partitioned.count([])
