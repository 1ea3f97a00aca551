"""Tests for the temporal index and strict path queries."""

from __future__ import annotations

import brute_force
import pytest

from repro.exceptions import ConstructionError, QueryError
from repro.queries import StrictPathIndex, TemporalIndex
from repro.trajectories import Trajectory, TrajectoryDataset


@pytest.fixture(scope="module")
def strict_index(medium_dataset):
    return StrictPathIndex(medium_dataset, block_size=31, sa_sample_rate=8)


def brute_force_matches(dataset, path, t_start=None, t_end=None):
    """``(trajectory_id, start_edge_index)`` of every brute-force match."""
    return [match[:2] for match in brute_force.locate(dataset, path, t_start, t_end)]


class TestTemporalIndex:
    def test_requires_timestamps(self):
        dataset = [Trajectory(edges=[(0, 1), (1, 2)])]
        with pytest.raises(ConstructionError):
            TemporalIndex.from_trajectories(dataset)

    def test_rejects_decreasing_timestamps(self):
        bad = [Trajectory(edges=[(0, 1), (1, 2)], timestamps=[5.0, 1.0])]
        with pytest.raises(ConstructionError):
            TemporalIndex.from_trajectories(bad)

    def test_timestamp_reconstruction(self, medium_dataset):
        index = TemporalIndex.from_trajectories(medium_dataset.trajectories)
        for trajectory in medium_dataset.trajectories[:5]:
            for edge_index in range(len(trajectory)):
                expected = trajectory.timestamps[edge_index]
                got = index.timestamp(trajectory.trajectory_id, edge_index)
                assert got == pytest.approx(expected)

    def test_timestamp_bounds(self, medium_dataset):
        index = TemporalIndex.from_trajectories(medium_dataset.trajectories)
        with pytest.raises(QueryError):
            index.timestamp(10**6, 0)
        with pytest.raises(QueryError):
            index.timestamp(0, 10**6)

    def test_active_during(self, medium_dataset):
        index = TemporalIndex.from_trajectories(medium_dataset.trajectories)
        t0 = medium_dataset.trajectories[3].timestamps[0]
        t1 = medium_dataset.trajectories[3].timestamps[-1]
        active = index.active_during(t0, t1)
        assert 3 in active
        with pytest.raises(QueryError):
            index.active_during(10.0, 5.0)

    def test_active_during_everything(self, medium_dataset):
        index = TemporalIndex.from_trajectories(medium_dataset.trajectories)
        assert len(index.active_during(-1e18, 1e18)) == len(medium_dataset)

    def test_size_in_bits(self, medium_dataset):
        index = TemporalIndex.from_trajectories(medium_dataset.trajectories)
        assert index.size_in_bits() > 0
        assert index.n_trajectories == len(medium_dataset)


class TestStrictPathSpatial:
    def test_matches_equal_brute_force(self, strict_index, medium_dataset):
        for trajectory in medium_dataset.trajectories[::5]:
            for length in (2, 3, 4):
                if len(trajectory) < length:
                    continue
                path = trajectory.edges[1 : 1 + length]
                expected = brute_force_matches(medium_dataset, path)
                got = sorted(
                    (match.trajectory_id, match.start_edge_index)
                    for match in strict_index.query(path)
                )
                assert got == expected

    def test_count_path(self, strict_index, medium_dataset):
        trajectory = medium_dataset.trajectories[0]
        path = trajectory.edges[:2]
        assert strict_index.count_path(path) == len(brute_force_matches(medium_dataset, path))

    def test_missing_path_returns_empty(self, strict_index, medium_dataset):
        network = medium_dataset.network
        # A valid edge pair that is extremely unlikely to be travelled backwards
        absent = [((0, 0), (0, 1)), ((0, 1), (0, 0))]
        result = strict_index.query(absent)
        assert result == [] or all(isinstance(m.trajectory_id, int) for m in result)

    def test_empty_path_rejected(self, strict_index):
        with pytest.raises(QueryError):
            strict_index.query([])

    def test_matching_trajectory_ids_distinct(self, strict_index, medium_dataset):
        trajectory = medium_dataset.trajectories[2]
        path = trajectory.edges[:2]
        ids = strict_index.matching_trajectory_ids(path)
        assert ids == sorted(set(ids))
        assert trajectory.trajectory_id in ids


class TestStrictPathTemporal:
    def test_temporal_filter_matches_brute_force(self, strict_index, medium_dataset):
        trajectory = medium_dataset.trajectories[4]
        path = trajectory.edges[2:5]
        t_start = trajectory.timestamps[2]
        t_end = trajectory.timestamps[4]
        expected = brute_force_matches(medium_dataset, path, t_start, t_end)
        got = sorted(
            (match.trajectory_id, match.start_edge_index)
            for match in strict_index.query(path, t_start, t_end)
        )
        assert got == expected
        assert (trajectory.trajectory_id, 2) in got

    def test_window_outside_excludes_everything(self, strict_index, medium_dataset):
        trajectory = medium_dataset.trajectories[1]
        path = trajectory.edges[:3]
        matches = strict_index.query(path, -1e9, -1e8)
        assert matches == []

    def test_half_open_interval_rejected(self, strict_index, medium_dataset):
        path = medium_dataset.trajectories[0].edges[:2]
        with pytest.raises(QueryError):
            strict_index.query(path, 0.0, None)

    def test_dataset_without_timestamps(self, medium_dataset):
        bare = TrajectoryDataset(
            name="bare",
            trajectories=[Trajectory(edges=list(t.edges)) for t in medium_dataset.trajectories[:10]],
            network=medium_dataset.network,
        )
        index = StrictPathIndex(bare, block_size=31)
        path = bare.trajectories[0].edges[:2]
        assert index.count_path(path) >= 1
        with pytest.raises(QueryError):
            index.query(path, 0.0, 1.0)


class TestStrictPathSizes:
    def test_size_includes_temporal(self, strict_index):
        assert strict_index.size_in_bits() > strict_index.cinct.size_in_bits()

    def test_temporal_accessor(self, strict_index):
        assert strict_index.temporal is not None
