"""Tests for dataset and index persistence (:mod:`repro.io`)."""

from __future__ import annotations

import pytest

from repro.core import CiNCT
from repro.exceptions import DatasetError
from repro.io import (
    load_dataset_csv,
    load_dataset_jsonl,
    save_dataset_csv,
    save_dataset_jsonl,
)
from repro.trajectories import Trajectory, TrajectoryDataset


@pytest.fixture()
def timed_dataset():
    trajectories = [
        Trajectory(edges=["a", "b", "c"], timestamps=[0.0, 10.0, 25.0]),
        Trajectory(edges=[("n1", "n2"), ("n2", "n3")], timestamps=[5.0, 9.0]),
        Trajectory(edges=["c", "d"], timestamps=[100.0, 130.0]),
    ]
    return TrajectoryDataset(name="io-fixture", trajectories=trajectories)


class TestDatasetJsonl:
    def test_roundtrip(self, timed_dataset, tmp_path):
        path = save_dataset_jsonl(timed_dataset, tmp_path / "data.jsonl")
        loaded = load_dataset_jsonl(path)
        assert len(loaded) == len(timed_dataset)
        for original, reloaded in zip(timed_dataset, loaded):
            assert list(original.edges) == list(reloaded.edges)
            assert original.timestamps == pytest.approx(reloaded.timestamps)

    def test_tuple_edges_stay_hashable(self, timed_dataset, tmp_path):
        path = save_dataset_jsonl(timed_dataset, tmp_path / "data.jsonl")
        loaded = load_dataset_jsonl(path)
        assert loaded.trajectories[1].edges[0] == ("n1", "n2")
        # The loaded dataset must be indexable end to end.
        index, trajectory_string = CiNCT.from_trajectories([t.edges for t in loaded])
        assert index.count(trajectory_string.encode_pattern([("n1", "n2"), ("n2", "n3")])) == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset_jsonl(tmp_path / "nope.jsonl")

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"edges": ["a"]}\nnot-json\n', encoding="utf-8")
        with pytest.raises(DatasetError):
            load_dataset_jsonl(path)

    def test_trajectory_without_edges_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"edges": []}\n', encoding="utf-8")
        with pytest.raises(DatasetError):
            load_dataset_jsonl(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DatasetError):
            load_dataset_jsonl(path)


class TestDatasetCsv:
    def test_roundtrip(self, timed_dataset, tmp_path):
        path = save_dataset_csv(timed_dataset, tmp_path / "data.csv")
        loaded = load_dataset_csv(path)
        assert len(loaded) == len(timed_dataset)
        for original, reloaded in zip(timed_dataset, loaded):
            assert list(original.edges) == list(reloaded.edges)
            assert original.timestamps == pytest.approx(reloaded.timestamps)

    def test_roundtrip_without_timestamps(self, tmp_path):
        dataset = TrajectoryDataset(
            name="plain",
            trajectories=[Trajectory(edges=["x", "y"]), Trajectory(edges=["y", "z", "x"])],
        )
        loaded = load_dataset_csv(save_dataset_csv(dataset, tmp_path / "plain.csv"))
        assert [t.edges for t in loaded] == [t.edges for t in dataset]
        assert all(t.timestamps is None for t in loaded)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n", encoding="utf-8")
        with pytest.raises(DatasetError):
            load_dataset_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset_csv(tmp_path / "nope.csv")
