"""Strict-path/locate matrix: every backend variant, sampled and not.

The headline regression this suite pins down: CiNCT-family backends built
*without* ``sa_sample_rate`` used to raise ``QueryError: locate requires the
index to be built with sa_sample_rate`` from ``locate``/``strict_path``
instead of answering via the retained suffix array.  Every combination of

* backend variant (:mod:`engine_variants`, less ``cinct-unsampled``, which
  the sampling axis already covers),
* SA sampling (``sa_sample_rate=8`` vs unsampled),
* growth stage (built in one shot vs grown via ``add_batch``), and
* persistence (live engine vs a save/load round-trip)

must return the same matches as a brute-force scan of the raw trajectories
(:mod:`brute_force`).
"""

from __future__ import annotations

import engine_variants
import numpy as np
import pytest
from brute_force import as_tuples
from brute_force import locate as brute_force_matches

from repro.engine import EngineConfig, TrajectoryEngine
from repro.network import grid_network
from repro.trajectories import TrajectoryDataset, straight_biased_walks

VARIANTS = [name for name in engine_variants.NAMES if name != "cinct-unsampled"]
SAMPLING = [8, None]


@pytest.fixture(scope="module")
def fleet_dataset():
    network = grid_network(4, 4)
    rng = np.random.default_rng(42)
    trajectories = straight_biased_walks(
        network, n_trajectories=14, min_length=4, max_length=10, rng=rng
    )
    for k, trajectory in enumerate(trajectories):
        departure = float(rng.uniform(0, 200))
        if k % 2:
            # integral dwells exercise the delta-encoded store entries...
            dwell = rng.integers(2, 12, size=len(trajectory.edges)).astype(float)
        else:
            # ...fractional dwells exercise the raw-float fallback
            dwell = rng.uniform(2, 12, size=len(trajectory.edges))
        trajectory.timestamps = list(departure + np.cumsum(dwell) - dwell[0])
    return TrajectoryDataset(name="matrix-fleet", trajectories=trajectories, network=network)


@pytest.fixture(scope="module")
def probe_paths(fleet_dataset):
    paths = []
    for trajectory in fleet_dataset.trajectories[:6]:
        edges = list(trajectory.edges)
        paths.append(edges[:2])
        paths.append(edges[1:4] if len(edges) >= 4 else edges[-2:])
    paths.append(["nowhere", "else"])
    return paths


def build_engine(fleet_dataset, variant, sa_sample_rate, grown):
    fields = dict(block_size=31, sa_sample_rate=sa_sample_rate)
    if grown:
        engine = engine_variants.build(variant, fleet_dataset.trajectories[:7], **fields)
        engine.add_batch(fleet_dataset.trajectories[7:])
        return engine
    return engine_variants.build(variant, fleet_dataset, **fields)


def lifecycle(fleet_dataset, variant, sa_sample_rate, tmp_path):
    """Pre/post-growth × pre/post-reload engines for one configuration."""
    stages = [False, True] if engine_variants.spec(variant).supports_growth else [False]
    for grown in stages:
        engine = build_engine(fleet_dataset, variant, sa_sample_rate, grown)
        yield f"grown={grown} reloaded=False", engine
        directory = tmp_path / f"{variant}-{sa_sample_rate}-{grown}"
        engine.save(directory)
        yield f"grown={grown} reloaded=True", TrajectoryEngine.load(directory)


@pytest.mark.parametrize("sa_sample_rate", SAMPLING, ids=["sampled", "unsampled"])
@pytest.mark.parametrize("variant", VARIANTS)
class TestLocateMatrix:
    def test_locate_matches_brute_force(
        self, fleet_dataset, probe_paths, tmp_path, variant, sa_sample_rate
    ):
        for label, engine in lifecycle(fleet_dataset, variant, sa_sample_rate, tmp_path):
            for path in probe_paths:
                if path == ["nowhere", "else"]:
                    continue  # unknown segments raise AlphabetError by contract
                got = as_tuples(engine.locate(path))
                assert got == brute_force_matches(fleet_dataset, path), (label, path)

    def test_strict_path_window_matches_brute_force(
        self, fleet_dataset, probe_paths, tmp_path, variant, sa_sample_rate
    ):
        # One engine per (variant, sampling); windows derived from real matches.
        for label, engine in lifecycle(fleet_dataset, variant, sa_sample_rate, tmp_path):
            for path in probe_paths[:6]:
                full = brute_force_matches(fleet_dataset, path)
                assert as_tuples(engine.strict_path(path)) == full, (label, path)
                if not full:
                    continue
                t_start, t_end = full[0][3], full[0][4]
                got = as_tuples(engine.strict_path(path, t_start, t_end))
                assert got == brute_force_matches(fleet_dataset, path, t_start, t_end), (
                    label,
                    path,
                )

    def test_unsampled_issue_repro(self, fleet_dataset, probe_paths, tmp_path, variant, sa_sample_rate):
        # The literal ISSUE repro: a windowed strict-path query must return
        # matches (not QueryError) even without sa_sample_rate.
        engine = build_engine(fleet_dataset, variant, sa_sample_rate, grown=False)
        path = list(fleet_dataset.trajectories[0].edges[:2])
        matches = engine.strict_path(path, t_start=0.0, t_end=1e9)
        assert matches == engine.strict_path(path)


def test_partitioned_unsampled_strict_path_smoke():
    """The exact reproduction from the issue report."""
    engine = TrajectoryEngine.build(
        [[1, 2, 3, 4], [2, 3, 4, 5], [1, 2, 3]],
        EngineConfig(backend="partitioned-cinct"),
    )
    matches = engine.locate([2, 3])
    assert [(m.trajectory_id, m.start_edge_index) for m in matches] == [
        (0, 1),
        (1, 0),
        (2, 1),
    ]


class TestPartialTimestampSemantics:
    """Windowed strict-path on a partially timestamped fleet filters per match."""

    @pytest.fixture(scope="class")
    def partial_engine(self):
        from repro.trajectories import Trajectory

        trajectories = [
            Trajectory(edges=["a", "b", "c"], timestamps=[0.0, 5.0, 10.0]),
            Trajectory(edges=["a", "b", "c"]),  # no timestamps: dropped in windows
            Trajectory(edges=["a", "b", "d"], timestamps=[100.0, 105.0, 110.0]),
        ]
        return TrajectoryEngine.build(
            trajectories, EngineConfig(backend="cinct", block_size=15, sa_sample_rate=4)
        )

    def test_unwindowed_returns_untimed_matches(self, partial_engine):
        matches = partial_engine.strict_path(["a", "b"])
        assert {m.trajectory_id for m in matches} == {0, 1, 2}
        assert partial_engine.strict_path(["a", "b"]) == partial_engine.locate(["a", "b"])

    def test_window_drops_untimed_matches_only(self, partial_engine):
        matches = partial_engine.strict_path(["a", "b"], 0.0, 200.0)
        assert {m.trajectory_id for m in matches} == {0, 2}
        narrow = partial_engine.strict_path(["a", "b"], 0.0, 20.0)
        assert {m.trajectory_id for m in narrow} == {0}

    def test_fully_untimed_fleet_still_rejected(self):
        from repro.exceptions import QueryError

        engine = TrajectoryEngine.build(
            [["a", "b"], ["b", "c"]],
            EngineConfig(backend="cinct", block_size=15, sa_sample_rate=4),
        )
        with pytest.raises(QueryError, match="no timestamps"):
            engine.strict_path(["a", "b"], 0.0, 1.0)
