"""Tests for the ``repro-cinct`` command-line interface (engine-facade based)."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro import cli
from repro.bench import build_index, bwt_of_bundle
from repro.cli import build_parser, main
from repro.datasets.registry import load_dataset
from repro.io import save_dataset_jsonl
from repro.trajectories import Trajectory, TrajectoryDataset


@pytest.fixture()
def jsonl_dataset(tmp_path):
    dataset = TrajectoryDataset(
        name="cli-fixture",
        trajectories=[
            Trajectory(edges=["a", "b", "c", "d"]),
            Trajectory(edges=["b", "c", "d", "e"]),
            Trajectory(edges=["a", "b", "c"]),
        ],
    )
    return save_dataset_jsonl(dataset, tmp_path / "trips.jsonl")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_stats_arguments(self):
        args = build_parser().parse_args(["stats", "--dataset", "roma", "--scale", "0.1"])
        assert args.dataset == "roma"
        assert args.scale == 0.1

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--dataset", "atlantis"])


class TestStatsCommand:
    def test_prints_table(self, capsys):
        assert main(["stats", "--dataset", "chess", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "H0(" in out or "H0" in out
        assert "Chess" in out


class TestBuildAndQuery:
    def test_build_from_jsonl_then_query(self, jsonl_dataset, tmp_path, capsys):
        output = tmp_path / "index"
        assert main(["build", "--input", str(jsonl_dataset), "--output", str(output)]) == 0
        build_output = capsys.readouterr().out
        assert "index size" in build_output
        assert (output / "cinct.npz").exists()
        assert (output / "engine.json").exists()

        assert main(["query", "--index", str(output), "b", "c", "d"]) == 0
        query_output = capsys.readouterr().out
        assert "matches   : 2" in query_output

    def test_sharded_build_with_timestamps_then_query(self, tmp_path, capsys):
        # The build summary reads engine.timestamp_store when timestamps are
        # present; it must work on a sharded fleet too.
        dataset = TrajectoryDataset(
            name="cli-sharded",
            trajectories=[
                Trajectory(edges=["a", "b", "c"], timestamps=[0.0, 5.0, 10.0]),
                Trajectory(edges=["b", "c", "d"], timestamps=[20.0, 25.0, 30.0]),
                Trajectory(edges=["a", "b", "d"], timestamps=[40.0, 45.0, 50.0]),
            ],
        )
        source = save_dataset_jsonl(dataset, tmp_path / "timed.jsonl")
        output = tmp_path / "fleet"
        assert main([
            "build", "--input", str(source), "--backend", "partitioned-cinct",
            "--sa-sample-rate", "4", "--num-shards", "2", "--output", str(output),
        ]) == 0
        build_output = capsys.readouterr().out
        assert "shards            : 2" in build_output
        assert "temporal store" in build_output
        assert "3/3 trajectories timestamped" in build_output
        assert main([
            "query", "--index", str(output), "--t-start", "0", "--t-end", "60",
            "--verbose", "b", "c",
        ]) == 0
        query_output = capsys.readouterr().out
        assert "shards    : 2" in query_output
        assert "matches   : 2" in query_output

    @pytest.mark.parametrize("backend", ["partitioned-cinct"])
    def test_build_and_query_other_backends(self, jsonl_dataset, tmp_path, capsys, backend):
        output = tmp_path / f"index-{backend}"
        assert main(
            [
                "build",
                "--input",
                str(jsonl_dataset),
                "--backend",
                backend,
                "--output",
                str(output),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["query", "--index", str(output), "b", "c", "d"]) == 0
        assert "matches   : 2" in capsys.readouterr().out

    def test_strict_path_query_through_cli(self, tmp_path, capsys):
        dataset = TrajectoryDataset(
            name="timed",
            trajectories=[
                Trajectory(edges=["a", "b", "c"], timestamps=[0.0, 5.0, 10.0]),
                Trajectory(edges=["a", "b", "c"], timestamps=[100.0, 110.0, 120.0]),
            ],
        )
        source = save_dataset_jsonl(dataset, tmp_path / "timed.jsonl")
        output = tmp_path / "timed-index"
        assert main(
            [
                "build",
                "--input",
                str(source),
                "--sa-sample-rate",
                "4",
                "--output",
                str(output),
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            ["query", "--index", str(output), "--t-start", "0", "--t-end", "20", "a", "b"]
        ) == 0
        out = capsys.readouterr().out
        assert "matches   : 1" in out

    def test_query_verbose_reports_cache_and_epoch(self, jsonl_dataset, tmp_path, capsys):
        output = tmp_path / "index"
        main(["build", "--input", str(jsonl_dataset), "--output", str(output)])
        capsys.readouterr()
        assert main(["query", "--index", str(output), "--verbose", "b", "c", "d"]) == 0
        out = capsys.readouterr().out
        assert "cache     : on" in out
        assert "misses=1" in out
        assert "epoch     : 0" in out
        assert " bits counted, " in out and " held, 0 mapped" in out

    def test_query_no_cache_flag(self, jsonl_dataset, tmp_path, capsys):
        output = tmp_path / "index"
        main(["build", "--input", str(jsonl_dataset), "--output", str(output)])
        capsys.readouterr()
        rc = main(["query", "--index", str(output), "--no-cache", "--verbose", "b", "c", "d"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "matches   : 2" in out
        assert "cache     : off" in out

    def test_unknown_backend_rejected(self, jsonl_dataset, tmp_path, capsys):
        rc = main(
            [
                "build",
                "--input",
                str(jsonl_dataset),
                "--backend",
                "btree",
                "--output",
                str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "unknown index backend" in capsys.readouterr().err

    def test_query_unknown_segment_reports_zero(self, jsonl_dataset, tmp_path, capsys):
        output = tmp_path / "index"
        main(["build", "--input", str(jsonl_dataset), "--output", str(output)])
        capsys.readouterr()
        assert main(["query", "--index", str(output), "zz", "qq"]) == 0
        out = capsys.readouterr().out
        assert "not found" in out or "matches   : 0" in out

    def test_build_from_named_dataset(self, tmp_path, capsys):
        output = tmp_path / "roma-index"
        assert main(["build", "--dataset", "roma", "--scale", "0.05", "--output", str(output)]) == 0
        assert (output / "engine.json").exists()

    def test_query_older_format_asks_for_a_rebuild(self, tmp_path, capsys):
        # A directory of the retired CiNCT-only layout is no longer queryable.
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        (legacy / "index.json").write_text('{"format_version": 1}', encoding="utf-8")
        assert main(["query", "--index", str(legacy), "b", "c", "d"]) == 2
        assert "rebuild the index from its trajectories" in capsys.readouterr().err

    def test_build_requires_source(self, tmp_path, capsys):
        assert main(["build", "--output", str(tmp_path / "x")]) == 2
        assert "error" in capsys.readouterr().err

    def test_build_rejects_unknown_extension(self, tmp_path, capsys):
        bogus = tmp_path / "data.parquet"
        bogus.write_text("not really", encoding="utf-8")
        assert main(["build", "--input", str(bogus), "--output", str(tmp_path / "x")]) == 2


class TestCompareCommand:
    def test_compare_two_variants(self, capsys):
        rc = main(
            [
                "compare",
                "--dataset",
                "chess",
                "--scale",
                "0.05",
                "--variants",
                "CiNCT",
                "UFMI",
                "--n-patterns",
                "5",
                "--pattern-length",
                "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "CiNCT" in out
        assert "UFMI" in out
        assert "bits/symbol" in out

    def test_compare_sizes_are_the_fig10_indexes(self, capsys):
        # Each row's counted size is that of the method built over the
        # bundle's BWT exactly as the paper-shape benchmarks build it.
        methods = ["CiNCT", "ICB-WM", "FM-GMR"]
        rc = main(
            [
                "compare",
                "--dataset",
                "chess",
                "--scale",
                "0.05",
                "--variants",
                *methods,
                "--n-patterns",
                "5",
                "--pattern-length",
                "5",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        header = [cell.strip() for cell in lines[1].split("|")]
        assert header == ["method", "size (bits)", "bits/symbol", "search (us)", "build (s)"]
        sizes = {
            cells[0]: int(cells[1])
            for cells in ([cell.strip() for cell in line.split("|")] for line in lines[3:])
        }
        bwt_result = bwt_of_bundle(load_dataset("chess", scale=0.05))
        assert sizes == {
            name: build_index(name, bwt_result).index.size_in_bits() for name in methods
        }

    def test_compare_rejects_unknown_method_before_building(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("nothing may be built for an unknown method")

        monkeypatch.setattr(cli, "load_dataset", fail)
        monkeypatch.setattr(cli, "build_all_indexes", fail)
        rc = main(
            ["compare", "--dataset", "chess", "--scale", "0.05", "--variants", "CiNCT", "btree"]
        )
        assert rc == 2
        assert "unknown index method: 'btree'" in capsys.readouterr().err

    def test_compare_rejects_an_unsamplable_pattern_length(self, capsys):
        rc = main(
            ["compare", "--dataset", "chess", "--scale", "0.05", "--pattern-length", "500"]
        )
        assert rc == 2
        assert "pattern length" in capsys.readouterr().err

    def test_compare_iterates_in_deterministic_order(self, capsys):
        # Rows follow the Table-II order, each method once, no matter how
        # the methods were spelled on the command line.
        rc = main(
            [
                "compare",
                "--dataset",
                "chess",
                "--scale",
                "0.05",
                "--variants",
                "UFMI",
                "cinct",
                "ufmi",
                "--n-patterns",
                "5",
                "--pattern-length",
                "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("UFMI") == 1
        assert out.index("CiNCT") < out.index("UFMI")


class TestModuleEntryPoint:
    def test_python_dash_m_repro_runs_the_cli(self):
        import os
        from pathlib import Path

        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else os.pathsep.join([package_root, existing])
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            check=False,
            env=env,
        )
        assert result.returncode == 0
        assert "repro-cinct" in result.stdout
