"""Tests for the shared benchmark harness."""

from __future__ import annotations

import time

import pytest

from repro.bench import (
    DEFAULT_VARIANTS,
    build_all_indexes,
    build_index,
    bwt_of_bundle,
    format_table,
    load_bench_baseline,
    measure_extraction_time,
    measure_search_time,
    run_size_time_experiment,
    sample_query_workload,
    summarise_winner,
    write_bench_baseline,
)
from repro.datasets import chess_like


@pytest.fixture(scope="module")
def tiny_bundle():
    return chess_like(scale=0.06)


@pytest.fixture(scope="module")
def tiny_bwt(tiny_bundle):
    return bwt_of_bundle(tiny_bundle)


class TestBuilders:
    def test_default_variant_list(self):
        assert DEFAULT_VARIANTS[0] == "CiNCT"
        assert len(DEFAULT_VARIANTS) == 6

    @pytest.mark.parametrize("name", ["CiNCT", "UFMI", "ICB-Huff"])
    def test_build_index_by_name(self, name, tiny_bwt):
        built = build_index(name, tiny_bwt, block_size=31)
        assert built.name == name
        assert built.build_seconds >= 0
        assert built.bits_per_symbol() > 0

    def test_block_size_attached_only_where_meaningful(self, tiny_bwt):
        assert build_index("CiNCT", tiny_bwt, block_size=31).block_size == 31
        assert build_index("UFMI", tiny_bwt).block_size is None

    def test_build_all(self, tiny_bwt):
        built = build_all_indexes(tiny_bwt, variants=("CiNCT", "UFMI"))
        assert [b.name for b in built] == ["CiNCT", "UFMI"]


class TestWorkloadAndTiming:
    def test_sampled_workload(self, tiny_bwt):
        patterns = sample_query_workload(tiny_bwt, pattern_length=5, n_patterns=12, seed=1)
        assert len(patterns) == 12
        assert all(len(p) == 5 for p in patterns)

    def test_measure_search_time(self, tiny_bwt):
        built = build_index("CiNCT", tiny_bwt, block_size=31)
        patterns = sample_query_workload(tiny_bwt, pattern_length=5, n_patterns=5, seed=1)
        timing = measure_search_time(built.index, patterns)
        assert timing.mean_seconds > 0
        assert timing.mean_microseconds == pytest.approx(timing.mean_seconds * 1e6)
        assert timing.n_queries == 5

    def test_measure_search_time_reports_a_warm_pass(self):
        """A slow first touch (here a 50 ms stall) is not part of the reported time."""

        class FirstCallStalls:
            name = "stub"

            def __init__(self):
                self.calls = 0

            def suffix_range(self, pattern):
                self.calls += 1
                if self.calls == 1:
                    time.sleep(0.05)
                return (0, 1)

        stub = FirstCallStalls()
        timing = measure_search_time(stub, [[1, 2]] * 4)
        assert timing.name == "stub"
        assert timing.n_queries == 4
        assert stub.calls == 4 * 6  # one warm-up pass and five timed passes
        assert timing.mean_seconds < 0.005

    def test_measure_search_time_empty_workload(self, tiny_bwt):
        built = build_index("UFMI", tiny_bwt)
        with pytest.raises(ValueError):
            measure_search_time(built.index, [])

    def test_baseline_records_its_host_and_scale(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        write_bench_baseline("probe", {"seconds": 1.5}, directory=tmp_path)
        document = load_bench_baseline("probe", directory=tmp_path)
        assert document["results"] == {"seconds": 1.5}
        assert document["environment"]["scale"] == 0.25
        assert document["environment"]["cpu_count"] >= 1

    def test_measure_extraction_time(self, tiny_bwt):
        built = build_index("CiNCT", tiny_bwt, block_size=31)
        per_symbol = measure_extraction_time(built.index, length=50)
        assert per_symbol > 0
        with pytest.raises(ValueError):
            measure_extraction_time(built.index, length=0)


class TestExperimentRunner:
    def test_records_cover_variants_and_blocks(self, tiny_bundle):
        records = run_size_time_experiment(
            tiny_bundle,
            variants=("CiNCT", "ICB-Huff", "UFMI"),
            block_sizes=(31, 63),
            pattern_length=5,
            n_patterns=5,
        )
        # CiNCT and ICB-Huff appear once per block size, UFMI once.
        assert len(records) == 2 + 2 + 1
        methods = {record.method for record in records}
        assert methods == {"CiNCT", "ICB-Huff", "UFMI"}
        for record in records:
            assert record.bits_per_symbol > 0
            assert record.search_time_us is not None and record.search_time_us > 0

    def test_as_row_and_table_formatting(self, tiny_bundle):
        records = run_size_time_experiment(
            tiny_bundle, variants=("CiNCT",), block_sizes=(63,), pattern_length=5, n_patterns=3
        )
        rows = [record.as_row() for record in records]
        table = format_table(rows, title="demo")
        assert "demo" in table
        assert "bits/symbol" in table
        assert "CiNCT" in table

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_summarise_winner(self, tiny_bundle):
        records = run_size_time_experiment(
            tiny_bundle, variants=("CiNCT", "UFMI"), block_sizes=(63,), pattern_length=5, n_patterns=3
        )
        smallest = summarise_winner(records, lambda r: r.bits_per_symbol)
        assert smallest.method in {"CiNCT", "UFMI"}
        with pytest.raises(ValueError):
            summarise_winner([], lambda r: 0.0)
