"""Ablation — RRR vs plain bit vectors inside CiNCT.

Not a paper figure, but a check of a design choice: the RRR
bit vectors are what turn the Huffman-shaped wavelet tree into a compressed
structure.  Replacing them with plain bitmaps must increase the index size on
the low-entropy labelled BWT while keeping all answers identical.
"""

from __future__ import annotations

import pytest

from common import get_bwt, get_patterns
from repro.bench import format_table, measure_search_time
from repro.core import CiNCT

DATASET = "Singapore-2"


@pytest.mark.parametrize("backend", ["rrr", "plain"])
def test_ablation_backend_query_time(benchmark, backend, report):
    bwt = get_bwt(DATASET)
    index = CiNCT(bwt, block_size=63, bitvector_backend=backend)  # type: ignore[arg-type]
    patterns = get_patterns(DATASET)

    benchmark.pedantic(
        lambda: [index.suffix_range(p) for p in patterns],
        rounds=2,
        iterations=1,
    )
    timing = measure_search_time(index, patterns)
    report.add(
        f"Ablation — CiNCT bit-vector backend = {backend}",
        format_table(
            [
                {
                    "backend": backend,
                    "bits/symbol": round(index.bits_per_symbol(), 2),
                    "search (us)": round(timing.mean_microseconds, 1),
                }
            ]
        ),
    )


def test_ablation_rrr_compresses_and_answers_match(benchmark, report):
    bwt = get_bwt(DATASET)

    def build_both():
        return (
            CiNCT(bwt, block_size=63, bitvector_backend="rrr"),
            CiNCT(bwt, block_size=63, bitvector_backend="plain"),
        )

    rrr_index, plain_index = benchmark.pedantic(build_both, rounds=1, iterations=1)
    patterns = get_patterns(DATASET)
    for pattern in patterns:
        assert rrr_index.suffix_range(pattern) == plain_index.suffix_range(pattern)

    rows = [
        {"backend": "rrr", "wavelet tree (bits/symbol)": round(
            rrr_index.size_in_bits(include_et_graph=False) / rrr_index.length, 2)},
        {"backend": "plain", "wavelet tree (bits/symbol)": round(
            plain_index.size_in_bits(include_et_graph=False) / plain_index.length, 2)},
    ]
    report.add("Ablation — RRR vs plain bit vectors (wavelet tree only)", format_table(rows))
    assert rows[0]["wavelet tree (bits/symbol)"] < rows[1]["wavelet tree (bits/symbol)"]
