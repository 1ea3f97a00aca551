"""Shared fixtures for the benchmark suite.

Every ``bench_fig*``/``bench_table*`` file reproduces the paper's table or
figure of that name.  Dataset sizes are controlled by the
``REPRO_BENCH_SCALE`` environment variable (default 1.0); the pure-Python
implementation is orders of magnitude slower than the paper's C++ code, so
the defaults aim for minutes, not hours, while keeping the relative behaviour
of the methods intact.

Index builds are cached per (dataset, variant, block size) so that the many
parametrised benchmarks do not rebuild the same structure repeatedly.
"""

from __future__ import annotations

import os
from functools import lru_cache

from repro.bench import build_index, bwt_of_bundle, sample_query_workload
from repro.datasets import (
    chess_like,
    mogen_like,
    randwalk,
    roma_like,
    singapore2_like,
    singapore_like,
)

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: The six index variants of Fig. 10, in the paper's order.
FIG10_VARIANTS = ("CiNCT", "UFMI", "ICB-WM", "ICB-Huff", "FM-GMR", "FM-AP-HYB")

#: Query length used by the paper (20); Chess openings are only 10 moves long.
PATTERN_LENGTH = {"Singapore": 12, "Singapore-2": 12, "Roma": 8, "MO-gen": 8, "Chess": 8}

#: Number of sampled queries per measurement (500 in the paper).
N_PATTERNS = int(os.environ.get("REPRO_BENCH_PATTERNS", "30"))


@lru_cache(maxsize=None)
def get_bundle(name: str):
    """Build (once) a dataset analogue at benchmark scale."""
    builders = {
        "Singapore": lambda: singapore_like(scale=BENCH_SCALE),
        "Singapore-2": lambda: singapore2_like(scale=BENCH_SCALE),
        "Roma": lambda: roma_like(scale=BENCH_SCALE),
        "MO-gen": lambda: mogen_like(scale=BENCH_SCALE),
        "Chess": lambda: chess_like(scale=BENCH_SCALE),
    }
    return builders[name]()


@lru_cache(maxsize=None)
def get_randwalk(sigma: int, average_out_degree: float, length_factor: int = 20):
    """Build (once) a RandWalk bundle for the Fig. 12/13 sweeps."""
    return randwalk(
        sigma=sigma,
        average_out_degree=average_out_degree,
        length_factor=length_factor,
        seed=19,
    )


@lru_cache(maxsize=None)
def get_bwt(dataset: str):
    """BWT of a named paper dataset at benchmark scale."""
    return bwt_of_bundle(get_bundle(dataset))


@lru_cache(maxsize=None)
def get_bwt_of_randwalk(sigma: int, average_out_degree: float, length_factor: int = 20):
    """BWT of a RandWalk bundle."""
    return bwt_of_bundle(get_randwalk(sigma, average_out_degree, length_factor))


@lru_cache(maxsize=None)
def get_index(dataset: str, variant: str, block_size: int = 63):
    """Build (once) an index variant on a named paper dataset."""
    return build_index(variant, get_bwt(dataset), block_size=block_size)


@lru_cache(maxsize=None)
def get_randwalk_index(sigma: int, average_out_degree: float, variant: str, block_size: int = 63):
    """Build (once) an index variant on a RandWalk bundle."""
    return build_index(
        variant, get_bwt_of_randwalk(sigma, average_out_degree), block_size=block_size
    )


@lru_cache(maxsize=None)
def get_patterns(dataset: str, pattern_length: int | None = None, n_patterns: int = N_PATTERNS):
    """Sample (once) the query workload for a dataset."""
    length = pattern_length or PATTERN_LENGTH.get(dataset, 10)
    return tuple(
        tuple(p) for p in sample_query_workload(get_bwt(dataset), length, n_patterns, seed=0)
    )


def paper_datasets() -> list[str]:
    """The five dataset analogues, in Table-III order."""
    return ["Singapore", "Singapore-2", "Roma", "MO-gen", "Chess"]
