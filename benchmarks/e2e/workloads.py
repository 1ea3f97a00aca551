"""Inputs of the end-to-end benchmark, generated from ``--seed``.

The corpus is fixed: the Singapore analogue at scale 4 (4 800 trajectories,
about 160 000 symbols, with the dataset's timestamps) and, for the ingest
stream, ``singapore_like(scale=1.0, seed=8)`` with its timestamps shifted by
``+6e6`` s so they follow the corpus.  Edge ids are the benchmark's own dense
ints over the sorted ``(u, v)`` edge tuples of both (the HTTP surface accepts
only string or integer ids).

Everything a run sends is derived from the corpus and the seed: the hot path
pool, the Zipf and uniform query streams, the Poisson and uniform arrival
schedules and the batch-scan batches.  The same seed replays the same
requests at the same offsets.  The server only ever sees these generated
documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

WORKLOADS = ("hot-read", "cold-locate", "ingest-mix", "batch-scan")

#: Corpus scale of full runs and of ``--smoke`` runs.
FULL_SCALE = 4.0
SMOKE_SCALE = 0.05
INGEST_SEED = 8
INGEST_TIME_SHIFT = 6e6
INGEST_BATCH = 4

HOT_POOL = 256
HOT_PATH_LENGTH = 6
ZIPF_S = 1.1
STRICT_WINDOW_S = 86_400.0

SCAN_CORRIDORS = 32
SCAN_CORRIDOR_LENGTH = 16
#: (window length, start) pairs cut from every corridor: 15 overlapping
#: sub-windows, so patterns share prefixes inside a batch.
SCAN_WINDOWS = tuple(
    (length, start)
    for length in (4, 6, 8, 10, 12)
    for start in (0, (SCAN_CORRIDOR_LENGTH - length) // 2, SCAN_CORRIDOR_LENGTH - length)
)
SCAN_LOCATES = 8
SCAN_LOCATE_LENGTH = 12
SCAN_EXTRACTS = 32
SCAN_EXTRACT_LENGTH = 12
#: Batches per seed; one batch holds 480 count/contains, 8 locates and 32
#: extracts.
SCAN_BATCHES = 400


@dataclass(frozen=True)
class Corpus:
    """The fixed trajectories every workload draws from (dense int edges)."""

    trajectories: list[list[int]]
    timestamps: list[list[float]]
    ingest: list[list[int]]
    ingest_timestamps: list[list[float]]

    @property
    def n_symbols(self) -> int:
        return sum(len(t) for t in self.trajectories)

    @property
    def time_range(self) -> tuple[float, float]:
        return (
            min(t[0] for t in self.timestamps),
            max(t[-1] for t in self.timestamps),
        )


def make_corpus(smoke: bool = False) -> Corpus:
    """Build the corpus (about 3 s at full scale)."""
    from repro.datasets.registry import singapore_like

    scale = SMOKE_SCALE if smoke else FULL_SCALE
    seed_set = singapore_like(scale=scale).dataset
    # The ingest stream holds 300 batches: 30 s of ingest at 10 batches/s.
    ingest_set = singapore_like(scale=SMOKE_SCALE if smoke else 1.0, seed=INGEST_SEED).dataset
    edges = sorted(
        {e for t in seed_set.trajectories for e in t.edges}
        | {e for t in ingest_set.trajectories for e in t.edges}
    )
    dense = {edge: i for i, edge in enumerate(edges)}
    return Corpus(
        trajectories=[[dense[e] for e in t.edges] for t in seed_set.trajectories],
        timestamps=[[float(s) for s in t.timestamps] for t in seed_set.trajectories],
        ingest=[[dense[e] for e in t.edges] for t in ingest_set.trajectories],
        ingest_timestamps=[
            [float(s) + INGEST_TIME_SHIFT for s in t.timestamps]
            for t in ingest_set.trajectories
        ],
    )


def rng_for(seed: int, workload: str, stream: str) -> np.random.Generator:
    """An independent generator per (seed, workload, stream)."""
    key = [seed, WORKLOADS.index(workload), sum(map(ord, stream)) * 1000 + len(stream)]
    return np.random.default_rng(key)


# --------------------------------------------------------------------------- #
# arrival schedules
# --------------------------------------------------------------------------- #
def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float) -> np.ndarray:
    """Poisson arrival times in ``[0, seconds)``."""
    n = int(rate * seconds * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n))
    while offsets[-1] < seconds:  # pragma: no cover - 1.5x headroom suffices
        offsets = np.concatenate([offsets, offsets[-1] + np.cumsum(rng.exponential(1.0 / rate, size=n))])
    return offsets[offsets < seconds]


def uniform_offsets(rate: float, seconds: float) -> np.ndarray:
    """Evenly spaced arrival times in ``[0, seconds)``."""
    return np.arange(0.0, seconds, 1.0 / rate)


# --------------------------------------------------------------------------- #
# paths and query documents
# --------------------------------------------------------------------------- #
def sample_paths(
    rng: np.random.Generator,
    trajectories: Sequence[Sequence[int]],
    lengths: Sequence[int],
) -> list[list[int]]:
    """One sub-path per requested length, uniform over corpus positions."""
    sizes = np.asarray([len(t) for t in trajectories], dtype=np.int64)
    wanted = np.asarray(lengths, dtype=np.int64)
    paths: list[list[int]] = [[] for _ in range(wanted.size)]
    for length in np.unique(wanted).tolist():
        slots = np.flatnonzero(wanted == length)
        weights = np.maximum(sizes - length + 1, 0).astype(np.float64)
        tids = rng.choice(sizes.size, size=slots.size, p=weights / weights.sum())
        starts = (rng.random(slots.size) * (sizes[tids] - length + 1)).astype(np.int64)
        for slot, tid, start in zip(slots.tolist(), tids.tolist(), starts.tolist()):
            paths[slot] = list(trajectories[tid][start : start + length])
    return paths


def hot_pool(corpus: Corpus, seed: int) -> list[list[int]]:
    """256 distinct length-6 paths: the hot set shared by hot-read and ingest-mix."""
    rng = rng_for(seed, "hot-read", "pool")
    pool: dict[tuple[int, ...], None] = {}
    while len(pool) < HOT_POOL:
        for path in sample_paths(rng, corpus.trajectories, [HOT_PATH_LENGTH] * HOT_POOL):
            pool.setdefault(tuple(path), None)
            if len(pool) == HOT_POOL:
                break
    return [list(p) for p in pool]


def zipf_choices(rng: np.random.Generator, n_items: int, size: int) -> np.ndarray:
    """Indices into ``n_items`` with Zipf(1.1) popularity (item 0 hottest)."""
    weights = 1.0 / np.arange(1, n_items + 1, dtype=np.float64) ** ZIPF_S
    return rng.choice(n_items, size=size, p=weights / weights.sum())


def stratified(rng: np.random.Generator, block: Sequence, size: int) -> list:
    """``size`` items made of shuffled copies of ``block``.

    Every run gets the block's exact proportions, so the mix of query kinds
    (or lengths) does not vary from seed to seed; only the order does.
    """
    out: list = []
    while len(out) < size:
        out.extend(block[i] for i in rng.permutation(len(block)))
    return out[:size]


def hot_documents(
    rng: np.random.Generator, pool: list[list[int]], size: int, with_contains: bool = True
) -> list[dict]:
    """Count/contains documents (3:1) over the Zipf-hot pool; counts only without."""
    picks = zipf_choices(rng, len(pool), size)
    kinds = stratified(rng, ["count"] * 3 + ["contains"] if with_contains else ["count"], size)
    return [{"type": kind, "path": pool[int(i)]} for i, kind in zip(picks, kinds)]


#: Kinds of 20 consecutive cold-locate requests: 75% / 15% / 10%.
COLD_KINDS = ["count"] * 15 + ["locate"] * 3 + ["strict_path"] * 2
COLD_LENGTHS = range(8, 13)
#: Locate and strict_path paths occur at most this often: their cost grows
#: with the matches, and a few highway locates of hundreds of matches would
#: make the tail a lottery (batch-scan carries one highway locate per batch).
COLD_LOCATE_MAX_MATCHES = 32
#: Candidates drawn per path by :func:`ladder_paths`.
LADDER_OVERSAMPLE = 8

CountMany = Callable[[Sequence[Sequence[int]]], list[int]]


def ladder_paths(
    rng: np.random.Generator,
    trajectories: Sequence[Sequence[int]],
    count_many: CountMany,
    length: int,
    n: int,
    max_count: int | None = None,
) -> list[list[int]]:
    """``n`` uniform paths whose occurrence counts follow a fixed quantile ladder.

    The cost of a locate grows with its matches, and the corpus mixes rare
    paths with straight "highway" paths that occur hundreds of times.  Plain
    sampling gives each seed a different share of highways; this draws
    ``LADDER_OVERSAMPLE * n`` uniform candidates (of those occurring at most
    ``max_count`` times, when given), sorts them by count and takes one at
    random from each of ``n`` equal strata, so every seed gets the same
    count distribution (stratified sampling) and only the paths differ.
    Returned in random order.
    """
    if n == 0:
        return []
    k = LADDER_OVERSAMPLE
    candidates: list[list[int]] = []
    kept: list[int] = []
    while len(candidates) < n * k:
        drawn = sample_paths(rng, trajectories, [length] * (n * k))
        for path, count in zip(drawn, count_many(drawn)):
            if max_count is None or count <= max_count:
                candidates.append(path)
                kept.append(count)
    candidates, counts = candidates[: n * k], np.asarray(kept[: n * k])
    order = np.lexsort((rng.random(counts.size), counts))
    picks = np.arange(n) * k + rng.integers(0, k, size=n)
    return [candidates[order[i]] for i in picks[rng.permutation(n)]]


def cold_documents(
    rng: np.random.Generator, corpus: Corpus, count_many: CountMany, size: int
) -> list[dict]:
    """Fresh length 8-12 paths: count 75%, locate 15%, strict_path 10%.

    Count paths are uniform over corpus positions; locate and strict_path
    paths are uniform over the positions whose path occurs at most
    ``COLD_LOCATE_MAX_MATCHES`` times, drawn on a count ladder
    (:func:`ladder_paths`) per length.
    """
    kinds = stratified(rng, COLD_KINDS, size)
    lengths = stratified(rng, list(COLD_LENGTHS), size)
    paths = sample_paths(rng, corpus.trajectories, lengths)
    for length in COLD_LENGTHS:
        slots = [i for i in range(size) if lengths[i] == length and kinds[i] != "count"]
        laddered = ladder_paths(
            rng, corpus.trajectories, count_many, length, len(slots), COLD_LOCATE_MAX_MATCHES
        )
        for slot, path in zip(slots, laddered):
            paths[slot] = path
    t_min, t_max = corpus.time_range
    docs = []
    for path, kind in zip(paths, kinds):
        if kind != "strict_path":
            docs.append({"type": kind, "path": path})
        else:
            t_start = float(rng.uniform(t_min, max(t_min, t_max - STRICT_WINDOW_S)))
            docs.append({
                "type": "strict_path",
                "path": path,
                "t_start": t_start,
                "t_end": t_start + STRICT_WINDOW_S,
            })
    return docs


def ingest_documents(corpus: Corpus) -> list[dict]:
    """The ingest stream as ``POST /ingest`` bodies of 4 trajectories each."""
    docs = []
    for first in range(0, len(corpus.ingest) - INGEST_BATCH + 1, INGEST_BATCH):
        docs.append({
            "trajectories": [
                {"edges": corpus.ingest[i], "timestamps": corpus.ingest_timestamps[i]}
                for i in range(first, first + INGEST_BATCH)
            ]
        })
    return docs


def encode(doc: dict) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


# --------------------------------------------------------------------------- #
# batch-scan
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScanSpec:
    """Compact batch-scan batches: corridors, locate paths and extraction rows."""

    corridors: np.ndarray  # (batches, SCAN_CORRIDORS, SCAN_CORRIDOR_LENGTH)
    locates: np.ndarray  # (batches, SCAN_LOCATES, SCAN_LOCATE_LENGTH)
    extract_rows: np.ndarray  # (batches, SCAN_EXTRACTS)

    @property
    def n_batches(self) -> int:
        return int(self.corridors.shape[0])

    def batch(self, index: int) -> list[tuple]:
        """Batch ``index`` as ``(kind, path-or-row, length)`` descriptors."""
        out: list[tuple] = []
        for corridor in self.corridors[index].tolist():
            for w, (length, start) in enumerate(SCAN_WINDOWS):
                kind = "contains" if w % 4 == 3 else "count"
                out.append((kind, tuple(corridor[start : start + length]), length))
        for path in self.locates[index].tolist():
            out.append(("locate", tuple(path), SCAN_LOCATE_LENGTH))
        for row in self.extract_rows[index].tolist():
            out.append(("extract", row, SCAN_EXTRACT_LENGTH))
        return out

    def save(self, path) -> None:
        np.savez(path, corridors=self.corridors, locates=self.locates, extract_rows=self.extract_rows)

    @classmethod
    def load(cls, path) -> "ScanSpec":
        with np.load(path) as data:
            return cls(data["corridors"], data["locates"], data["extract_rows"])


def scan_spec(
    corpus: Corpus, count_many: CountMany, seed: int, n_batches: int = SCAN_BATCHES
) -> ScanSpec:
    """The seed's batches.

    Each batch's 8 locates come from the 8 strata of one count ladder, so
    every batch carries the same locate cost: the top eighth of length-12
    paths are highways (about 150-200 matches each), the rest occur a few
    times at most, and each batch gets exactly one highway.
    """
    rng = rng_for(seed, "batch-scan", "batches")
    n = n_batches * SCAN_CORRIDORS
    corridors = np.asarray(
        sample_paths(rng, corpus.trajectories, [SCAN_CORRIDOR_LENGTH] * n), dtype=np.int64
    ).reshape(n_batches, SCAN_CORRIDORS, SCAN_CORRIDOR_LENGTH)
    ladder = ladder_paths(
        rng, corpus.trajectories, count_many, SCAN_LOCATE_LENGTH, n_batches * SCAN_LOCATES
    )
    counts = np.asarray(count_many(ladder))
    ranked = np.asarray(ladder, dtype=np.int64)[np.lexsort((rng.random(counts.size), counts))]
    strata = ranked.reshape(SCAN_LOCATES, n_batches, SCAN_LOCATE_LENGTH)
    locates = np.stack([s[rng.permutation(n_batches)] for s in strata], axis=1)
    rows = rng.integers(0, corpus.n_symbols, size=(n_batches, SCAN_EXTRACTS))
    return ScanSpec(corridors=corridors, locates=locates, extract_rows=rows)


__all__ = [
    "Corpus",
    "ScanSpec",
    "WORKLOADS",
    "cold_documents",
    "encode",
    "hot_documents",
    "hot_pool",
    "ingest_documents",
    "make_corpus",
    "poisson_offsets",
    "rng_for",
    "sample_paths",
    "scan_spec",
    "uniform_offsets",
    "zipf_choices",
]
