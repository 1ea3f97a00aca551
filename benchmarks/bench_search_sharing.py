"""Workload-aware search sharing: what the trie + interval cache buy.

Two measurements pin the value of the search-sharing layer (PR 10):

* **Trie-shared batch throughput** — a suffix-redundant count workload
  (many query paths nested as prefixes of a few long hot paths, the shape
  coalesced service batches actually have) pushed through the trie-shared
  ``count_many`` path and through the PR-1 grouped batch baseline (the
  per-step bigram-grouped ``advance`` reproduced verbatim below from the
  pre-trie ``CiNCT.suffix_range_many``).  The trie pays one backward-search
  step per *distinct* trie node instead of one per pattern symbol, so the
  nested workload must clear ``>= 2x`` the baseline's throughput at full
  scale.
* **Warm interval-cache extensions** — incremental one-edge extensions of
  already-searched paths (an interactive client lengthening its query),
  answered scalar with a warm :class:`~repro.engine.executor.IntervalCache`
  versus cold from scratch.  A warm extension resumes from the cached
  parent range and pays a single LF-step, so it must clear ``>= 5x`` the
  cold latency at full scale.

Results land in ``benchmarks/BENCH_search_sharing.json`` through
:func:`repro.bench.write_bench_baseline`.  Both ratio targets are enforced
only when :func:`repro.bench.assert_at_scale` says the workload is big
enough (``REPRO_BENCH_SCALE`` — CI smokes at 0.05, which only checks
plumbing and bit-identity).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from common import BENCH_SCALE, N_PATTERNS, get_bwt, get_index
from repro.bench import (
    assert_at_scale,
    format_table,
    sample_query_workload,
    write_bench_baseline,
)
from repro.engine.executor import IntervalCache

DATASET = "Singapore"
#: Length of each hot path (travel order); prefixes of these form the batch.
BASE_LENGTH = 28
#: Hot paths in the suffix-redundant workload.
N_HOT = max(int(48 * BENCH_SCALE), 2)
#: Every hot path contributes its prefixes of these lengths (plus itself).
PREFIX_LENGTHS = tuple(range(2, BASE_LENGTH + 1))
#: Incremental-extension workload size (pattern length BASE_LENGTH + 1).
N_EXTENSIONS = max(N_PATTERNS, 2)
TRIE_TARGET = 2.0
WARM_TARGET = 5.0
REPEATS = 5


# --------------------------------------------------------------------------- #
# The PR-1 grouped batch baseline, verbatim (formerly in repro.fmindex.base,
# where nothing but this benchmark used it)
# --------------------------------------------------------------------------- #
def iter_key_groups(members: np.ndarray, keys: np.ndarray):
    """Yield ``(key, members_subset)`` for every distinct key, order-stable.

    The grouping idiom shared by the batched searchers: one stable argsort,
    then run boundaries from the sorted keys.
    """
    order = np.argsort(keys, kind="stable")
    sorted_members = members[order]
    sorted_keys = keys[order]
    boundaries = np.concatenate(
        ([0], np.flatnonzero(np.diff(sorted_keys)) + 1, [sorted_keys.size])
    )
    for g in range(boundaries.size - 1):
        yield int(sorted_keys[boundaries[g]]), sorted_members[boundaries[g] : boundaries[g + 1]]


def batched_backward_search(
    pats: list[list[int]],
    c_array: np.ndarray,
    advance,
) -> list[tuple[int, int] | None]:
    """Shared driver for running backward search over a whole workload.

    Handles the scaffolding common to Algorithm 1 and Algorithm 3: the padded
    pattern matrix, the initial ``C[]`` ranges, harvesting patterns as they
    complete, and pruning empty ranges.  ``advance(step, active, matrix, sp,
    ep)`` performs one backward-search step for the still-active pattern
    indices — updating ``sp``/``ep`` in place — and returns the indices that
    may continue (before the empty-range filter).
    """
    m = len(pats)
    results: list[tuple[int, int] | None] = [None] * m
    if m == 0:
        return results
    lengths = np.fromiter((len(p) for p in pats), dtype=np.int64, count=m)
    max_len = int(lengths.max())
    matrix = np.zeros((m, max_len), dtype=np.int64)
    for i, pattern in enumerate(pats):
        matrix[i, : len(pattern)] = pattern
    sp = c_array[matrix[:, 0]].copy()
    ep = c_array[matrix[:, 0] + 1].copy()
    active = np.flatnonzero(sp < ep)
    for step in range(1, max_len + 1):
        if active.size == 0:
            break
        for i in active[lengths[active] == step].tolist():
            results[i] = (int(sp[i]), int(ep[i]))
        active = active[lengths[active] > step]
        if active.size == 0:
            break
        active = advance(step, active, matrix, sp, ep)
        active = active[sp[active] < ep[active]]
    return results


def grouped_count_many(index, patterns) -> list[int]:
    """The PR-1 grouped batch path, reproduced verbatim as the baseline.

    This is the pre-trie ``CiNCT.suffix_range_many``: all patterns advance
    in lockstep through a padded matrix, and at every step the still-active
    patterns are grouped by their (context, w) bigram / RML label so each
    group shares one vectorized ``rank_many`` call.  Rank work still scales
    with the *total* number of active patterns per step — exactly what the
    trie collapses to distinct nodes.
    """
    pats = [index._validated_pattern(p) for p in patterns]
    c = index._c_array

    def advance(step, active, matrix, sp, ep):
        keys = matrix[active, step - 1] * np.int64(index._sigma) + matrix[active, step]
        label_entries: dict[int, list[tuple[int, np.ndarray]]] = {}
        for key, members in iter_key_groups(active, keys):
            context, w = divmod(key, index._sigma)
            if not index._rml.has_label(w, context):
                continue
            label = index._rml.label(w, context)
            base = int(c[w]) - index._corrections.get(context, w)
            label_entries.setdefault(label, []).append((base, members))
        if not label_entries:
            return np.zeros(0, dtype=np.int64)
        surviving: list[np.ndarray] = []
        for label, entries in label_entries.items():
            members = np.concatenate([group for _, group in entries])
            bases = np.repeat(
                np.fromiter(
                    (base for base, _ in entries), dtype=np.int64, count=len(entries)
                ),
                [group.size for _, group in entries],
            )
            frontier = np.concatenate([sp[members], ep[members]])
            ranks = index._wavelet_tree.rank_many(label, frontier)
            sp[members] = bases + ranks[: members.size]
            ep[members] = bases + ranks[members.size :]
            surviving.append(members)
        return np.sort(np.concatenate(surviving))

    ranges = batched_backward_search(pats, c, advance)
    return [0 if found is None else found[1] - found[0] for found in ranges]


def suffix_redundant_workload() -> list[tuple[int, ...]]:
    """Prefix-nested count patterns: the shape trie sharing exists for."""
    hot = sample_query_workload(get_bwt(DATASET), BASE_LENGTH, N_HOT, seed=31)
    patterns = [tuple(path[:k]) for path in hot for k in PREFIX_LENGTHS]
    # Deterministic shuffle: sharing must not depend on batch order.
    rng = np.random.default_rng(31)
    return [patterns[i] for i in rng.permutation(len(patterns))]


def extension_workload() -> list[tuple[int, ...]]:
    """One-edge extensions: full paths whose length-minus-one prefix is warm."""
    paths = sample_query_workload(
        get_bwt(DATASET), BASE_LENGTH + 1, N_EXTENSIONS, seed=47
    )
    return [tuple(path) for path in paths]


def best_of(fn, repeats: int = REPEATS) -> float:
    """Minimum wall-clock of ``repeats`` runs (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_search_sharing(report) -> None:
    index = get_index(DATASET, "CiNCT").index

    # --- trie-shared batch vs the PR-1 grouped baseline ------------------- #
    batch = suffix_redundant_workload()
    trie_counts = index.count_many(batch)
    grouped_counts = grouped_count_many(index, batch)
    assert trie_counts == grouped_counts  # bit-identical before timing
    trie_seconds = best_of(lambda: index.count_many(batch))
    grouped_seconds = best_of(lambda: grouped_count_many(index, batch))
    trie_speedup = grouped_seconds / trie_seconds

    # --- warm interval-cache one-edge extensions --------------------------- #
    extensions = extension_workload()
    bases = [pattern[:-1] for pattern in extensions]
    cold_results = [index.suffix_range(pattern) for pattern in extensions]

    def warm_cache() -> IntervalCache:
        cache = IntervalCache(capacity=4 * len(extensions))
        for base in bases:
            index.suffix_range(base, interval_cache=cache)
        return cache

    warm = warm_cache()
    warm_results = [
        index.suffix_range(pattern, interval_cache=warm) for pattern in extensions
    ]
    assert warm_results == cold_results  # cache resume is bit-identical

    def timed_warm() -> None:
        # Re-warm outside the timed region each repeat so every measured
        # query resumes from its parent's cached range (not a full-key hit
        # left behind by the previous repeat).
        cache = timed_warm.cache  # type: ignore[attr-defined]
        for pattern in extensions:
            index.suffix_range(pattern, interval_cache=cache)

    cold_seconds = best_of(
        lambda: [index.suffix_range(pattern) for pattern in extensions]
    )
    warm_best = float("inf")
    for _ in range(REPEATS):
        timed_warm.cache = warm_cache()  # type: ignore[attr-defined]
        started = time.perf_counter()
        timed_warm()
        warm_best = min(warm_best, time.perf_counter() - started)
    warm_speedup = cold_seconds / warm_best

    table = format_table(
        [
            {
                "workload": "suffix-redundant batch",
                "queries": len(batch),
                "baseline (ms)": round(grouped_seconds * 1e3, 2),
                "shared (ms)": round(trie_seconds * 1e3, 2),
                "speedup": round(trie_speedup, 2),
                "target": f">= {TRIE_TARGET:g}x",
            },
            {
                "workload": "one-edge extensions",
                "queries": len(extensions),
                "baseline (ms)": round(cold_seconds * 1e3, 2),
                "shared (ms)": round(warm_best * 1e3, 2),
                "speedup": round(warm_speedup, 2),
                "target": f">= {WARM_TARGET:g}x",
            },
        ],
        title=f"{DATASET} — workload-aware search sharing",
    )
    report.add("Search sharing (pattern trie + interval cache)", table)

    write_bench_baseline(
        "search_sharing",
        {
            "scale": BENCH_SCALE,
            "dataset": DATASET,
            "n_hot_paths": N_HOT,
            "base_length": BASE_LENGTH,
            "n_batch_patterns": len(batch),
            "n_extensions": len(extensions),
            "grouped_baseline_seconds": grouped_seconds,
            "trie_shared_seconds": trie_seconds,
            "trie_speedup": trie_speedup,
            "trie_target": TRIE_TARGET,
            "cold_extension_seconds": cold_seconds,
            "warm_extension_seconds": warm_best,
            "warm_speedup": warm_speedup,
            "warm_target": WARM_TARGET,
        },
        directory=Path(__file__).parent,
    )
    assert (Path(__file__).parent / "BENCH_search_sharing.json").exists()

    # Fixed costs (trie construction, cache probing) only amortise on a
    # full-scale workload; smoke runs record the table without asserting.
    if assert_at_scale(BENCH_SCALE):
        assert trie_speedup >= TRIE_TARGET, (
            f"trie sharing delivered only {trie_speedup:.2f}x the grouped "
            f"baseline (target {TRIE_TARGET:g}x)"
        )
        assert warm_speedup >= WARM_TARGET, (
            f"warm interval-cache extensions delivered only "
            f"{warm_speedup:.2f}x cold latency (target {WARM_TARGET:g}x)"
        )
