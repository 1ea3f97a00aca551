"""Partitioned CiNCT index for growing trajectory collections.

CiNCT is a static structure; Section III-A of the paper notes that growing
data can be handled "by periodic reconstruction or by constructing an index
for new data at certain time intervals".  This module implements that scheme
as a small LSM arrangement:

* an append-only **mutable tail** absorbs newly arrived trajectories in O(1)
  amortised per symbol — no BWT, no wavelet build — and answers queries
  through a linear-scan adapter until it is compacted;
* every sealed tail (or, with the tail disabled, every batch) becomes one
  immutable CiNCT **partition** built over a *shared* alphabet, so patterns
  are encoded once and queried against every tier;
* queries (count / contains / matching partitions) aggregate over
  ``compressed partitions ∪ tail`` and are bit-identical to a monolithic
  index built over the union of the data;
* a **compaction policy** (``tail_max_symbols`` / ``tail_max_trajectories``,
  ``compaction`` = ``inline`` | ``background`` | ``off``) seals the tail into
  a new partition when thresholds trip, either on the ingesting thread or on
  a background worker with a copy-on-seal handoff (queries keep answering
  over the old view until the new partition atomically swaps in);
* ``max_partitions`` triggers **tiered merging** — the adjacent pair of
  partitions with the smallest combined length is merged, so steady-state
  ingest never re-sorts the whole fleet — while the explicit
  :meth:`PartitionedCiNCT.consolidate` still performs the paper's full
  periodic reconstruction.

The partitions answer exactly the same suffix-range queries as a monolithic
index built over the union of the data; only the suffix *ranges themselves*
are per-partition, which is why the aggregate API exposes counts and matches
rather than raw ``(sp, ep)`` pairs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Hashable, Iterator, Mapping, Sequence

import numpy as np

from ..exceptions import (
    EMPTY_INDEX_MESSAGE,
    EMPTY_PATH_MESSAGE,
    EMPTY_PATTERN_MESSAGE,
    ConstructionError,
    QueryError,
    symbol_out_of_range_message,
)
from ..fmindex.linear_scan import LinearScanIndex
from ..fmindex.trie import PatternTrie
from ..reliability.faults import maybe_crash_save
from ..strings.alphabet import END_SYMBOL, SEP_SYMBOL, Alphabet
from ..strings.bwt import BWTResult, burrows_wheeler_transform
from ..strings.trajectory_string import TrajectoryString, build_trajectory_string
from .cinct import CiNCT

#: Valid tail-compaction modes.
COMPACTION_MODES = ("inline", "background", "off")

#: Fault-injection stage name checked immediately before a compaction swap
#: publishes (``REPRO_SAVE_CRASH=compaction/swap`` aborts the swap and leaves
#: the pre-swap view serving).
COMPACTION_SWAP_STAGE = "compaction/swap"


@dataclass
class Partition:
    """One immutable CiNCT partition: the index and its trajectory layout.

    No text or BWT is held, nor a suffix array unless the index has no SA
    samples (its locate reads it).  A merge decodes the text from the index
    (:meth:`trajectory_string`); :meth:`arrays` is the saved form.
    """

    index: CiNCT
    trajectory_offsets: np.ndarray
    trajectory_lengths: np.ndarray
    first_trajectory_id: int = 0
    suffix_array: np.ndarray | None = None

    @classmethod
    def from_bwt(
        cls,
        trajectory_string: TrajectoryString,
        bwt_result: BWTResult,
        first_trajectory_id: int = 0,
        **cinct_kwargs: object,
    ) -> "Partition":
        """Build the CiNCT index of a trajectory string from its BWT artefacts."""
        index = CiNCT(bwt_result, **cinct_kwargs)  # type: ignore[arg-type]
        return cls(
            index=index,
            trajectory_offsets=np.asarray(trajectory_string.trajectory_offsets, dtype=np.int64),
            trajectory_lengths=np.asarray(trajectory_string.trajectory_lengths, dtype=np.int64),
            first_trajectory_id=first_trajectory_id,
            suffix_array=None if index.has_sa_samples else bwt_result.suffix_array,
        )

    @classmethod
    def from_arrays(
        cls, arrays: Mapping[str, np.ndarray], first_trajectory_id: int = 0
    ) -> "Partition":
        """Restore a partition from :meth:`arrays` (nothing is rebuilt)."""
        return cls(
            index=CiNCT.from_arrays(arrays),
            trajectory_offsets=arrays["trajectory_offsets"],
            trajectory_lengths=arrays["trajectory_lengths"],
            first_trajectory_id=first_trajectory_id,
            suffix_array=arrays.get("suffix_array"),
        )

    def arrays(self) -> dict[str, np.ndarray]:
        """The index's arrays plus the trajectory layout (and an unsampled SA)."""
        out = self.index.arrays()
        out["trajectory_offsets"] = self.trajectory_offsets
        out["trajectory_lengths"] = self.trajectory_lengths
        if self.suffix_array is not None:
            out["suffix_array"] = self.suffix_array
        return out

    @property
    def n_trajectories(self) -> int:
        """Number of trajectories indexed by this partition."""
        return int(self.trajectory_lengths.size)

    def occurrence_positions(self, sp: int, ep: int) -> list[int]:
        """Text positions of the suffix range ``[sp, ep)``.

        Sampled indexes locate with the batched LF walk to the sampled rows;
        an unsampled one reads its full suffix array.
        """
        if self.suffix_array is None:
            return self.index.locate_many(range(sp, ep))
        return [int(v) for v in self.suffix_array[sp:ep]]

    def trajectory_string(self, alphabet: Alphabet) -> TrajectoryString:
        """The indexed trajectory string, decoded from the index (Algorithm 4)."""
        c = self.index.c_array
        separators = self.occurrence_positions(int(c[SEP_SYMBOL]), int(c[SEP_SYMBOL + 1]))
        return TrajectoryString(
            text=self.index.decode_text(np.asarray(separators, dtype=np.int64)),
            alphabet=alphabet,
            trajectory_lengths=self.trajectory_lengths.tolist(),
            trajectory_offsets=self.trajectory_offsets.tolist(),
        )

    def size_in_bits(self) -> int:
        """Index size of this partition (the succinct structures only)."""
        return self.index.size_in_bits()


@dataclass(frozen=True)
class TailView:
    """Immutable snapshot of the mutable tail, ready to answer queries."""

    trajectory_string: TrajectoryString
    scanner: LinearScanIndex
    first_trajectory_id: int

    @property
    def n_trajectories(self) -> int:
        """Number of trajectories in this snapshot."""
        return self.trajectory_string.n_trajectories

    @property
    def n_symbols(self) -> int:
        """Snapshot text length excluding the terminator."""
        return self.trajectory_string.length - 1


class _TierIntervalView:
    """Tier-scoped view of an engine interval cache for one partition.

    Every key is prefixed with the partition's position in the current
    snapshot.  Positions are stable between growth epochs — any change to the
    partition set (seal, tiered merge, consolidate) coincides with an engine
    epoch bump, which clears the cache — so a tier id plus the
    epoch-invalidation contract uniquely identifies a partition's suffix
    ranges.  The engine hands the backend its cache pinned to the epoch the
    query started under (:class:`~repro.engine.executor.PinnedIntervalCache`)
    and every call here goes through it, so a range computed for a snapshot
    that a growth step has since replaced is dropped instead of stored.  The
    mutable tail never gets a view: it grows without an epoch bump, so its
    ranges must not be remembered.
    """

    __slots__ = ("_cache", "_tier")

    def __init__(self, cache, tier: int):
        self._cache = cache
        self._tier = int(tier)

    @property
    def enabled(self) -> bool:
        return bool(getattr(self._cache, "enabled", True))

    def lookup(self, key: tuple[int, ...]):
        return self._cache.lookup((self._tier,) + key)

    def store(self, key: tuple[int, ...], interval) -> None:
        self._cache.store((self._tier,) + key, interval)

    def deepest(self, keys: Sequence[tuple[int, ...]]):
        tier = self._tier
        return self._cache.deepest([(tier,) + key for key in keys])


@dataclass(frozen=True)
class IndexSnapshot:
    """One consistent ``(compressed partitions, tail)`` observation.

    Every query path captures exactly one snapshot, so a concurrent
    compaction swap can never double-count a trajectory (seen in both the new
    partition and the tail) or drop it (removed from the tail before the
    partition published).
    """

    partitions: tuple[Partition, ...]
    tail: TailView | None

    @property
    def empty(self) -> bool:
        """True when neither tier holds any data."""
        return not self.partitions and self.tail is None


class _MutableTail:
    """Append-only uncompressed tail tier (the LSM level 0).

    The buffer stores the exact reversed/separator-delimited layout
    :func:`~repro.strings.trajectory_string.build_trajectory_string`
    produces, so sealing a prefix into a partition is a pure array slice —
    the sealed text is bit-identical to a fresh build over the same
    trajectories.  Single writer (the owning structure's mutation lock);
    readers go through :class:`TailView` snapshots, which copy the text.
    """

    def __init__(self, first_trajectory_id: int = 0):
        self._buffer = np.zeros(256, dtype=np.int64)
        self._cursor = 0
        self._lengths: list[int] = []
        self._offsets: list[int] = []
        self.first_trajectory_id = first_trajectory_id

    @property
    def n_trajectories(self) -> int:
        return len(self._lengths)

    @property
    def n_symbols(self) -> int:
        """Symbols written so far (edges + separators, excluding the ``#``)."""
        return self._cursor

    def append_symbols(self, symbols: Sequence[int]) -> None:
        """Append one encoded trajectory (travel order) — O(len) amortised."""
        n = len(symbols)
        needed = self._cursor + n + 1
        if needed > self._buffer.size:
            grown = np.zeros(max(needed, 2 * self._buffer.size), dtype=np.int64)
            grown[: self._cursor] = self._buffer[: self._cursor]
            self._buffer = grown
        self._buffer[self._cursor : self._cursor + n] = np.asarray(
            symbols, dtype=np.int64
        )[::-1]
        self._buffer[self._cursor + n] = SEP_SYMBOL
        self._offsets.append(self._cursor)
        self._lengths.append(n)
        self._cursor = needed

    def prefix_string(self, k: int, alphabet: Alphabet) -> TrajectoryString:
        """Copy the first ``k`` trajectories out as a standalone string."""
        if not 0 < k <= self.n_trajectories:
            raise ConstructionError(f"tail prefix {k} out of range")
        end = self._offsets[k - 1] + self._lengths[k - 1] + 1
        text = np.empty(end + 1, dtype=np.int64)
        text[:end] = self._buffer[:end]
        text[end] = END_SYMBOL
        return TrajectoryString(
            text=text,
            alphabet=alphabet,
            trajectory_lengths=list(self._lengths[:k]),
            trajectory_offsets=list(self._offsets[:k]),
        )

    def drop_prefix(self, k: int) -> None:
        """Remove the first ``k`` trajectories (they were sealed elsewhere)."""
        if k <= 0:
            return
        start = self._offsets[k - 1] + self._lengths[k - 1] + 1
        remaining = self._cursor - start
        buffer = np.zeros(max(256, 2 * remaining), dtype=np.int64)
        buffer[:remaining] = self._buffer[start : self._cursor]
        self._buffer = buffer
        self._cursor = remaining
        self._offsets = [offset - start for offset in self._offsets[k:]]
        self._lengths = self._lengths[k:]
        self.first_trajectory_id += k

    def view(self, alphabet: Alphabet) -> TailView | None:
        """A detached queryable snapshot of the whole tail (None when empty)."""
        if not self._lengths:
            return None
        trajectory_string = self.prefix_string(self.n_trajectories, alphabet)
        return TailView(
            trajectory_string=trajectory_string,
            scanner=LinearScanIndex(trajectory_string.text, sigma=alphabet.sigma),
            first_trajectory_id=self.first_trajectory_id,
        )

    def detached_copy(self) -> "_MutableTail":
        """Deep copy used by pickling (process-pool shard sync)."""
        clone = _MutableTail(first_trajectory_id=self.first_trajectory_id)
        clone._buffer = self._buffer[: self._cursor].copy()
        clone._cursor = self._cursor
        clone._lengths = list(self._lengths)
        clone._offsets = list(self._offsets)
        return clone

    @classmethod
    def from_arrays(
        cls,
        text: np.ndarray,
        lengths: Sequence[int],
        first_trajectory_id: int,
    ) -> "_MutableTail":
        """Rebuild a tail from persisted arrays (text excludes the ``#``)."""
        tail = cls(first_trajectory_id=first_trajectory_id)
        body = np.asarray(text, dtype=np.int64)
        tail._buffer = np.zeros(max(256, 2 * body.size), dtype=np.int64)
        tail._buffer[: body.size] = body
        tail._cursor = int(body.size)
        cursor = 0
        for length in lengths:
            tail._offsets.append(cursor)
            tail._lengths.append(int(length))
            cursor += int(length) + 1
        if cursor != tail._cursor:
            raise ConstructionError(
                f"tail lengths sum to {cursor} symbols but the stored text has "
                f"{tail._cursor}"
            )
        return tail


def concatenate_trajectory_strings(
    alphabet: Alphabet, pieces: Sequence[TrajectoryString]
) -> TrajectoryString:
    """Merge trajectory strings built over one shared alphabet.

    Every piece ends with the ``#`` terminator and encodes with the same
    stable append-only alphabet, so dropping each terminator and
    concatenating the bodies reproduces exactly the string
    :func:`build_trajectory_string` would emit over the concatenated
    trajectory lists — the merge never decodes or re-encodes an edge and
    never materialises the raw fleet.
    """
    if not pieces:
        raise ConstructionError("cannot concatenate zero trajectory strings")
    bodies: list[np.ndarray] = []
    lengths: list[int] = []
    offsets: list[int] = []
    base = 0
    for piece in pieces:
        if int(piece.text[-1]) != END_SYMBOL:
            raise ConstructionError("trajectory string is missing its terminator")
        bodies.append(np.asarray(piece.text[:-1], dtype=np.int64))
        lengths.extend(int(v) for v in piece.trajectory_lengths)
        offsets.extend(base + int(v) for v in piece.trajectory_offsets)
        base += piece.length - 1
    bodies.append(np.asarray([END_SYMBOL], dtype=np.int64))
    return TrajectoryString(
        text=np.concatenate(bodies),
        alphabet=alphabet,
        trajectory_lengths=lengths,
        trajectory_offsets=offsets,
    )


class PartitionedCiNCT:
    """A growing collection of CiNCT partitions over a shared alphabet.

    Parameters
    ----------
    block_size:
        RRR block size forwarded to every partition.
    max_partitions:
        When set, growth keeps the partition count at or below this bound by
        **tiered merging**: the adjacent pair with the smallest combined
        length is re-sorted into one partition, so steady-state ingest never
        rebuilds the whole fleet.  (:meth:`consolidate` remains the explicit
        full reconstruction.)
    tail_max_symbols / tail_max_trajectories:
        Mutable-tail thresholds.  Setting either (or a non-default
        ``compaction``) enables the tail tier: ``add_batch`` becomes an O(batch)
        append and the tail is sealed into a CiNCT partition once it holds at
        least this many symbols / trajectories.
    compaction:
        ``"inline"`` (default) seals on the ingesting thread, ``"background"``
        on a worker thread with a copy-on-seal handoff (queries answer over
        the old view until the partition atomically swaps in), ``"off"``
        never seals (the tail grows unboundedly).
    cinct_kwargs:
        Extra keyword arguments forwarded to :class:`~repro.core.cinct.CiNCT`
        (labelling strategy, SA sampling, ...).

    Examples
    --------
    >>> index = PartitionedCiNCT()
    >>> index.add_batch([["a", "b", "c"], ["b", "c", "d"]])
    >>> index.add_batch([["a", "b", "c", "d"]])
    >>> index.count(["b", "c"])
    3
    """

    def __init__(
        self,
        block_size: int = 63,
        max_partitions: int | None = None,
        tail_max_symbols: int | None = None,
        tail_max_trajectories: int | None = None,
        compaction: str = "inline",
        **cinct_kwargs: object,
    ):
        if max_partitions is not None and max_partitions < 1:
            raise ConstructionError("max_partitions must be at least 1 when given")
        if tail_max_symbols is not None and tail_max_symbols < 1:
            raise ConstructionError("tail_max_symbols must be at least 1 when given")
        if tail_max_trajectories is not None and tail_max_trajectories < 1:
            raise ConstructionError("tail_max_trajectories must be at least 1 when given")
        if compaction not in COMPACTION_MODES:
            raise ConstructionError(
                f"compaction must be one of {sorted(COMPACTION_MODES)}, got {compaction!r}"
            )
        self.block_size = block_size
        self.max_partitions = max_partitions
        self.tail_max_symbols = tail_max_symbols
        self.tail_max_trajectories = tail_max_trajectories
        self.compaction = compaction
        self._cinct_kwargs = dict(cinct_kwargs)
        self._alphabet = Alphabet()
        self._partitions: tuple[Partition, ...] = ()
        tail_enabled = (
            tail_max_symbols is not None
            or tail_max_trajectories is not None
            or compaction != "inline"
        )
        self._tail: _MutableTail | None = _MutableTail() if tail_enabled else None
        self._lock = threading.RLock()
        self._snapshot: IndexSnapshot | None = None
        self._compacting = False
        self._compaction_thread: threading.Thread | None = None
        self._on_growth: Callable[[], None] | None = None
        self._compactions = 0
        self._compaction_failures = 0
        self._compaction_seconds_total = 0.0
        self._last_compaction_seconds: float | None = None
        self._last_compaction_unix: float | None = None
        self._last_compaction_error: str | None = None
        self._tiered_merges = 0

    # ------------------------------------------------------------------ #
    # concurrency plumbing
    # ------------------------------------------------------------------ #
    def snapshot(self) -> IndexSnapshot:
        """The current consistent (partitions, tail) view, cached per epoch."""
        with self._lock:
            snap = self._snapshot
            if snap is None:
                tail_view = (
                    self._tail.view(self._alphabet) if self._tail is not None else None
                )
                snap = IndexSnapshot(partitions=self._partitions, tail=tail_view)
                self._snapshot = snap
            return snap

    def set_growth_listener(self, listener: Callable[[], None] | None) -> None:
        """Invoke ``listener`` whenever a compaction swap publishes new state.

        The engine registers its epoch bump here so background compaction
        invalidates caches exactly when (and only when) the swapped shard's
        view changes.
        """
        self._on_growth = listener

    def wait_for_compaction(self, timeout: float | None = None) -> bool:
        """Block until any in-flight background compaction finishes."""
        thread = self._compaction_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)
            return not thread.is_alive()
        return True

    def __getstate__(self) -> dict[str, object]:
        with self._lock:
            state = dict(self.__dict__)
            state["_tail"] = None if self._tail is None else self._tail.detached_copy()
        for transient in ("_lock", "_compaction_thread"):
            state.pop(transient, None)
        state["_snapshot"] = None
        state["_compacting"] = False
        state["_on_growth"] = None
        return state

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()
        self._compaction_thread = None
        self._snapshot = None
        self._compacting = False
        self._on_growth = None

    # ------------------------------------------------------------------ #
    # growth
    # ------------------------------------------------------------------ #
    @property
    def tail_enabled(self) -> bool:
        """Whether the mutable-tail ingest fast path is active."""
        return self._tail is not None

    def add_batch(self, trajectories: Sequence[Sequence[Hashable]]) -> Partition | None:
        """Index a batch of newly arrived trajectories.

        With the tail enabled this is an O(batch) append (no suffix sort, no
        wavelet build) and returns ``None``; otherwise the batch becomes one
        new partition (returned), as in the original periodic-reconstruction
        scheme.
        """
        batch = [list(t) for t in trajectories]
        if not batch:
            raise ConstructionError("a batch must contain at least one trajectory")
        if not all(batch):
            raise ConstructionError("trajectories in a batch must be non-empty")
        self._alphabet.add_many(chain.from_iterable(batch))

        if self._tail is None:
            return self._add_batch_partition(batch)

        encoded = [self._alphabet.encode_path(trajectory) for trajectory in batch]
        with self._lock:
            for symbols in encoded:
                self._tail.append_symbols(symbols)
            self._snapshot = None
        self._maybe_compact()
        return None

    def _add_batch_partition(self, batch: list[list[Hashable]]) -> Partition:
        first_id = self.n_trajectories
        trajectory_string = build_trajectory_string(batch, alphabet=self._alphabet)
        partition = self._build_partition(trajectory_string, first_id)
        with self._lock:
            self._partitions = self._partitions + (partition,)
            self._snapshot = None
        self._enforce_max_partitions()
        return self.snapshot().partitions[-1]

    @classmethod
    def from_parts(
        cls,
        alphabet: Alphabet,
        partitions: Sequence[Partition],
        block_size: int = 63,
        max_partitions: int | None = None,
        tail_max_symbols: int | None = None,
        tail_max_trajectories: int | None = None,
        compaction: str = "inline",
        **cinct_kwargs: object,
    ) -> "PartitionedCiNCT":
        """Reassemble a partitioned index from already-built partitions.

        This is the restore path used by the universal persistence layer: the
        partitions arrive restored from their archives and are installed
        as-is — nothing is decoded eagerly; tiered merges and
        :meth:`consolidate` decode trajectory text from the indexes when (and
        only when) they run.  A persisted tail is restored separately via
        :meth:`restore_tail`.
        """
        index = cls(
            block_size=block_size,
            max_partitions=max_partitions,
            tail_max_symbols=tail_max_symbols,
            tail_max_trajectories=tail_max_trajectories,
            compaction=compaction,
            **cinct_kwargs,
        )
        index._alphabet = alphabet
        expected = 0
        restored: list[Partition] = []
        for partition in partitions:
            if partition.first_trajectory_id != expected:
                raise ConstructionError(
                    "partitions must be supplied in trajectory order "
                    f"(expected first id {expected}, "
                    f"got {partition.first_trajectory_id})"
                )
            expected += partition.n_trajectories
            restored.append(partition)
        index._partitions = tuple(restored)
        if index._tail is not None:
            index._tail.first_trajectory_id = expected
        return index

    def restore_tail(
        self,
        text: np.ndarray,
        lengths: Sequence[int],
        first_trajectory_id: int,
    ) -> None:
        """Restore the mutable tail from persisted arrays (load path).

        ``text`` is the tail body without the ``#`` terminator, exactly as
        ``tail.npz`` stores it.  Installing a tail force-enables the
        tail tier even when the thresholds were not set (a saved tail must
        stay queryable after reload regardless of config drift).
        """
        with self._lock:
            expected = sum(p.n_trajectories for p in self._partitions)
            if first_trajectory_id != expected:
                raise ConstructionError(
                    f"tail must continue the partition id space at {expected}, "
                    f"got first id {first_trajectory_id}"
                )
            self._tail = _MutableTail.from_arrays(text, lengths, first_trajectory_id)
            self._snapshot = None

    def consolidate(self) -> Partition:
        """Rebuild a single partition over all accumulated trajectories.

        Each partition's text is decoded from its index by a batched
        inverse walk (:meth:`Partition.trajectory_string`) and concatenated
        with the tail's, so the raw fleet is never materialised as edge
        lists.
        """
        self.wait_for_compaction()
        with self._lock:
            pieces = [p.trajectory_string(self._alphabet) for p in self._partitions]
            tail_pieces = 0
            if self._tail is not None and self._tail.n_trajectories:
                pieces.append(
                    self._tail.prefix_string(self._tail.n_trajectories, self._alphabet)
                )
                tail_pieces = self._tail.n_trajectories
            if not pieces:
                raise ConstructionError("nothing to consolidate: no trajectories were added")
            merged = concatenate_trajectory_strings(self._alphabet, pieces)
            partition = self._build_partition(merged, 0)
            self._partitions = (partition,)
            if self._tail is not None and tail_pieces:
                self._tail.drop_prefix(tail_pieces)
            self._snapshot = None
            return partition

    def _enforce_max_partitions(self) -> None:
        """Tiered merging: fold adjacent partitions until under the bound."""
        if self.max_partitions is None:
            return
        while self.n_partitions > self.max_partitions:
            if not self._merge_smallest_adjacent_pair():
                break

    def _merge_smallest_adjacent_pair(self) -> bool:
        with self._lock:
            parts = self._partitions
            if len(parts) < 2:
                return False
            best = min(
                range(len(parts) - 1),
                key=lambda i: parts[i].index.length + parts[i + 1].index.length,
            )
            left, right = parts[best], parts[best + 1]
        merged = concatenate_trajectory_strings(
            self._alphabet,
            [left.trajectory_string(self._alphabet), right.trajectory_string(self._alphabet)],
        )
        partition = self._build_partition(merged, left.first_trajectory_id)
        with self._lock:
            current = list(self._partitions)
            for i, candidate in enumerate(current):
                if candidate is left:
                    if i + 1 < len(current) and current[i + 1] is right:
                        current[i : i + 2] = [partition]
                        self._partitions = tuple(current)
                        self._snapshot = None
                        self._tiered_merges += 1
                        return True
                    break
            return False

    # ------------------------------------------------------------------ #
    # compaction
    # ------------------------------------------------------------------ #
    def _maybe_compact(self) -> None:
        if self.compaction == "off" or self._tail is None:
            return
        with self._lock:
            if self._compacting:
                return
            tail = self._tail
            k = tail.n_trajectories
            if k == 0:
                return
            over = (
                self.tail_max_trajectories is not None
                and k >= self.tail_max_trajectories
            ) or (
                self.tail_max_symbols is not None
                and tail.n_symbols >= self.tail_max_symbols
            )
            if not over:
                return
            # Copy-on-seal: the sealed prefix is detached here; appends keep
            # landing behind it and queries keep reading the full tail until
            # the swap publishes.
            sealed = tail.prefix_string(k, self._alphabet)
            first_id = tail.first_trajectory_id
            self._compacting = True
        if self.compaction == "background":
            thread = threading.Thread(
                target=self._compact,
                args=(sealed, k, first_id),
                name="repro-compaction",
                daemon=True,
            )
            self._compaction_thread = thread
            thread.start()
        else:
            self._compact(sealed, k, first_id)

    def _compact(self, sealed: TrajectoryString, k: int, first_id: int) -> None:
        started = time.perf_counter()
        swapped = False
        try:
            partition = self._build_partition(sealed, first_id)
            with self._lock:
                maybe_crash_save(COMPACTION_SWAP_STAGE)
                assert self._tail is not None
                self._partitions = self._partitions + (partition,)
                self._tail.drop_prefix(k)
                self._snapshot = None
                elapsed = time.perf_counter() - started
                self._compactions += 1
                self._compaction_seconds_total += elapsed
                self._last_compaction_seconds = elapsed
                self._last_compaction_unix = time.time()
                self._last_compaction_error = None
            swapped = True
        except Exception as error:  # noqa: BLE001 - a dead compaction must not kill ingest
            # The swap never published, so the pre-swap view (partitions +
            # full tail) is still the consistent, serving state — exactly the
            # crash model REPRO_SAVE_CRASH=compaction/swap exercises.
            with self._lock:
                self._compaction_failures += 1
                self._last_compaction_error = f"{type(error).__name__}: {error}"
        finally:
            with self._lock:
                self._compacting = False
        if swapped:
            self._enforce_max_partitions()
            listener = self._on_growth
            if listener is not None:
                listener()

    def _build_partition(self, trajectory_string: TrajectoryString, first_id: int) -> Partition:
        started = time.perf_counter()
        bwt_result = burrows_wheeler_transform(
            trajectory_string.text, sigma=self._alphabet.sigma
        )
        bwt_seconds = time.perf_counter() - started
        partition = Partition.from_bwt(
            trajectory_string, bwt_result, first_id,
            block_size=self.block_size, **self._cinct_kwargs,
        )
        partition.index.construction.bwt_seconds = bwt_seconds
        return partition

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def alphabet(self) -> Alphabet:
        """The shared alphabet across every partition."""
        return self._alphabet

    @property
    def n_partitions(self) -> int:
        """Current number of compressed partitions (the tail not included)."""
        with self._lock:
            return len(self._partitions)

    @property
    def n_trajectories(self) -> int:
        """Total number of trajectories added so far (partitions + tail)."""
        with self._lock:
            total = sum(p.n_trajectories for p in self._partitions)
            if self._tail is not None:
                total += self._tail.n_trajectories
            return total

    def partitions(self) -> Iterator[Partition]:
        """Iterate over the current compressed partitions (oldest first)."""
        return iter(self.snapshot().partitions)

    def size_in_bits(self) -> int:
        """Sum of the partition index sizes plus the uncompressed tail."""
        snap = self.snapshot()
        bits = sum(partition.size_in_bits() for partition in snap.partitions)
        if snap.tail is not None:
            bits += snap.tail.scanner.size_in_bits()
        return bits

    def total_symbols(self) -> int:
        """Total trajectory-string length across all tiers."""
        snap = self.snapshot()
        total = sum(partition.index.length for partition in snap.partitions)
        if snap.tail is not None:
            total += snap.tail.trajectory_string.length
        return total

    def bits_per_symbol(self) -> float:
        """Aggregate index size per indexed symbol."""
        total = self.total_symbols()
        if total == 0:
            raise QueryError("the partitioned index is empty")
        return self.size_in_bits() / total

    def ingest_stats(self) -> dict[str, object]:
        """Tail and compaction observability counters (one consistent read)."""
        with self._lock:
            tail = self._tail
            return {
                "tail": {
                    "enabled": tail is not None,
                    "trajectories": 0 if tail is None else tail.n_trajectories,
                    "symbols": 0 if tail is None else tail.n_symbols,
                    "first_trajectory_id": (
                        None if tail is None else tail.first_trajectory_id
                    ),
                    "max_symbols": self.tail_max_symbols,
                    "max_trajectories": self.tail_max_trajectories,
                },
                "compaction": {
                    "mode": self.compaction,
                    "in_flight": self._compacting,
                    "count": self._compactions,
                    "failures": self._compaction_failures,
                    "seconds_total": self._compaction_seconds_total,
                    "last_seconds": self._last_compaction_seconds,
                    "last_unix": self._last_compaction_unix,
                    "last_error": self._last_compaction_error,
                    "tiered_merges": self._tiered_merges,
                },
            }

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def count(self, path: Sequence[Hashable]) -> int:
        """Total occurrences of the path across every partition and the tail."""
        return sum(self._per_tier_counts(path))

    def contains(self, path: Sequence[Hashable]) -> bool:
        """True when the path occurs in at least one tier.

        Short-circuits on the first matching partition — unlike
        :meth:`count`, later partitions are never consulted once a match is
        found.
        """
        pattern = self._encode_checked(path)
        if pattern is None:
            return False
        return self.contains_encoded(pattern)

    def contains_encoded(self, pattern: Sequence[int]) -> bool:
        """Any-tier short-circuit for an already-encoded pattern.

        The symbol-level twin of :meth:`contains`, used by the engine
        executor's dedicated contains plan kind: the scan stops at the first
        tier reporting an occurrence instead of summing a full count over
        every partition.
        """
        symbols, snap = self._searchable(pattern)
        largest = max(symbols, default=-1)
        for partition in snap.partitions:
            if largest < partition.index.sigma and partition.index.contains(symbols):
                return True
        if snap.tail is not None and largest < snap.tail.scanner.sigma:
            return snap.tail.scanner.contains(symbols)
        return False

    def counts_by_partition(self, path: Sequence[Hashable]) -> list[int]:
        """Occurrence count of the path in each tier (oldest first).

        When the mutable tail holds trajectories it contributes the final
        entry, so the list always sums to :meth:`count`.
        """
        return self._per_tier_counts(path)

    def matching_partitions(self, path: Sequence[Hashable]) -> list[int]:
        """Indices of the tiers in which the path occurs (tail last)."""
        return [index for index, count in enumerate(self._per_tier_counts(path)) if count]

    def count_encoded(self, pattern: Sequence[int]) -> int:
        """Total occurrences of an already-encoded symbol pattern.

        The symbol-level twin of :meth:`count`, used by the engine facade
        (which performs its own path encoding and error normalisation).
        """
        return sum(self.counts_encoded_by_partition(pattern))

    def counts_encoded_by_partition(self, pattern: Sequence[int]) -> list[int]:
        """Occurrences of an encoded pattern in each tier (oldest first)."""
        symbols, snap = self._searchable(pattern)
        return self._tier_counts(symbols, snap)

    def _tier_counts(self, symbols: list[int], snap: IndexSnapshot) -> list[int]:
        largest = max(symbols, default=-1)
        counts = [
            partition.index.count(symbols) if largest < partition.index.sigma else 0
            for partition in snap.partitions
        ]
        if snap.tail is not None:
            tail_count = 0
            if largest < snap.tail.scanner.sigma:
                tail_count = snap.tail.scanner.count(symbols)
            counts.append(tail_count)
        return counts

    def _searchable(self, pattern: Sequence[int]) -> tuple[list[int], IndexSnapshot]:
        """Encoded-pattern prologue shared by the count and contains paths.

        Owns the empty-index guard and the compatibility rule: symbols
        introduced by later batches are outside an older partition's
        alphabet, so the path cannot occur in it (largest symbol >= that
        partition's sigma).  The same rule shields a stale tail snapshot on
        an untouched shard of a sharded fleet, whose scanner sigma predates
        alphabet growth on sibling shards.
        """
        snap = self.snapshot()
        if snap.empty:
            raise QueryError(EMPTY_INDEX_MESSAGE)
        return [int(s) for s in pattern], snap

    def count_encoded_many(
        self, patterns: Sequence[Sequence[int]], interval_cache=None
    ) -> list[int]:
        """Batched :meth:`count_encoded` over a workload of encoded patterns.

        One :class:`~repro.fmindex.trie.PatternTrie` is built over the whole
        workload (encoded against the shared global alphabet) and fanned
        across ``compressed partitions ∪ tail``: each partition answers every
        pattern inside its alphabet with one :meth:`CiNCT.trie_search` pass —
        a symbol a partition has never seen simply makes its trie node dead
        there — the uncompressed tail scans its subset, and totals accumulate
        per pattern, bit-identical to the scalar loop.  ``interval_cache``
        (optional) is shared across the partitions through tier-scoped key
        views; the mutable tail is never cached because it grows without an
        epoch bump.
        """
        snap = self.snapshot()
        if snap.empty:
            raise QueryError(EMPTY_INDEX_MESSAGE)
        pats = [[int(s) for s in pattern] for pattern in patterns]
        for pattern in pats:
            if not pattern:
                raise QueryError(EMPTY_PATTERN_MESSAGE)
            for symbol in pattern:
                if symbol < 0:
                    raise QueryError(
                        symbol_out_of_range_message(symbol, self._alphabet.sigma)
                    )
        totals = [0] * len(pats)
        if not pats:
            return totals
        share = interval_cache is not None and getattr(interval_cache, "enabled", True)
        trie = PatternTrie(pats)
        for tier, partition in enumerate(snap.partitions):
            view = _TierIntervalView(interval_cache, tier) if share else None
            found_ranges = partition.index.trie_search(trie, interval_cache=view)
            for i, found in enumerate(found_ranges):
                if found is not None:
                    totals[i] += found[1] - found[0]
        if snap.tail is not None:
            sigma = snap.tail.scanner.sigma
            inside = [i for i, pattern in enumerate(pats) if max(pattern) < sigma]
            if inside:
                for i, count in zip(
                    inside, snap.tail.scanner.count_many([pats[i] for i in inside])
                ):
                    totals[i] += count
        return totals

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _encode_checked(self, path: Sequence[Hashable]) -> list[int] | None:
        """Shared raw-path prologue: canonical raises, ``None`` for unknowns.

        A segment never observed in any batch cannot match anywhere, so the
        path encodes to ``None`` instead of raising.  (The engine facade is
        stricter and raises AlphabetError; this lenient behaviour is kept
        for the original entry points.)
        """
        if self.snapshot().empty:
            raise QueryError(EMPTY_INDEX_MESSAGE)
        edges = list(path)
        if not edges:
            raise QueryError(EMPTY_PATH_MESSAGE)
        if any(edge not in self._alphabet for edge in edges):
            return None
        return self._alphabet.encode_path(edges)

    def _per_tier_counts(self, path: Sequence[Hashable]) -> list[int]:
        snap = self.snapshot()
        if snap.empty:
            raise QueryError(EMPTY_INDEX_MESSAGE)
        pattern = self._encode_checked(path)
        if pattern is None:
            return [0] * (len(snap.partitions) + (1 if snap.tail is not None else 0))
        return self._tier_counts(pattern, snap)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"PartitionedCiNCT(partitions={self.n_partitions}, "
            f"trajectories={self.n_trajectories}, sigma={self._alphabet.sigma})"
        )
