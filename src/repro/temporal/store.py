"""The :class:`TimestampStore`: compressed per-trajectory timestamp storage.

The paper compresses spatial paths only and notes (Section VII) that CiNCT
composes with a temporal companion.  This module is that companion's storage
layer: one delta-encoded entry per trajectory, tolerating ``None`` gaps for
trajectories that carry no timestamps, with an ``.npz``-backed on-disk format
so whole-engine persistence never serialises raw timestamp lists as JSON.

Encoding is built on :class:`~repro.queries.timestamp_compression.DeltaTimestampCodec`
and is **always lossless**: a trajectory whose timestamps sit at integral
multiples of the codec resolution (how the paper's datasets are sampled) is
stored as a 64-bit start plus minimal-width integer deltas; any trajectory the
codec cannot reproduce bit-exactly falls back to raw ``float64`` samples.  The
representation choice is per trajectory, deterministic, and verified at encode
time, so decoded timestamps are identical to the originals before and after a
save/load round-trip.

:meth:`TimestampStore.size_in_bits` reports the *exact* encoded size (presence
bitmap + per-entry payloads), replacing the ``delta_resolution`` guess the
engine previously made through :meth:`TemporalIndex.size_in_bits`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import ConstructionError, DatasetError, QueryError
from ..io.npzutil import ensure_npz_suffix
from ..queries.timestamp_compression import DeltaTimestampCodec, EncodedTimestamps

_STORE_FORMAT_VERSION = 1

#: entry kinds in the flat archive layout
_KIND_NONE = 0
_KIND_DELTA = 1
_KIND_RAW = 2

#: One sampled prefix sum is kept every this many quantised deltas, so a
#: point lookup decodes at most this many deltas instead of the whole entry.
POINT_SAMPLE_RATE = 32


class _Entry:
    """One trajectory's stored timestamps (delta-encoded or raw fallback)."""

    __slots__ = ("encoded", "raw", "_anchors")

    def __init__(self, encoded: EncodedTimestamps | None, raw: np.ndarray | None):
        self.encoded = encoded
        self.raw = raw
        # Sampled prefix sums over the expanded deltas, built lazily on the
        # first point lookup (bulk decode paths never pay for them).
        self._anchors: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        if self.encoded is not None:
            return self.encoded.n_samples
        assert self.raw is not None
        return int(self.raw.size)

    def decode(self) -> np.ndarray:
        if self.encoded is not None:
            return self.encoded.decode()
        assert self.raw is not None
        return self.raw.copy()

    def timestamp_at(self, index: int) -> float:
        """One decoded timestamp without decoding the whole entry.

        For delta entries this continues the delta accumulation from the
        nearest sampled prefix sum, reproducing :meth:`decode`'s sequential
        float summation order exactly — point lookups are bit-identical to
        indexing the full decode.
        """
        if self.raw is not None:
            return float(self.raw[index])
        encoded = self.encoded
        assert encoded is not None
        if index == 0:
            return float(encoded.start)
        if self._anchors is None:
            deltas = encoded.quantised_deltas.astype(np.float64) * encoded.resolution
            # anchors[j] holds the running delta sum after j * RATE deltas,
            # taken from the same left-to-right cumsum decode() performs.
            sums = np.cumsum(deltas)
            self._anchors = np.concatenate(
                ([0.0], sums[POINT_SAMPLE_RATE - 1 :: POINT_SAMPLE_RATE])
            )
        anchor_index = index // POINT_SAMPLE_RATE
        base = float(self._anchors[anchor_index])
        tail = (
            encoded.quantised_deltas[anchor_index * POINT_SAMPLE_RATE : index].astype(
                np.float64
            )
            * encoded.resolution
        )
        if tail.size:
            # Continue the sequential accumulation from the anchor so the
            # float rounding matches the full cumsum term for term.
            base = float(np.cumsum(np.concatenate(([base], tail)))[-1])
        return float(encoded.start + base)

    def size_in_bits(self) -> int:
        if self.encoded is not None:
            return self.encoded.size_in_bits()
        assert self.raw is not None
        # raw float64 samples plus the same per-entry width byte the codec pays
        return int(self.raw.size) * 64 + 8


class TimestampStore:
    """Delta-encoded per-trajectory timestamps, addressable by trajectory id.

    Parameters
    ----------
    timestamps:
        Initial per-trajectory timestamp sequences; ``None`` marks a
        trajectory without timestamps (the gap is preserved).
    codec:
        The delta codec applied to every entry (lossless 1-second resolution
        by default).  Entries the codec cannot reproduce exactly are kept as
        raw ``float64`` samples, so the store is lossless regardless.

    Notes
    -----
    This is the engine's *lossless storage* layer.  The older
    :class:`~repro.queries.timestamp_compression.CompressedTimestampStore`
    serves a different purpose — analysing the size/accuracy trade-off of
    *lossy* codecs (it keeps the originals to measure reconstruction error)
    — and stays in the analysis/benchmark layer.
    """

    def __init__(
        self,
        timestamps: Iterable[Sequence[float] | np.ndarray | None] = (),
        codec: DeltaTimestampCodec | None = None,
    ):
        self.codec = codec or DeltaTimestampCodec()
        self._entries: list[_Entry | None] = []
        self.extend(timestamps)

    # ------------------------------------------------------------------ #
    # growth
    # ------------------------------------------------------------------ #
    def append(self, timestamps: Sequence[float] | np.ndarray | None) -> None:
        """Store one trajectory's timestamps (``None`` records a gap)."""
        self.extend([timestamps])

    def extend(
        self, timestamps: Iterable[Sequence[float] | np.ndarray | None]
    ) -> None:
        """Append one entry per trajectory in order (``None`` gaps included).

        The whole batch is encoded at once over its concatenated samples; a
        rejected batch appends nothing.  Every entry is stored delta-encoded
        exactly when :meth:`EncodedTimestamps.decode` reproduces its samples
        bit for bit, and as raw ``float64`` samples otherwise.
        """
        batch = list(timestamps)
        arrays: list[np.ndarray] = []
        for times in batch:
            if times is None:
                continue
            array = np.asarray(times, dtype=np.float64)
            if array.ndim != 1 or array.size == 0:
                raise ConstructionError(
                    "a timestamp sequence must be a non-empty 1-d array"
                )
            arrays.append(array)
        if not arrays:
            self._entries.extend(batch)  # gaps only
            return
        resolution = self.codec.resolution
        entries = iter(_assemble_entries(*_encode(arrays, resolution), resolution))
        self._entries.extend(None if times is None else next(entries) for times in batch)

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def n_trajectories(self) -> int:
        """Number of entries (timestamped or not)."""
        return len(self._entries)

    @property
    def n_timestamped(self) -> int:
        """Number of entries that carry timestamps."""
        return sum(1 for entry in self._entries if entry is not None)

    @property
    def any_timestamped(self) -> bool:
        """True when at least one trajectory carries timestamps."""
        return any(entry is not None for entry in self._entries)

    @property
    def fully_timestamped(self) -> bool:
        """True when the store is non-empty and every entry has timestamps."""
        return bool(self._entries) and all(
            entry is not None for entry in self._entries
        )

    def has_timestamps(self, trajectory_id: int) -> bool:
        """True when the given trajectory carries timestamps."""
        self._check_id(trajectory_id)
        return self._entries[trajectory_id] is not None

    def get(self, trajectory_id: int) -> list[float] | None:
        """Decoded timestamps of one trajectory (``None`` for a gap).

        Entries decode on every access (linear in the trajectory length);
        nothing decoded is retained, so the store's resident size stays the
        compressed one.
        """
        self._check_id(trajectory_id)
        entry = self._entries[trajectory_id]
        if entry is None:
            return None
        return [float(v) for v in entry.decode()]

    def timestamp(self, trajectory_id: int, edge_index: int) -> float | None:
        """Point lookup: the timestamp of one segment of one trajectory.

        Returns ``None`` for trajectories without timestamps.  Delta-encoded
        entries answer through sampled prefix sums over their quantised
        deltas (one anchor every :data:`POINT_SAMPLE_RATE` deltas), so the
        lookup decodes a bounded tail instead of the whole trajectory, while
        remaining bit-identical to ``get(trajectory_id)[edge_index]``.
        """
        self._check_id(trajectory_id)
        entry = self._entries[trajectory_id]
        if entry is None:
            return None
        if not 0 <= edge_index < entry.n_samples:
            raise QueryError(
                f"edge index {edge_index} out of range for trajectory {trajectory_id}"
            )
        return entry.timestamp_at(edge_index)

    def as_lists(self) -> list[list[float] | None]:
        """Every entry decoded, in trajectory order (gaps as ``None``)."""
        return [self.get(i) for i in range(len(self._entries))]

    def __iter__(self) -> Iterator[list[float] | None]:
        return iter(self.as_lists())

    # ------------------------------------------------------------------ #
    # size accounting
    # ------------------------------------------------------------------ #
    def size_in_bits(self) -> int:
        """Exact encoded size: presence bitmap plus per-entry payloads."""
        bits = len(self._entries)  # one presence bit per trajectory
        bits += sum(
            entry.size_in_bits() for entry in self._entries if entry is not None
        )
        return bits

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path, compress: bool = True) -> Path:
        """Write the store as an ``.npz`` archive.

        ``compress=False`` writes uncompressed (``ZIP_STORED``) members so
        :meth:`load` can memory-map the delta/raw payload arrays in place —
        the engine persistence layer saves this way for
        ``load_index(..., mmap=True)``.  The default stays compressed:
        delta-encoded timestamps compress extremely well, and standalone
        archives (exports, the temporal-store benchmark) care about bytes,
        not page sharing.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        kinds = np.zeros(len(self._entries), dtype=np.int8)
        lengths = np.zeros(len(self._entries), dtype=np.int64)
        starts = np.zeros(len(self._entries), dtype=np.float64)
        delta_chunks: list[np.ndarray] = []
        raw_chunks: list[np.ndarray] = []
        for i, entry in enumerate(self._entries):
            if entry is None:
                kinds[i] = _KIND_NONE
                continue
            lengths[i] = entry.n_samples
            if entry.encoded is not None:
                kinds[i] = _KIND_DELTA
                starts[i] = entry.encoded.start
                delta_chunks.append(
                    np.asarray(entry.encoded.quantised_deltas, dtype=np.int64)
                )
            else:
                kinds[i] = _KIND_RAW
                raw_chunks.append(entry.raw)
        writer = np.savez_compressed if compress else np.savez
        writer(
            path,
            format_version=np.asarray([_STORE_FORMAT_VERSION], dtype=np.int64),
            resolution=np.asarray([self.codec.resolution], dtype=np.float64),
            kinds=kinds,
            lengths=lengths,
            starts=starts,
            deltas=(
                np.concatenate(delta_chunks)
                if delta_chunks
                else np.zeros(0, dtype=np.int64)
            ),
            raw_values=(
                np.concatenate(raw_chunks)
                if raw_chunks
                else np.zeros(0, dtype=np.float64)
            ),
        )
        return ensure_npz_suffix(path)

    @classmethod
    def load(cls, path: str | Path, mmap_mode: str | None = None) -> "TimestampStore":
        """Reload a store written by :meth:`save`.

        With ``mmap_mode="r"`` the payload arrays stay read-only memory maps
        into the archive (uncompressed saves only; compressed archives fall
        back to a full parse) and each entry holds a window into the shared
        map — decoded values are bit-identical either way.
        """
        from ..io.npzutil import load_npz_arrays

        path = Path(path)
        if not path.exists():
            raise DatasetError(f"timestamp archive not found: {path}")
        archive = load_npz_arrays(path, mmap_mode=mmap_mode)
        version = int(archive["format_version"][0])
        if version != _STORE_FORMAT_VERSION:
            raise ConstructionError(
                f"unsupported timestamp archive version {version} "
                f"(expected {_STORE_FORMAT_VERSION})"
            )
        resolution = float(archive["resolution"][0])
        kinds = np.asarray(archive["kinds"], dtype=np.int8)
        lengths = np.asarray(archive["lengths"], dtype=np.int64)
        starts = np.asarray(archive["starts"], dtype=np.float64)
        if lengths.size != kinds.size or starts.size != kinds.size:
            raise ConstructionError(
                f"corrupt timestamp archive: {kinds.size} kinds, "
                f"{lengths.size} lengths and {starts.size} starts"
            )
        # Plain ndarray views: a memmap-backed payload stays a window into
        # the shared map, and every entry a window into the payload.
        deltas = np.asarray(_as_dtype(archive["deltas"], np.int64))
        raw_values = np.asarray(_as_dtype(archive["raw_values"], np.float64))
        _check_archive(kinds, lengths, deltas, raw_values)
        store = cls(codec=DeltaTimestampCodec(resolution=resolution))
        store._entries = _assemble_entries(
            kinds, lengths, starts, deltas, raw_values, resolution
        )
        return store

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _check_id(self, trajectory_id: int) -> None:
        if not 0 <= trajectory_id < len(self._entries):
            raise QueryError(f"trajectory id {trajectory_id} out of range")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TimestampStore(trajectories={len(self._entries)}, "
            f"timestamped={self.n_timestamped}, bits={self.size_in_bits()})"
        )


def _as_dtype(array: np.ndarray, dtype: type) -> np.ndarray:
    """Dtype-normalise a loaded payload, copying only on mismatch.

    Memory-mapped payloads must pass through untouched — an ``astype`` copy
    would materialise the window and drop the page sharing the mmap load
    exists for.
    """
    if array.dtype == np.dtype(dtype):
        return array
    return array.astype(dtype)


def _encode(
    arrays: list[np.ndarray], resolution: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Encode a batch of non-empty sample arrays into the archive layout.

    Returns ``(kinds, lengths, starts, deltas, raw_values)`` as
    :meth:`TimestampStore.save` writes them.  The lossless check decodes
    every entry the way :meth:`EncodedTimestamps.decode` does: entries of
    one length form the rows of a matrix whose row-wise ``cumsum`` adds the
    deltas in the same left-to-right order, so the check is exact on
    fractional data too (a global ``cumsum`` minus offsets would round
    differently).
    """
    lengths = np.fromiter(map(len, arrays), dtype=np.int64, count=len(arrays))
    values = np.concatenate(arrays)
    if not np.isfinite(values).all():
        raise ConstructionError("timestamps must be finite")
    firsts = np.cumsum(lengths) - lengths
    # Drop the steps that cross from one trajectory into the next.
    deltas = np.delete(np.diff(values), firsts[1:] - 1)
    if np.any(deltas < 0):
        raise ConstructionError("timestamps must be non-decreasing")
    quantised = np.rint(deltas / resolution).astype(np.int64)
    steps = quantised.astype(np.float64) * resolution
    delta_firsts = firsts - np.arange(lengths.size)

    lossless = np.empty(lengths.size, dtype=bool)
    by_length = np.argsort(lengths, kind="stable")
    splits = np.flatnonzero(np.diff(lengths[by_length])) + 1
    for rows in np.split(by_length, splits):
        length = int(lengths[rows[0]])
        sums = np.cumsum(steps[delta_firsts[rows, None] + np.arange(length - 1)], axis=1)
        decoded = values[firsts[rows], None] + np.concatenate(
            (np.zeros((rows.size, 1)), sums), axis=1
        )
        samples = values[firsts[rows, None] + np.arange(length)]
        lossless[rows] = (decoded == samples).all(axis=1)

    kinds = np.where(lossless, _KIND_DELTA, _KIND_RAW).astype(np.int8)
    return (
        kinds,
        lengths,
        values[firsts],
        quantised[np.repeat(lossless, lengths - 1)],
        values[np.repeat(~lossless, lengths)],
    )


#: ``_POWERS_OF_TWO[k] == 2**k``: the bit length of ``v >= 0`` is the number
#: of these that are ``<= v``.
_POWERS_OF_TWO = np.left_shift(1, np.arange(63, dtype=np.int64))


def _payload_ends(
    kinds: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """End of every entry's window into the delta and the raw payload."""
    delta_ends = np.cumsum(np.where(kinds == _KIND_DELTA, lengths - 1, 0))
    raw_ends = np.cumsum(np.where(kinds == _KIND_RAW, lengths, 0))
    return delta_ends, raw_ends


def _check_archive(
    kinds: np.ndarray, lengths: np.ndarray, deltas: np.ndarray, raw_values: np.ndarray
) -> None:
    """Raise the corruption an entry-by-entry walk of the archive meets first.

    Entries are read in order, each taking its window from the running
    payload cursors; a non-positive length stops the walk, since it would
    misalign every later window.  Of the entries before it, the first with
    an unknown kind, a negative delta or a decreasing raw sample is
    reported, and a clean walk must consume both payloads exactly.
    """
    present = kinds != _KIND_NONE
    short = np.flatnonzero(present & (lengths <= 0))
    failures: list[tuple[int, str]] = []
    walked = kinds.size
    if short.size:
        walked = int(short[0])
        failures.append((walked, f"entry {walked} has length {int(lengths[walked])}"))
    kinds, lengths = kinds[:walked], lengths[:walked]
    delta_ends, raw_ends = _payload_ends(kinds, lengths)
    unknown = np.flatnonzero(
        (kinds != _KIND_NONE) & (kinds != _KIND_DELTA) & (kinds != _KIND_RAW)
    )
    if unknown.size:
        failures.append((int(unknown[0]), f"entry kind {int(kinds[unknown[0]])}"))
    negative = np.flatnonzero(deltas < 0)
    if negative.size:
        owner = int(np.searchsorted(delta_ends, negative[0], side="right"))
        if owner < walked:
            failures.append((owner, f"entry {owner} has negative deltas"))
    falls = np.flatnonzero(raw_values[1:] < raw_values[:-1])
    owners = np.searchsorted(raw_ends, falls, side="right")
    inside = owners < walked
    inside[inside] = falls[inside] + 1 < raw_ends[owners[inside]]
    if inside.any():
        owner = int(owners[np.argmax(inside)])
        failures.append((owner, f"entry {owner} has decreasing timestamps"))
    if failures:
        raise ConstructionError(f"corrupt timestamp archive: {min(failures)[1]}")
    delta_cursor = int(delta_ends[-1]) if walked else 0
    raw_cursor = int(raw_ends[-1]) if walked else 0
    if delta_cursor != deltas.size or raw_cursor != raw_values.size:
        raise ConstructionError(
            "corrupt timestamp archive: entry lengths do not match the "
            f"stored payload (deltas {delta_cursor}/{deltas.size}, "
            f"raw {raw_cursor}/{raw_values.size})"
        )


def _assemble_entries(
    kinds: np.ndarray,
    lengths: np.ndarray,
    starts: np.ndarray,
    deltas: np.ndarray,
    raw_values: np.ndarray,
    resolution: float,
) -> list[_Entry | None]:
    """One entry per record of a well-formed archive layout.

    Every entry's payload is a window into ``deltas`` or ``raw_values``.  A
    delta entry's width is the bit length of its largest delta (at least 1),
    as :meth:`DeltaTimestampCodec.encode` computes it.
    """
    delta_ends, raw_ends = _payload_ends(kinds, lengths)
    widths = np.ones(kinds.size, dtype=np.int64)
    with_deltas = np.flatnonzero((kinds == _KIND_DELTA) & (lengths > 1))
    if with_deltas.size:
        firsts = delta_ends[with_deltas] - (lengths[with_deltas] - 1)
        # The non-empty windows tile the payload, so each reduceat segment
        # is exactly one entry's deltas.
        maxima = np.maximum.reduceat(deltas, firsts)
        widths[with_deltas] = np.maximum(
            np.searchsorted(_POWERS_OF_TWO, maxima, side="right"), 1
        )
    entries: list[_Entry | None] = []
    delta_first = raw_first = 0
    for kind, start, delta_end, raw_end, width in zip(
        kinds.tolist(), starts.tolist(), delta_ends.tolist(), raw_ends.tolist(), widths.tolist()
    ):
        if kind == _KIND_DELTA:
            encoded = EncodedTimestamps(
                start=start,
                quantised_deltas=deltas[delta_first:delta_end],
                resolution=resolution,
                delta_width=width,
            )
            entries.append(_Entry(encoded, None))
        elif kind == _KIND_RAW:
            entries.append(_Entry(None, raw_values[raw_first:raw_end]))
        else:
            entries.append(None)
        delta_first, raw_first = delta_end, raw_end
    return entries
