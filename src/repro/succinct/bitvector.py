"""Plain (uncompressed) bit vector with constant-time rank and select.

This is the succinct-dictionary baseline used by the uncompressed FM-index
variants (``UFMI``) and as the ground-truth reference in tests.  Bits are
packed into 64-bit words; a cumulative popcount directory provides
:meth:`BitVector.rank1` in O(1) and :meth:`BitVector.select1` in
O(log n) via binary search over the directory, seeded by a sampled select
directory so the search only touches a narrow word range.

Scalar queries avoid numpy scalar arithmetic entirely: the packed words are
mirrored as native Python ints and within-word popcounts go through a
precomputed 16-bit popcount table, which together make single rank calls an
order of magnitude cheaper than ``bin(int(x)).count("1")`` on ``np.uint64``
scalars.  Batched queries (:meth:`BitVector.rank1_many`,
:meth:`BitVector.access_many`) stay in numpy end to end.

The reported :meth:`BitVector.size_in_bits` follows the usual accounting for
Jacobson-style plain bitmaps: ``n`` bits of payload plus the rank directory
(one 64-bit counter per word here, which is intentionally pessimistic compared
to the two-level directory used by sdsl, but constant-factor accurate).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import ConstructionError, QueryError

_WORD_BITS = 64

#: Ones between consecutive select samples (coarse directory, built lazily).
_SELECT_SAMPLE_RATE = 512


def _build_popcount16() -> np.ndarray:
    """Popcounts of every 16-bit value, computed with vectorized bit tricks."""
    x = np.arange(1 << 16, dtype=np.uint32)
    x = x - ((x >> 1) & 0x55555555)
    x = (x & 0x33333333) + ((x >> 2) & 0x33333333)
    x = (x + (x >> 4)) & 0x0F0F0F0F
    return ((x * 0x01010101) >> 24).astype(np.uint8)


#: Precomputed popcount of every 16-bit value (numpy view + plain-list view).
POPCOUNT16 = _build_popcount16()
_POPCOUNT16_LIST: list[int] = POPCOUNT16.tolist()
#: ``LOW_MASKS[i]`` keeps the ``i`` lowest bits of a word (``i`` in 0..64).
LOW_MASKS = np.array([(1 << i) - 1 for i in range(65)], dtype=np.uint64)
#: ``BIT_MASKS[i]`` selects bit ``i`` of a word.
BIT_MASKS = np.array([1 << i for i in range(64)], dtype=np.uint64)


def popcount64(x: int) -> int:
    """Popcount of a native Python int below 2**64 via the 16-bit table."""
    t = _POPCOUNT16_LIST
    return (
        t[x & 0xFFFF]
        + t[(x >> 16) & 0xFFFF]
        + t[(x >> 32) & 0xFFFF]
        + t[(x >> 48) & 0xFFFF]
    )


def popcount_array(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint64`` array through the 16-bit table."""
    halves = np.ascontiguousarray(words.astype("<u8", copy=False)).view(np.uint16)
    return POPCOUNT16[halves].reshape(-1, 4).sum(axis=1, dtype=np.int64)


def _popcount_packed_words(packed: np.ndarray) -> np.ndarray:
    """Per-word popcount of a little-endian byte buffer (8 bytes per word)."""
    return POPCOUNT16[packed.view(np.uint16)].reshape(-1, 4).sum(axis=1, dtype=np.int64)


def scatter_segments(
    bits: np.ndarray, boundaries: np.ndarray, unit: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scatter the segments of ``bits`` into one unit-padded 0/1 buffer.

    Shared by the bulk bit-vector constructors: segment ``i`` is
    ``bits[boundaries[i] : boundaries[i + 1]]`` and lands at
    ``buffer[padded_starts[i] : padded_starts[i] + lengths[i]]``, with each
    segment padded with zeros to a multiple of ``unit`` (a machine word for
    plain bitmaps, an RRR block for compressed ones).  Returns
    ``(lengths, padded_starts, buffer)``.
    """
    lengths = np.diff(boundaries)
    k = int(lengths.size)
    units = (lengths + unit - 1) // unit
    padded_starts = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(units * unit, out=padded_starts[1:])
    buffer = np.zeros(int(padded_starts[-1]), dtype=np.uint8)
    segment_of = np.repeat(np.arange(k), lengths)
    scatter = (
        np.arange(int(boundaries[-1] - boundaries[0]))
        + boundaries[0]
        - boundaries[:-1][segment_of]
        + padded_starts[:-1][segment_of]
    )
    buffer[scatter] = np.asarray(bits[boundaries[0] : boundaries[-1]]) != 0
    return lengths, padded_starts, buffer


def _select_in_word(word: int, remaining: int, base_position: int) -> int:
    """Position of the ``remaining``-th set bit of ``word`` (1-based)."""
    position = base_position
    t = _POPCOUNT16_LIST
    for _ in range(4):
        chunk = word & 0xFFFF
        in_chunk = t[chunk]
        if in_chunk >= remaining:
            while True:
                if chunk & 1:
                    remaining -= 1
                    if remaining == 0:
                        return position
                chunk >>= 1
                position += 1
        remaining -= in_chunk
        word >>= 16
        position += 16
    raise QueryError("select walked past the end of a word")  # pragma: no cover


class BitVector:
    """An immutable bit vector supporting access, rank and select.

    Parameters
    ----------
    bits:
        Any iterable of truthy/falsy values; each element becomes one bit.

    Examples
    --------
    >>> bv = BitVector([1, 0, 1, 1, 0])
    >>> bv.rank1(3)
    2
    >>> bv.select1(2)
    2
    """

    def __init__(self, bits: Iterable[int]):
        arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits)
        mask = arr != 0
        self._n = int(mask.size)
        n_words = (self._n + _WORD_BITS - 1) // _WORD_BITS
        packed = np.packbits(mask, bitorder="little")
        if packed.size != n_words * 8:
            buffer = np.zeros(n_words * 8, dtype=np.uint8)
            buffer[: packed.size] = packed
            packed = buffer
        # _cum_rank[i] = number of ones in words[0:i]
        cum_rank = np.zeros(n_words + 1, dtype=np.int64)
        np.cumsum(_popcount_packed_words(packed), out=cum_rank[1:])
        self._set_packed(self._n, packed.view("<u8").astype(np.uint64, copy=False), cum_rank)

    def __getattr__(self, name: str):
        # Native-int mirrors of the packed words and the rank directory:
        # scalar rank/access touch these instead of numpy scalars, avoiding
        # per-call dtype boxing.  Materialised on first scalar query so that
        # bulk construction never pays for them.
        if name == "_words_py":
            value = self._words.tolist()
        elif name == "_cum_rank_py":
            value = self._cum_rank.tolist()
        else:
            raise AttributeError(name)
        self.__dict__[name] = value
        return value

    @classmethod
    def _from_packed(cls, n: int, words: np.ndarray, cum_rank: np.ndarray) -> "BitVector":
        """Internal: wrap pre-packed words and a pre-computed rank directory."""
        self = object.__new__(cls)
        self._set_packed(n, words, cum_rank)
        return self

    def _set_packed(self, n: int, words: np.ndarray, cum_rank: np.ndarray) -> None:
        self._n = n
        self._words = words
        self._cum_rank = cum_rank
        self._n_ones = int(cum_rank[-1])
        # Sampled select directories, built lazily on first select call.
        self._select1_samples: np.ndarray | None = None
        self._cum_rank0: np.ndarray | None = None
        self._select0_samples: np.ndarray | None = None

    @classmethod
    def from_words(cls, n: int, words: np.ndarray) -> "BitVector":
        """Wrap ``n`` bits packed as :attr:`words`; only the rank directory is computed.

        The words are kept as given (a read-only memory map stays mapped).
        """
        if words.size != (n + _WORD_BITS - 1) // _WORD_BITS:
            raise ConstructionError(f"{words.size} words cannot hold exactly {n} bits")
        cum_rank = np.zeros(words.size + 1, dtype=np.int64)
        np.cumsum(popcount_array(words), out=cum_rank[1:])
        return cls._from_packed(n, words, cum_rank)

    @classmethod
    def build_many(cls, bits: np.ndarray, boundaries: np.ndarray) -> list["BitVector"]:
        """Build one :class:`BitVector` per segment of ``bits`` in bulk.

        ``boundaries`` holds ``k + 1`` segment starts (``bits[boundaries[i] :
        boundaries[i + 1]]`` is segment ``i``).  All segments are packed,
        popcounted and rank-indexed with a handful of whole-array numpy
        operations, so the per-vector cost is object construction only — this
        is what makes level-at-a-time wavelet construction cheap even for
        trees with thousands of small nodes.
        """
        boundaries = np.asarray(boundaries, dtype=np.int64)
        k = int(boundaries.size) - 1
        if k <= 0:
            return []
        lengths, padded_starts, buffer = scatter_segments(bits, boundaries, _WORD_BITS)
        packed = np.packbits(buffer, bitorder="little")
        words_all = packed.view("<u8").astype(np.uint64, copy=False)
        popcounts = _popcount_packed_words(packed)
        cum_all = np.zeros(popcounts.size + 1, dtype=np.int64)
        np.cumsum(popcounts, out=cum_all[1:])
        word_starts = padded_starts // _WORD_BITS
        out: list[BitVector] = []
        for segment in range(k):
            lo = int(word_starts[segment])
            hi = int(word_starts[segment + 1])
            cum = cum_all[lo : hi + 1] - cum_all[lo]
            out.append(cls._from_packed(int(lengths[segment]), words_all[lo:hi], cum))
        return out

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n

    @property
    def n_ones(self) -> int:
        """Total number of set bits."""
        return self._n_ones

    @property
    def n_zeros(self) -> int:
        """Total number of unset bits."""
        return self._n - self._n_ones

    @property
    def words(self) -> np.ndarray:
        """Packed ``uint64`` words: bit ``i`` of word ``k`` is position ``64k + i``."""
        return self._words

    def access(self, i: int) -> int:
        """Return the bit at position ``i`` (0-based)."""
        if not 0 <= i < self._n:
            raise QueryError(f"bit index {i} out of range [0, {self._n})")
        return (self._words_py[i >> 6] >> (i & 63)) & 1

    def __getitem__(self, i: int) -> int:
        return self.access(i)

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_list())

    # ------------------------------------------------------------------ #
    # rank / select
    # ------------------------------------------------------------------ #
    def rank1(self, i: int) -> int:
        """Return the number of set bits in positions ``[0, i)``."""
        if not 0 <= i <= self._n:
            raise QueryError(f"rank position {i} out of range [0, {self._n}]")
        word = i >> 6
        offset = i & 63
        result = self._cum_rank_py[word]
        if offset:
            result += popcount64(self._words_py[word] & ((1 << offset) - 1))
        return result

    def rank0(self, i: int) -> int:
        """Return the number of unset bits in positions ``[0, i)``."""
        return i - self.rank1(i)

    def rank(self, bit: int, i: int) -> int:
        """Return ``rank1(i)`` if ``bit`` is truthy, else ``rank0(i)``."""
        return self.rank1(i) if bit else self.rank0(i)

    def rank1_many(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rank1` over an array of positions."""
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size == 0:
            return np.zeros(0, dtype=np.int64)
        if int(pos.min()) < 0 or int(pos.max()) > self._n:
            raise QueryError(f"rank positions out of range [0, {self._n}]")
        if self._words.size == 0:
            return np.zeros(pos.size, dtype=np.int64)
        word = pos >> 6
        offset = (pos & 63).astype(np.uint64)
        # A position at a word boundary (offset 0) contributes nothing from
        # the partial word; clamp its index so pos == n stays in bounds.
        safe_word = np.minimum(word, self._words.size - 1)
        masked = self._words[safe_word] & ((np.uint64(1) << offset) - np.uint64(1))
        return self._cum_rank[word] + popcount_array(masked)

    def rank0_many(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rank0` over an array of positions."""
        pos = np.asarray(positions, dtype=np.int64)
        return pos - self.rank1_many(pos)

    def rank1_where_set(self, positions: np.ndarray) -> np.ndarray:
        """``rank1(p)`` of each position whose bit is set, ``-1`` where it is unset.

        One word gather answers the access and the rank together (the
        sampled-SA test of a batched locate step); the int64 positions must
        lie in ``[0, n)`` and are not checked.
        """
        word_index = positions >> 6
        within = positions & 63
        words = self._words[word_index]
        ranks = self._cum_rank[word_index] + np.bitwise_count(words & LOW_MASKS[within])
        return np.where(words & BIT_MASKS[within], ranks, -1)

    def access_many(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorized :meth:`access` over an array of positions."""
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size == 0:
            return np.zeros(0, dtype=np.int64)
        if int(pos.min()) < 0 or int(pos.max()) >= self._n:
            raise QueryError(f"bit indices out of range [0, {self._n})")
        return ((self._words[pos >> 6] >> (pos & 63).astype(np.uint64)) & np.uint64(1)).astype(
            np.int64
        )

    def _ensure_select1_samples(self) -> np.ndarray:
        if self._select1_samples is None:
            # samples[j] = index of the word containing the (j * rate + 1)-th one
            ks = np.arange(1, self._n_ones + 1, _SELECT_SAMPLE_RATE, dtype=np.int64)
            self._select1_samples = (
                np.searchsorted(self._cum_rank, ks, side="left").astype(np.int64) - 1
            )
        return self._select1_samples

    def select1(self, k: int) -> int:
        """Return the position of the ``k``-th set bit (1-based ``k``)."""
        if not 1 <= k <= self._n_ones:
            raise QueryError(f"select1 argument {k} out of range [1, {self._n_ones}]")
        samples = self._ensure_select1_samples()
        bucket = (k - 1) // _SELECT_SAMPLE_RATE
        lo = int(samples[bucket])
        hi = int(samples[bucket + 1]) if bucket + 1 < samples.size else self._words.size - 1
        # First word whose cumulative count reaches k, inside [lo, hi].
        word = lo + int(np.searchsorted(self._cum_rank[lo + 1 : hi + 2], k, side="left"))
        remaining = k - self._cum_rank_py[word]
        return _select_in_word(self._words_py[word], remaining, word * _WORD_BITS)

    def _ensure_rank0_directory(self) -> np.ndarray:
        if self._cum_rank0 is None:
            word_starts = np.arange(self._cum_rank.size, dtype=np.int64) * _WORD_BITS
            self._cum_rank0 = word_starts - self._cum_rank
        return self._cum_rank0

    def select0(self, k: int) -> int:
        """Return the position of the ``k``-th unset bit (1-based ``k``)."""
        if not 1 <= k <= self.n_zeros:
            raise QueryError(f"select0 argument {k} out of range [1, {self.n_zeros}]")
        cum_rank0 = self._ensure_rank0_directory()
        if self._select0_samples is None:
            ks = np.arange(1, self.n_zeros + 1, _SELECT_SAMPLE_RATE, dtype=np.int64)
            self._select0_samples = (
                np.searchsorted(cum_rank0, ks, side="left").astype(np.int64) - 1
            )
        samples = self._select0_samples
        bucket = (k - 1) // _SELECT_SAMPLE_RATE
        lo = int(samples[bucket])
        hi = int(samples[bucket + 1]) if bucket + 1 < samples.size else self._words.size - 1
        word = lo + int(np.searchsorted(cum_rank0[lo + 1 : hi + 2], k, side="left"))
        remaining = k - int(cum_rank0[word])
        complement = ~self._words_py[word] & 0xFFFFFFFFFFFFFFFF
        return _select_in_word(complement, remaining, word * _WORD_BITS)

    # ------------------------------------------------------------------ #
    # size accounting
    # ------------------------------------------------------------------ #
    def size_in_bits(self) -> int:
        """Bits used by the payload plus the rank directory.

        The in-memory Python object keeps one 64-bit counter per word for
        simplicity, but the reported size follows the standard two-level
        rank directory (~25% overhead) that an engineered implementation —
        and the paper's sdsl baselines — would use, so that the
        bits-per-symbol figures are comparable.
        """
        payload = self._n
        directory = self._n // 4 + 128
        return payload + directory

    def to_numpy(self) -> np.ndarray:
        """Materialise the bit vector as a ``uint8`` numpy array."""
        if self._n == 0:
            return np.zeros(0, dtype=np.uint8)
        unpacked = np.unpackbits(
            self._words.astype("<u8", copy=False).view(np.uint8), bitorder="little"
        )
        return unpacked[: self._n]

    def to_list(self) -> list[int]:
        """Materialise the bit vector as a plain Python list."""
        return self.to_numpy().tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BitVector(n={self._n}, ones={self._n_ones})"


def bitvector_from_positions(n: int, ones: Sequence[int]) -> BitVector:
    """Build a :class:`BitVector` of length ``n`` with set bits at ``ones``."""
    bits = np.zeros(n, dtype=np.uint8)
    for position in ones:
        if not 0 <= position < n:
            raise QueryError(f"position {position} out of range [0, {n})")
        bits[position] = 1
    return BitVector(bits)
