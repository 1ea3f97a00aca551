"""RRR compressed bit vector (Raman–Raman–Rao), practical variant.

This follows the practical construction of Navarro & Providel ("Fast, small,
simple rank/select on bitmaps", SEA'12) used by the paper: the bit vector is
split into blocks of ``b`` bits (``b`` in {15, 31, 63}); each block is encoded
by its *class* (popcount, ``ceil(log2(b+1))`` bits) and its *offset* (the index
of the block among all blocks of that class, ``ceil(log2(C(b, c)))`` bits).
Rank samples are kept every ``sample_rate`` blocks.

The in-memory Python representation keeps classes, offsets and samples in
numpy arrays for speed; encoding is fully vectorized over all blocks at once
(the combinatorial-number-system sum becomes one fancy-indexed matrix
reduction).  A query decodes the blocks it touches into a per-structure memo
of 64-bit words (:func:`word_memo`, filled by :func:`memo_word` and
:func:`memo_words`), so each block pays the O(b) enumerative decode once and
no decoded block outlives the structure that holds it.  A wavelet tree keeps
one memo for all its nodes; :class:`RRRBitVector` keeps its own.
:meth:`RRRBitVector.size_in_bits` reports the size of the *succinct encoding*
(class bits + offset bits + samples), which is what the paper plots; the
memo and the Python object overhead are not counted.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import ConstructionError, QueryError
from .bitvector import BIT_MASKS, LOW_MASKS, _select_in_word

_MAX_BLOCK = 63


@lru_cache(maxsize=None)
def _binomial_table(b: int) -> tuple[tuple[int, ...], ...]:
    """Return Pascal's triangle rows 0..b as nested tuples."""
    rows: list[tuple[int, ...]] = []
    for n in range(b + 1):
        row = [1] * (n + 1)
        for k in range(1, n):
            row[k] = rows[n - 1][k - 1] + rows[n - 1][k]
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _binomial_matrix(b: int) -> np.ndarray:
    """Dense ``(b+1) x (b+1)`` table with ``C(n, k)`` (0 where ``k > n``).

    ``C(63, 31)`` is below ``2**63``, so int64 holds every entry exactly.
    """
    table = _binomial_table(b)
    dense = np.zeros((b + 1, b + 1), dtype=np.int64)
    for n in range(b + 1):
        dense[n, : n + 1] = table[n]
    return dense


def check_parameters(block_size: int, sample_rate: int) -> None:
    """Reject an RRR block size outside ``[1, 63]`` or a non-positive sample rate."""
    if not 1 <= block_size <= _MAX_BLOCK:
        raise ConstructionError(f"block_size must be in [1, {_MAX_BLOCK}], got {block_size}")
    if sample_rate < 1:
        raise ConstructionError(f"sample_rate must be positive, got {sample_rate}")


def encode_block(bits: tuple[int, ...] | list[int], b: int) -> tuple[int, int]:
    """Encode a block of exactly ``b`` bits into ``(class, offset)``.

    The offset is the index of the block within the enumeration of all
    length-``b`` blocks having the same popcount, using the combinatorial
    number system (bit 0 is the most significant position).
    """
    if len(bits) != b:
        raise ConstructionError(f"block must have exactly {b} bits, got {len(bits)}")
    table = _binomial_table(b)
    ones = sum(1 for bit in bits if bit)
    offset = 0
    remaining_ones = ones
    for position, bit in enumerate(bits):
        remaining_positions = b - position - 1
        if bit:
            if remaining_ones - 1 <= remaining_positions:
                # skip all blocks that have a 0 at this position
                offset += table[remaining_positions][remaining_ones] if remaining_ones <= remaining_positions else 0
            remaining_ones -= 1
        if remaining_ones == 0:
            break
    return ones, offset


def encode_blocks(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`encode_block` over a ``(n_blocks, b)`` bit matrix.

    Returns ``(classes, offsets)`` where the offset of each row is the
    combinatorial-number-system rank of the row among all rows with the same
    popcount, identical to the scalar encoder.
    """
    n_blocks, b = blocks.shape
    if n_blocks == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.uint64)
    bits = blocks.astype(np.int64, copy=False)
    classes = bits.sum(axis=1)
    # remaining[p] = ones in bits[p:], i.e. the value of ``remaining_ones``
    # when the scalar encoder inspects position p.
    suffix_ones = classes[:, None] - np.cumsum(bits, axis=1) + bits
    remaining_positions = (b - 1 - np.arange(b, dtype=np.int64))[None, :]
    # The dense table already holds 0 wherever k > n, which is exactly the
    # scalar encoder's "no contribution" branch; masking by ``bits`` covers
    # the zero-bit positions.
    binom = _binomial_matrix(b)
    terms = binom[remaining_positions, suffix_ones]
    offsets = (bits * terms).sum(axis=1)
    return classes.astype(np.uint8), offsets.astype(np.uint64)


def decode_block(cls: int, offset: int, b: int) -> list[int]:
    """Decode ``(class, offset)`` back into a list of ``b`` bits."""
    table = _binomial_table(b)
    bits = [0] * b
    remaining_ones = cls
    for position in range(b):
        if remaining_ones == 0:
            break
        remaining_positions = b - position - 1
        zero_branch = table[remaining_positions][remaining_ones] if remaining_ones <= remaining_positions else 0
        if offset >= zero_branch:
            bits[position] = 1
            offset -= zero_branch
            remaining_ones -= 1
    return bits


def _decode_word(remaining: int, offset: int, table: tuple[tuple[int, ...], ...], b: int) -> int:
    """One block as a word (see :func:`decode_blocks`), in native ints."""
    word = 0
    position = 0
    while remaining:
        zero_branch = table[b - position - 1][remaining] if remaining < b - position else 0
        if offset >= zero_branch:
            word |= 1 << position
            offset -= zero_branch
            remaining -= 1
        position += 1
    return word


def decode_blocks(classes: np.ndarray, offsets: np.ndarray, b: int) -> np.ndarray:
    """:func:`decode_block` for many blocks, one ``uint64`` word per block.

    Bit ``i`` of a word is position ``i`` of its block (least significant
    first, the layout of plain bit vectors), so an in-block rank is one mask
    and one popcount.  Each block is decoded with native ints and stops at
    its last one bit: a few microseconds per block and no fixed cost per
    call, which matters because callers decode the handful of blocks a
    query touches for the first time.
    """
    table = _binomial_table(b)
    return np.asarray(
        [
            _decode_word(cls, offset, table, b)
            for cls, offset in zip(np.asarray(classes).tolist(), np.asarray(offsets).tolist())
        ],
        dtype=np.uint64,
    )


#: Memo word of a block not decoded yet; no block of ``b <= 63`` bits has
#: every one of the 64 bits set.
UNDECODED = 0xFFFFFFFFFFFFFFFF


def word_memo(classes: np.ndarray) -> np.ndarray:
    """An empty word memo for the blocks of ``classes``.

    Every entry is :data:`UNDECODED` except the class-0 blocks, which are
    all zeros and start out decoded.
    """
    return np.where(np.asarray(classes) == 0, np.uint64(0), np.uint64(UNDECODED))


def memo_word(
    memo: np.ndarray, classes: np.ndarray, offsets: np.ndarray, block: int, b: int
) -> int:
    """Word ``block`` of ``memo`` as a native int, decoded and stored on first touch.

    Concurrent callers need no lock: a racing writer stores the same
    deterministic word, so a reader sees :data:`UNDECODED` (and decodes the
    block itself) or the final word.
    """
    word = memo.item(block)
    if word == UNDECODED:
        word = _decode_word(classes.item(block), offsets.item(block), _binomial_table(b), b)
        memo[block] = word
    return word


def memo_words(
    memo: np.ndarray, classes: np.ndarray, offsets: np.ndarray, blocks: np.ndarray, b: int
) -> np.ndarray:
    """:func:`memo_word` for an array of ``blocks``: one gather, decoding the stale ones."""
    words = memo[blocks]
    stale = words == np.uint64(UNDECODED)
    if stale.any():
        fresh = np.unique(blocks[stale])
        memo[fresh] = decode_blocks(classes[fresh], offsets[fresh], b)
        words = memo[blocks]
    return words


def offset_bits(b: int, cls: int) -> int:
    """Number of bits needed to store an offset of class ``cls`` in blocks of ``b``."""
    table = _binomial_table(b)
    count = table[b][cls]
    return max(int(count - 1).bit_length(), 0)


def rrr_size_in_bits(
    classes: np.ndarray, blocks_per_vector: np.ndarray, b: int, sample_rate: int
) -> int:
    """Encoded bits of RRR vectors whose blocks are ``classes``, concatenated.

    Vector ``v`` owns the next ``blocks_per_vector[v]`` classes and is
    charged ``ceil(log2(b+1))`` bits per class, :func:`offset_bits` per
    offset and one 64-bit rank sample per ``sample_rate`` blocks plus one.
    """
    class_bits = max(int(b).bit_length(), 1)
    widths = np.asarray([offset_bits(b, cls) for cls in range(b + 1)], dtype=np.int64)
    total_blocks = int(blocks_per_vector.sum())
    offset_total = int(widths[np.asarray(classes[:total_blocks])].sum())
    samples = int((blocks_per_vector // sample_rate + 1).sum())
    return total_blocks * class_bits + offset_total + samples * 64


class RRRBitVector:
    """Compressed bit vector with rank/select, parameterised by block size ``b``.

    Parameters
    ----------
    bits:
        Iterable of truthy/falsy values.
    block_size:
        The RRR block size ``b`` (the paper uses 15, 31 or 63; 63 by default).
    sample_rate:
        Number of blocks between absolute rank samples.
    """

    def __init__(self, bits: Iterable[int], block_size: int = 63, sample_rate: int = 32):
        check_parameters(block_size, sample_rate)
        arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits)
        arr = (arr != 0).astype(np.uint8)
        n = int(arr.size)
        n_blocks = (n + block_size - 1) // block_size
        padded = np.zeros(n_blocks * block_size, dtype=np.uint8)
        padded[:n] = arr
        self._n = n
        self._b = block_size
        self._sample_rate = sample_rate
        self._classes, self._offsets = encode_blocks(padded.reshape(n_blocks, block_size))
        # Dense per-block cumulative class counts: the in-memory rank
        # directory (one searchsorted away from any block).  The *accounted*
        # structure is the coarse rank samples: ones in blocks
        # [0, k * sample_rate), charged by :meth:`size_in_bits` and seeding
        # the select binary searches.
        self._class_cum = np.zeros(n_blocks + 1, dtype=np.int64)
        np.cumsum(self._classes.astype(np.int64), out=self._class_cum[1:])
        self._n_ones = int(self._class_cum[-1])
        boundaries = np.minimum(
            np.arange(n_blocks // sample_rate + 1, dtype=np.int64) * sample_rate, n_blocks
        )
        self._rank_samples = self._class_cum[boundaries]

    def __getattr__(self, name: str):
        # The word memo and the native-int rank directory, materialised on
        # first query so a vector that is only built and sized never pays
        # for them.
        if name == "_words":
            value = word_memo(self._classes)
        elif name == "_class_cum_py":
            value = self._class_cum.tolist()
        elif name == "_zeros_cum":
            # Cumulative zero counts per block boundary (padding included for
            # the final partial block; harmless, see select0).
            n_blocks = int(self._classes.size)
            value = np.arange(n_blocks + 1, dtype=np.int64) * self._b - self._class_cum
        elif name == "_zero_samples":
            sample_starts = np.minimum(
                np.arange(self._rank_samples.size, dtype=np.int64)
                * self._sample_rate
                * self._b,
                int(self._classes.size) * self._b,
            )
            value = sample_starts - self._rank_samples
        else:
            raise AttributeError(name)
        self.__dict__[name] = value
        return value

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n

    @property
    def block_size(self) -> int:
        """The RRR block size ``b``."""
        return self._b

    @property
    def sample_rate(self) -> int:
        """Blocks between absolute rank samples."""
        return self._sample_rate

    @property
    def n_ones(self) -> int:
        """Total number of set bits."""
        return self._n_ones

    @property
    def n_zeros(self) -> int:
        """Total number of unset bits."""
        return self._n - self._n_ones

    def _word(self, block: int) -> int:
        """Block ``block`` as a native-int word (bit ``i`` is position ``i``)."""
        return memo_word(self._words, self._classes, self._offsets, block, self._b)

    def _block_words(self, blocks: np.ndarray) -> np.ndarray:
        """The ``uint64`` words of ``blocks``."""
        return memo_words(self._words, self._classes, self._offsets, blocks, self._b)

    def access(self, i: int) -> int:
        """Return the bit at position ``i``."""
        if not 0 <= i < self._n:
            raise QueryError(f"bit index {i} out of range [0, {self._n})")
        block, within = divmod(i, self._b)
        return (self._word(block) >> within) & 1

    def __getitem__(self, i: int) -> int:
        return self.access(i)

    # ------------------------------------------------------------------ #
    # rank / select
    # ------------------------------------------------------------------ #
    def rank1(self, i: int) -> int:
        """Return the number of set bits in positions ``[0, i)``."""
        if not 0 <= i <= self._n:
            raise QueryError(f"rank position {i} out of range [0, {self._n}]")
        block, within = divmod(i, self._b)
        result = self._class_cum_py[block]
        if within:
            result += (self._word(block) & ((1 << within) - 1)).bit_count()
        return result

    def rank0(self, i: int) -> int:
        """Return the number of unset bits in positions ``[0, i)``."""
        return i - self.rank1(i)

    def rank(self, bit: int, i: int) -> int:
        """Return ``rank1(i)`` if ``bit`` is truthy, else ``rank0(i)``."""
        return self.rank1(i) if bit else self.rank0(i)

    def rank1_many(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rank1` over an array of positions.

        The block part of every rank is one fancy-indexed lookup into the
        cumulative class directory; the in-block residuals are one gather
        from the word memo and a popcount.
        """
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size == 0:
            return np.zeros(0, dtype=np.int64)
        if int(pos.min()) < 0 or int(pos.max()) > self._n:
            raise QueryError(f"rank positions out of range [0, {self._n}]")
        blocks, within = np.divmod(pos, self._b)
        result = self._class_cum[blocks]
        # A position at a block boundary needs no word (and ``n`` may sit
        # one block past the last).
        residual = np.flatnonzero(within)
        if residual.size:
            words = self._block_words(blocks[residual])
            result[residual] += np.bitwise_count(words & LOW_MASKS[within[residual]])
        return result

    def rank0_many(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rank0` over an array of positions."""
        pos = np.asarray(positions, dtype=np.int64)
        return pos - self.rank1_many(pos)

    def access_many(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorized :meth:`access` over an array of positions."""
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size == 0:
            return np.zeros(0, dtype=np.int64)
        if int(pos.min()) < 0 or int(pos.max()) >= self._n:
            raise QueryError(f"bit indices out of range [0, {self._n})")
        blocks, within = np.divmod(pos, self._b)
        return (self._block_words(blocks) & BIT_MASKS[within] != 0).astype(np.int64)

    def _select_block(self, k: int, cum: np.ndarray, sample_of_k: int) -> int:
        """First block whose cumulative count (per ``cum``) reaches ``k``.

        The binary search is seeded from the sampled rank directory: only the
        ``sample_rate`` blocks between two consecutive samples are searched.
        """
        lo = sample_of_k * self._sample_rate
        hi = min(lo + self._sample_rate, int(self._classes.size))
        return lo + int(np.searchsorted(cum[lo + 1 : hi + 1], k, side="left"))

    def select1(self, k: int) -> int:
        """Return the position of the ``k``-th set bit (1-based).

        Seeds a block-level binary search from the sampled rank directory and
        finishes with an in-word select on the block's decoded word, instead
        of bisecting the whole vector with per-step rank calls.
        """
        if not 1 <= k <= self._n_ones:
            raise QueryError(f"select1 argument {k} out of range [1, {self._n_ones}]")
        sample = int(np.searchsorted(self._rank_samples, k, side="left")) - 1
        block = self._select_block(k, self._class_cum, sample)
        remaining = k - self._class_cum_py[block]
        return _select_in_word(self._word(block), remaining, block * self._b)

    def select0(self, k: int) -> int:
        """Return the position of the ``k``-th unset bit (1-based).

        Mirrors :meth:`select1` on the complemented counts (zeros up to block
        ``i`` are ``i * b - class_cum[i]``), again seeded from the sampled
        rank directory.
        """
        if not 1 <= k <= self.n_zeros:
            raise QueryError(f"select0 argument {k} out of range [1, {self.n_zeros}]")
        zeros_cum = self._zeros_cum
        sample = int(np.searchsorted(self._zero_samples, k, side="left")) - 1
        block = self._select_block(k, zeros_cum, sample)
        remaining = k - int(zeros_cum[block])
        complement = ~self._word(block) & ((1 << self._b) - 1)
        return _select_in_word(complement, remaining, block * self._b)

    # ------------------------------------------------------------------ #
    # size accounting
    # ------------------------------------------------------------------ #
    def size_in_bits(self) -> int:
        """Bits of the succinct encoding (classes + offsets + rank samples)."""
        return rrr_size_in_bits(
            self._classes, np.asarray([self._classes.size]), self._b, self._sample_rate
        )

    def to_numpy(self) -> np.ndarray:
        """Materialise the bit vector as a ``uint8`` numpy array (every block decoded)."""
        n_blocks = int(self._classes.size)
        if n_blocks == 0:
            return np.zeros(0, dtype=np.uint8)
        words = self._block_words(np.arange(n_blocks)).astype("<u8", copy=False)
        bits = np.unpackbits(words.view(np.uint8), bitorder="little").reshape(n_blocks, 64)
        return bits[:, : self._b].reshape(-1)[: self._n]

    def to_list(self) -> list[int]:
        """Materialise the bit vector as a plain Python list."""
        return self.to_numpy().tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RRRBitVector(n={self._n}, ones={self._n_ones}, b={self._b})"
