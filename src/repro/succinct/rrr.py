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
reduction), and decoded blocks are memoised so hot query regions pay the O(b)
enumerative decode only once.  :meth:`RRRBitVector.size_in_bits` reports the
size of the *succinct encoding* (class bits + offset bits + samples), which is
what the paper plots; the Python object overhead is irrelevant to the
reproduction and is not counted.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from ..exceptions import ConstructionError, QueryError
from .bitvector import scatter_segments

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
    words = []
    for remaining, offset in zip(np.asarray(classes).tolist(), np.asarray(offsets).tolist()):
        word = 0
        position = 0
        while remaining:
            zero_branch = table[b - position - 1][remaining] if remaining < b - position else 0
            if offset >= zero_branch:
                word |= 1 << position
                offset -= zero_branch
                remaining -= 1
            position += 1
        words.append(word)
    return np.asarray(words, dtype=np.uint64)


@lru_cache(maxsize=1 << 16)
def _decoded_block(cls: int, offset: int, b: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Memoised decode: ``(bits, prefix_popcounts)`` for one encoded block.

    ``prefix_popcounts[i]`` is the number of ones in ``bits[:i]`` (length
    ``b + 1``), so an in-block rank is a single tuple lookup.
    """
    bits = decode_block(cls, offset, b)
    prefix = [0] * (b + 1)
    running = 0
    for i, bit in enumerate(bits):
        running += bit
        prefix[i + 1] = running
    return tuple(bits), tuple(prefix)


def offset_bits(b: int, cls: int) -> int:
    """Number of bits needed to store an offset of class ``cls`` in blocks of ``b``."""
    table = _binomial_table(b)
    count = table[b][cls]
    return max(int(count - 1).bit_length(), 0)


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
        if not 1 <= block_size <= _MAX_BLOCK:
            raise ConstructionError(f"block_size must be in [1, {_MAX_BLOCK}], got {block_size}")
        if sample_rate < 1:
            raise ConstructionError(f"sample_rate must be positive, got {sample_rate}")
        arr = np.asarray(list(bits) if not isinstance(bits, np.ndarray) else bits)
        arr = (arr != 0).astype(np.uint8)
        n = int(arr.size)
        n_blocks = (n + block_size - 1) // block_size
        padded = np.zeros(n_blocks * block_size, dtype=np.uint8)
        padded[:n] = arr
        classes, offsets = encode_blocks(padded.reshape(n_blocks, block_size))
        class_cum = np.zeros(n_blocks + 1, dtype=np.int64)
        np.cumsum(classes.astype(np.int64), out=class_cum[1:])
        self._set_parts(n, block_size, sample_rate, classes, offsets, class_cum)

    @classmethod
    def _from_parts(
        cls,
        n: int,
        block_size: int,
        sample_rate: int,
        classes: np.ndarray,
        offsets: np.ndarray,
        class_cum: np.ndarray,
    ) -> "RRRBitVector":
        """Internal: wrap pre-encoded blocks and a pre-computed directory."""
        self = object.__new__(cls)
        self._set_parts(n, block_size, sample_rate, classes, offsets, class_cum)
        return self

    def _set_parts(
        self,
        n: int,
        block_size: int,
        sample_rate: int,
        classes: np.ndarray,
        offsets: np.ndarray,
        class_cum: np.ndarray,
    ) -> None:
        self._n = n
        self._b = block_size
        self._sample_rate = sample_rate
        self._classes = classes
        self._offsets = offsets
        # Dense per-block cumulative class counts: the in-memory rank
        # directory (one searchsorted away from any block).  The *accounted*
        # structure is the coarse rank samples: ones in blocks
        # [0, k * sample_rate), charged by :meth:`size_in_bits` and seeding
        # the select binary searches.
        self._class_cum = class_cum
        self._n_ones = int(class_cum[-1])
        n_blocks = int(classes.size)
        boundaries = np.minimum(
            np.arange(n_blocks // sample_rate + 1, dtype=np.int64) * sample_rate, n_blocks
        )
        self._rank_samples = class_cum[boundaries]

    @classmethod
    def build_many(
        cls,
        bits: np.ndarray,
        boundaries: np.ndarray,
        block_size: int = 63,
        sample_rate: int = 32,
    ) -> list["RRRBitVector"]:
        """Build one :class:`RRRBitVector` per segment of ``bits`` in bulk.

        Every segment's blocks are gathered into a single ``(blocks, b)``
        matrix and encoded with one vectorized :func:`encode_blocks` call, so
        a wavelet level with thousands of small nodes pays the enumerative
        encoding exactly once.
        """
        if not 1 <= block_size <= _MAX_BLOCK:
            raise ConstructionError(f"block_size must be in [1, {_MAX_BLOCK}], got {block_size}")
        if sample_rate < 1:
            raise ConstructionError(f"sample_rate must be positive, got {sample_rate}")
        boundaries = np.asarray(boundaries, dtype=np.int64)
        k = int(boundaries.size) - 1
        if k <= 0:
            return []
        lengths, padded_starts, buffer = scatter_segments(bits, boundaries, block_size)
        classes_all, offsets_all = encode_blocks(buffer.reshape(-1, block_size))
        cum_all = np.zeros(classes_all.size + 1, dtype=np.int64)
        np.cumsum(classes_all.astype(np.int64), out=cum_all[1:])
        block_starts = padded_starts // block_size
        out: list[RRRBitVector] = []
        for segment in range(k):
            lo = int(block_starts[segment])
            hi = int(block_starts[segment + 1])
            out.append(
                cls._from_parts(
                    int(lengths[segment]),
                    block_size,
                    sample_rate,
                    classes_all[lo:hi],
                    offsets_all[lo:hi],
                    cum_all[lo : hi + 1] - cum_all[lo],
                )
            )
        return out

    def __getattr__(self, name: str):
        # Native-int mirrors of the encoded blocks and the rank directory,
        # materialised on first scalar query so bulk construction never pays
        # for them.
        if name == "_class_cum_py":
            value = self._class_cum.tolist()
        elif name == "_classes_py":
            value = self._classes.tolist()
        elif name == "_offsets_py":
            value = self._offsets.tolist()
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

    @property
    def block_classes(self) -> np.ndarray:
        """Per-block classes (popcounts), one ``uint8`` per block of ``b`` bits."""
        return self._classes

    @property
    def block_offsets(self) -> np.ndarray:
        """Per-block enumerative offsets within their class (``uint64``)."""
        return self._offsets

    def _decode(self, block_index: int) -> list[int]:
        return list(self._decoded(block_index)[0])

    def _decoded(self, block_index: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return _decoded_block(
            self._classes_py[block_index], self._offsets_py[block_index], self._b
        )

    def access(self, i: int) -> int:
        """Return the bit at position ``i``."""
        if not 0 <= i < self._n:
            raise QueryError(f"bit index {i} out of range [0, {self._n})")
        block_index, within = divmod(i, self._b)
        return self._decoded(block_index)[0][within]

    def __getitem__(self, i: int) -> int:
        return self.access(i)

    # ------------------------------------------------------------------ #
    # rank / select
    # ------------------------------------------------------------------ #
    def rank1(self, i: int) -> int:
        """Return the number of set bits in positions ``[0, i)``."""
        if not 0 <= i <= self._n:
            raise QueryError(f"rank position {i} out of range [0, {self._n}]")
        if i == 0:
            return 0
        block_index, within = divmod(i, self._b)
        result = self._class_cum_py[block_index]
        if within:
            result += self._decoded(block_index)[1][within]
        return result

    def rank0(self, i: int) -> int:
        """Return the number of unset bits in positions ``[0, i)``."""
        return i - self.rank1(i)

    def rank(self, bit: int, i: int) -> int:
        """Return ``rank1(i)`` if ``bit`` is truthy, else ``rank0(i)``."""
        return self.rank1(i) if bit else self.rank0(i)

    def rank1_many(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rank1` over an array of positions.

        The block part of every rank is answered with one fancy-indexed
        lookup into the cumulative class directory; only the in-block
        residuals fall back to (memoised) block decodes.
        """
        pos = np.asarray(positions, dtype=np.int64)
        if pos.size == 0:
            return np.zeros(0, dtype=np.int64)
        if int(pos.min()) < 0 or int(pos.max()) > self._n:
            raise QueryError(f"rank positions out of range [0, {self._n}]")
        block_index = pos // self._b
        within = pos - block_index * self._b
        result = self._class_cum[block_index].copy()
        residual = np.flatnonzero(within)
        if residual.size:
            blocks_py = block_index.tolist()
            within_py = within.tolist()
            decoded = self._decoded
            extra = [
                decoded(blocks_py[idx])[1][within_py[idx]] for idx in residual.tolist()
            ]
            result[residual] += np.asarray(extra, dtype=np.int64)
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
        decoded = self._decoded
        b = self._b
        return np.asarray(
            [decoded(p // b)[0][p % b] for p in pos.tolist()], dtype=np.int64
        )

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
        finishes with a single block decode, instead of bisecting the whole
        vector with per-step rank calls.
        """
        if not 1 <= k <= self._n_ones:
            raise QueryError(f"select1 argument {k} out of range [1, {self._n_ones}]")
        sample = int(np.searchsorted(self._rank_samples, k, side="left")) - 1
        block = self._select_block(k, self._class_cum, sample)
        remaining = k - self._class_cum_py[block]
        prefix = self._decoded(block)[1]
        within = int(np.searchsorted(np.asarray(prefix), remaining, side="left")) - 1
        return block * self._b + within

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
        bits, prefix = self._decoded(block)
        # zeros in bits[:i] = i - prefix[i]; find first i with that count == remaining
        zero_prefix = np.arange(self._b + 1, dtype=np.int64) - np.asarray(prefix)
        within = int(np.searchsorted(zero_prefix, remaining, side="left")) - 1
        return block * self._b + within

    # ------------------------------------------------------------------ #
    # size accounting
    # ------------------------------------------------------------------ #
    def size_in_bits(self) -> int:
        """Bits of the succinct encoding (classes + offsets + rank samples)."""
        class_bits_each = max(int(self._b).bit_length(), 1)
        class_bits = int(self._classes.size) * class_bits_each
        off_bits = sum(offset_bits(self._b, int(cls)) for cls in self._classes)
        sample_bits = int(self._rank_samples.size) * 64
        return class_bits + off_bits + sample_bits

    def to_numpy(self) -> np.ndarray:
        """Materialise the bit vector as a ``uint8`` numpy array.

        Distinct ``(class, offset)`` pairs are decoded once and broadcast to
        every block sharing them, so repetitive bitmaps expand in O(distinct
        blocks) decodes instead of O(blocks).
        """
        n_blocks = int(self._classes.size)
        if n_blocks == 0:
            return np.zeros(0, dtype=np.uint8)
        pairs = np.stack(
            [self._classes.astype(np.uint64), self._offsets], axis=1
        )
        unique, inverse = np.unique(pairs, axis=0, return_inverse=True)
        decoded = np.zeros((unique.shape[0], self._b), dtype=np.uint8)
        for row, (cls, offset) in enumerate(unique.tolist()):
            decoded[row] = _decoded_block(int(cls), int(offset), self._b)[0]
        return decoded[inverse.ravel()].reshape(-1)[: self._n]

    def to_list(self) -> list[int]:
        """Materialise the bit vector as a plain Python list."""
        return self.to_numpy().tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RRRBitVector(n={self._n}, ones={self._n_ones}, b={self._b})"
