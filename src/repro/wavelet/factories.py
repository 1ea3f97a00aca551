"""Bit-vector backends for wavelet structures.

Every wavelet tree / matrix in this package stores one bit vector per node or
level.  Which succinct dictionary backs those bit vectors determines the
index variant:

* plain :class:`~repro.succinct.BitVector` → uncompressed indexes (``UFMI``);
* :class:`~repro.succinct.RRRBitVector` → implicit-compression-boosting
  indexes (``ICB-Huff``, ``ICB-WM``) and CiNCT itself, with the block-size
  parameter ``b`` from the paper.

Both built-in backends also expose the vectorized batch primitives
(``rank1_many`` / ``rank0_many`` / ``access_many``); the module-level helpers
below dispatch to them when available and fall back to scalar loops so that
custom backends implementing only the minimal protocol keep working in the
wavelet matrix.  A wavelet tree builds no bit-vector objects: it stores every
node's blocks in one flat array, which the two built-in factories encode
(:func:`encode_segments`), so a tree accepts only those.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

import numpy as np

from ..exceptions import ConstructionError
from ..succinct import BitVector, RRRBitVector
from ..succinct.bitvector import scatter_segments
from ..succinct.rrr import check_parameters, encode_blocks


class BitVectorLike(Protocol):
    """Minimal interface required from a bit-vector backend."""

    def __len__(self) -> int: ...

    def access(self, i: int) -> int: ...

    def rank1(self, i: int) -> int: ...

    def rank0(self, i: int) -> int: ...

    def size_in_bits(self) -> int: ...


BitVectorFactory = Callable[[Sequence[int]], BitVectorLike]


def rank1_many(bitvector: BitVectorLike, positions: np.ndarray) -> np.ndarray:
    """Batched ``rank1``: native when the backend provides it, else a loop."""
    batched = getattr(bitvector, "rank1_many", None)
    if batched is not None:
        return batched(positions)
    return np.asarray([bitvector.rank1(int(p)) for p in positions], dtype=np.int64)


def access_many(bitvector: BitVectorLike, positions: np.ndarray) -> np.ndarray:
    """Batched ``access``: native when the backend provides it, else a loop."""
    batched = getattr(bitvector, "access_many", None)
    if batched is not None:
        return batched(positions)
    return np.asarray([bitvector.access(int(p)) for p in positions], dtype=np.int64)


def encode_segments(
    factory: BitVectorFactory, bits: np.ndarray, boundaries: np.ndarray
) -> dict[str, np.ndarray]:
    """The blocks of every segment of ``bits``, concatenated, as a wavelet tree stores them.

    Segment ``i`` is ``bits[boundaries[i] : boundaries[i + 1]]``, padded
    with zeros to whole blocks.  Plain factories give ``words`` (64 bits
    each); RRR factories give ``classes`` and ``offsets`` plus their
    ``block_bits`` and ``rank_sample_rate``.  Each segment costs no Python
    work: a whole wavelet level is packed or encoded in a few numpy calls.
    """
    encode = getattr(factory, "encode_segments", None)
    if encode is None:
        raise ConstructionError("wavelet trees need plain or RRR bit vectors")
    return encode(bits, boundaries)


def plain_bitvector_factory() -> BitVectorFactory:
    """Return a factory producing plain (uncompressed) bit vectors."""

    def factory(bits: Sequence[int]) -> BitVector:
        return BitVector(bits)

    def encode(bits: np.ndarray, boundaries: np.ndarray) -> dict[str, np.ndarray]:
        packed = np.packbits(scatter_segments(bits, boundaries, 64)[2], bitorder="little")
        return {"words": packed.view("<u8").astype(np.uint64, copy=False)}

    factory.encode_segments = encode  # type: ignore[attr-defined]
    return factory


def rrr_bitvector_factory(block_size: int = 63, sample_rate: int = 32) -> BitVectorFactory:
    """Return a factory producing RRR-compressed bit vectors.

    Parameters
    ----------
    block_size:
        The RRR block size ``b`` (15, 31 or 63 in the paper's experiments).
    sample_rate:
        Blocks between absolute rank samples.
    """

    def factory(bits: Sequence[int]) -> RRRBitVector:
        return RRRBitVector(bits, block_size=block_size, sample_rate=sample_rate)

    def encode(bits: np.ndarray, boundaries: np.ndarray) -> dict[str, np.ndarray]:
        check_parameters(block_size, sample_rate)
        buffer = scatter_segments(bits, boundaries, block_size)[2]
        classes, offsets = encode_blocks(buffer.reshape(-1, block_size))
        return {
            "block_bits": np.asarray([block_size], dtype=np.int64),
            "rank_sample_rate": np.asarray([sample_rate], dtype=np.int64),
            "classes": classes,
            "offsets": offsets,
        }

    factory.encode_segments = encode  # type: ignore[attr-defined]
    return factory
