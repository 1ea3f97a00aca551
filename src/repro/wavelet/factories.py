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
wavelet matrix.  The wavelet tree's batched kernel reads the block arrays of
the two built-in backends directly, so a tree accepts only those.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

import numpy as np

from ..succinct import BitVector, RRRBitVector


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


def build_many(
    factory: BitVectorFactory, bits: np.ndarray, boundaries: np.ndarray
) -> list[BitVectorLike]:
    """Build one bit vector per segment of ``bits``.

    Uses the factory's bulk constructor when it exposes one (both built-in
    factories do — a whole wavelet level's nodes are then packed and
    popcounted with a handful of whole-array numpy calls); otherwise falls
    back to one factory call per segment.
    """
    bulk = getattr(factory, "build_many", None)
    if bulk is not None:
        return bulk(bits, boundaries)
    return [
        factory(bits[boundaries[i] : boundaries[i + 1]]) for i in range(len(boundaries) - 1)
    ]


def plain_bitvector_factory() -> BitVectorFactory:
    """Return a factory producing plain (uncompressed) bit vectors."""

    def factory(bits: Sequence[int]) -> BitVector:
        return BitVector(bits)

    factory.build_many = BitVector.build_many  # type: ignore[attr-defined]
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

    def bulk(bits: np.ndarray, boundaries: np.ndarray) -> list[RRRBitVector]:
        return RRRBitVector.build_many(
            bits, boundaries, block_size=block_size, sample_rate=sample_rate
        )

    factory.build_many = bulk  # type: ignore[attr-defined]
    return factory
