"""Succinct data-structure primitives (bit vectors, int vectors, Huffman codes).

These are the building blocks underneath every FM-index variant in the
repository, including CiNCT itself:

* :class:`~repro.succinct.bitvector.BitVector` — plain bitmap with O(1) rank.
* :class:`~repro.succinct.rrr.RRRBitVector` — compressed bitmap (practical RRR)
  with the block-size parameter ``b`` studied in the paper.
* :class:`~repro.succinct.intvector.IntVector` — fixed-width integer arrays.
* :func:`~repro.succinct.huffman.build_huffman_code` — Huffman codes / trees.
"""

from .bitvector import BitVector, bitvector_from_positions
from .eliasfano import EliasFanoBitVector, elias_fano_from_bits, predicted_elias_fano_bits
from .huffman import (
    HuffmanCode,
    HuffmanNode,
    average_code_length,
    build_huffman_code,
    frequencies_of,
)
from .intvector import IntVector, bits_needed, prefix_sums
from .rrr import RRRBitVector, decode_block, decode_blocks, encode_block, offset_bits

__all__ = [
    "BitVector",
    "bitvector_from_positions",
    "EliasFanoBitVector",
    "elias_fano_from_bits",
    "predicted_elias_fano_bits",
    "RRRBitVector",
    "encode_block",
    "decode_block",
    "decode_blocks",
    "offset_bits",
    "IntVector",
    "bits_needed",
    "prefix_sums",
    "HuffmanCode",
    "HuffmanNode",
    "build_huffman_code",
    "frequencies_of",
    "average_code_length",
]
