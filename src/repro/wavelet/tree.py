"""Flat-array wavelet tree over an arbitrary prefix-free code.

The same machinery implements both the Huffman-shaped wavelet tree (HWT) used
by CiNCT / ICB-Huff and a balanced wavelet tree (fixed-width codes): the tree
shape is entirely determined by the code assigned to each symbol.  Each node
stores one bit vector (plain or RRR, see :mod:`repro.wavelet.factories`)
holding, for every sequence element routed through that node, the next bit of
its code.

Construction routes the *whole sequence* level by level with numpy stable
partitions instead of shuffling Python lists symbol by symbol, and the tree
topology is resolved at build time into flat arrays: a global list of node
bit vectors, per-node child pointers, and per-symbol tables of the node ids
along each code path.

Scalar ``rank(symbol, i)`` walks the code of ``symbol`` from the root,
performing one bit-vector rank per level — exactly the access pattern whose
cost the paper analyses (Theorem 1: O(1 + H0) expected levels for a Huffman
shape).  The batched queries (:meth:`WaveletTree.rank_pairs`,
:meth:`~WaveletTree.rank_many`, :meth:`~WaveletTree.access_many` and the
fused :meth:`~WaveletTree.inverse_select_many`) run level-synchronously over a
**flat block directory**: every node's blocks concatenated into tree-wide
arrays with one start-block index per node and one cumulative popcount for
the whole tree.  A rank or access for any mix of ``(node, position)`` pairs
at one depth is then one gather plus ``np.bitwise_count`` — no per-node loop
(Navarro, "Wavelet trees for all", JDA 2014).  RRR blocks are decoded to
64-bit words the first time a batched query touches them and memoised in a
per-tree array; the succinct encoding, and hence :meth:`size_in_bits`, is
unchanged.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..exceptions import AlphabetError, ConstructionError, QueryError
from ..succinct import BitVector, RRRBitVector, build_huffman_code, decode_blocks
from ..succinct.bitvector import BIT_MASKS, LOW_MASKS
from .factories import BitVectorFactory, BitVectorLike, build_many, plain_bitvector_factory

#: Word of an RRR block not decoded yet; no block of ``b <= 63`` bits has
#: every one of the 64 bits set.
_UNDECODED = np.uint64(0xFFFFFFFFFFFFFFFF)
_ZERO_CLASS = np.zeros(1, dtype=np.uint8)
_ZERO_WORD = np.zeros(1, dtype=np.uint64)


class WaveletTree:
    """A wavelet tree for an integer sequence under a given prefix-free code.

    Parameters
    ----------
    sequence:
        The integer sequence to index.
    codes:
        Mapping from every distinct symbol of ``sequence`` to its code, a
        tuple of bits (root-to-leaf).  The code must be prefix-free.
    bitvector_factory:
        Backend used for the per-node bit vectors: plain or RRR (see
        :mod:`repro.wavelet.factories`).
    """

    def __init__(
        self,
        sequence: Sequence[int] | np.ndarray,
        codes: Mapping[int, tuple[int, ...]],
        bitvector_factory: BitVectorFactory | None = None,
        frequencies: Mapping[int, int] | None = None,
    ):
        seq = np.asarray(sequence, dtype=np.int64)
        if seq.size == 0:
            raise ConstructionError("cannot build a wavelet tree over an empty sequence")
        factory = bitvector_factory or plain_bitvector_factory()
        self._n = int(seq.size)
        self._codes: dict[int, tuple[int, ...]] = {int(s): tuple(c) for s, c in codes.items()}

        # ``frequencies`` lets subclasses that already counted the symbols
        # (to derive the code) skip a second O(n log n) pass over ``seq``.
        if frequencies is None:
            values, counts = np.unique(seq, return_counts=True)
            frequencies = {int(v): int(c) for v, c in zip(values, counts)}
        else:
            values = np.asarray(sorted(frequencies), dtype=np.int64)
        present = [int(v) for v in values]
        missing = set(present) - set(self._codes)
        if missing:
            raise ConstructionError(f"codes missing for symbols: {sorted(missing)[:5]}...")
        self._frequencies = dict(frequencies)

        # A code that is a proper prefix of another present symbol's code
        # would strand elements mid-tree (the condition the per-element
        # router used to trip over one symbol at a time).
        present_codes = sorted(self._codes[s] for s in present)
        for shorter, longer in zip(present_codes, present_codes[1:]):
            if len(shorter) < len(longer) and longer[: len(shorter)] == shorter:
                raise ConstructionError("codes are not prefix-free")

        self._build_topology(present)
        self._build_block_directory(self._build_bitvectors(seq, values, factory))
        self._build_paths()

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "WaveletTree":
        """Restore a tree from :meth:`arrays` without routing a sequence.

        The code fixes the topology and the path tables (one entry per
        symbol); the node bit vectors are views over the stored flat block
        arrays, so a memory-mapped archive stays mapped.
        """
        self = object.__new__(cls)
        self._codes = {
            s: tuple(bits[:length])
            for s, length, bits in zip(
                arrays["symbols"].tolist(),
                arrays["code_lengths"].tolist(),
                arrays["code_bits"].tolist(),
            )
        }
        symbols = list(self._codes)
        self._frequencies = {
            s: count for s, count in zip(symbols, arrays["counts"].tolist()) if count
        }
        self._build_topology(sorted(self._frequencies))
        self._n = int(arrays["node_lengths"][0])
        rrr = "classes" in arrays
        self._install_blocks(
            arrays["node_lengths"],
            int(arrays["block_bits"][0]) if rrr else 64,
            classes=arrays.get("classes"),
            offsets=arrays.get("offsets"),
            words=arrays.get("words"),
            sample_rate=int(arrays["rank_sample_rate"][0]) if rrr else 32,
        )
        self._build_paths()
        return self

    def arrays(self) -> dict[str, np.ndarray]:
        """The saved form of the tree: its code, node lengths and flat blocks.

        ``symbols``/``counts``/``code_lengths``/``code_bits`` fix the shape,
        ``node_lengths`` the bits per node, and ``classes``/``offsets`` (RRR)
        or ``words`` (plain) hold every node's blocks, one zero block last.
        The memo of decoded RRR words is not part of it.
        """
        symbols, _, _, code_bits = self._pair_tables
        out = {
            "symbols": symbols,
            "counts": np.asarray([self._frequencies.get(s, 0) for s in symbols.tolist()]),
            "code_lengths": np.asarray([len(self._codes[s]) for s in symbols.tolist()]),
            "code_bits": code_bits.view(np.uint8),
            "node_lengths": self._node_lengths,
        }
        if self._classes is None:
            out["words"] = self._words
        else:
            out["block_bits"] = np.asarray([self._block_bits], dtype=np.int64)
            out["rank_sample_rate"] = np.asarray([self._node_bvs[0].sample_rate], dtype=np.int64)
            out["classes"] = self._classes
            out["offsets"] = self._offsets
        return out

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build_topology(self, present: list[int]) -> None:
        """Enumerate internal nodes level by level and freeze child pointers.

        A node exists for every proper prefix of a *present* symbol's code.
        The prefixes are collected in an integer trie (no tuple keys), then
        renumbered breadth-first so nodes are ordered globally level by level
        and, within a level, by (parent, bit) — exactly the order the stable
        partition of the routing pass produces.
        """
        codes = self._codes
        child0: list[int] = [-1]
        child1: list[int] = [-1]
        for symbol in present:
            code = codes[symbol]
            node = 0
            for depth in range(len(code) - 1):
                if code[depth]:
                    nxt = child1[node]
                    if nxt < 0:
                        nxt = len(child1)
                        child1[node] = nxt
                        child0.append(-1)
                        child1.append(-1)
                else:
                    nxt = child0[node]
                    if nxt < 0:
                        nxt = len(child0)
                        child0[node] = nxt
                        child0.append(-1)
                        child1.append(-1)
                node = nxt
        total = len(child0)

        new_id = [-1] * total
        new_id[0] = 0
        assigned = 1
        level_sizes: list[int] = []
        frontier = [0]
        while frontier:
            level_sizes.append(len(frontier))
            next_frontier: list[int] = []
            for node in frontier:
                for child in (child0[node], child1[node]):
                    if child >= 0:
                        new_id[child] = assigned
                        assigned += 1
                        next_frontier.append(child)
            frontier = next_frontier

        self._levels = len(level_sizes)
        self._level_sizes = level_sizes
        level_offsets = [0]
        for size in level_sizes:
            level_offsets.append(level_offsets[-1] + size)
        self._level_offsets = level_offsets
        self._num_nodes = total

        # Child pointers in renumbered ids.
        child_rows: list[list[int]] = [[-1, -1] for _ in range(max(total, 1))]
        for old in range(total):
            renumbered = new_id[old]
            left, right = child0[old], child1[old]
            if left >= 0:
                child_rows[renumbered][0] = new_id[left]
            if right >= 0:
                child_rows[renumbered][1] = new_id[right]
        self._child = np.asarray(child_rows, dtype=np.int64)

        # child_local_maps[level][parent_local * 2 + bit] -> local id at
        # level + 1, or -1 when the (parent, bit) side holds no internal node.
        self._child_local_maps: list[np.ndarray] = []
        for level in range(self._levels - 1):
            lo = level_offsets[level]
            hi = level_offsets[level + 1]
            flat = self._child[lo:hi].reshape(-1)
            self._child_local_maps.append(np.where(flat >= 0, flat - hi, -1))

    def _build_bitvectors(
        self, seq: np.ndarray, values: np.ndarray, factory: BitVectorFactory
    ) -> list[BitVectorLike]:
        """Route the whole sequence level by level with stable partitions."""
        m = int(values.size)
        seq_ids = np.searchsorted(values, seq)
        code_len = np.zeros(m, dtype=np.int64)
        bit_at = np.zeros((self._levels, m), dtype=np.int64)
        for local, symbol in enumerate(values.tolist()):
            code = self._codes[int(symbol)]
            code_len[local] = len(code)
            for depth, bit in enumerate(code):
                bit_at[depth, local] = bit

        node_bvs: list[BitVectorLike] = []
        cur_ids = seq_ids
        cur_nodes = np.zeros(seq.size, dtype=np.int64)
        for level in range(self._levels):
            bits = bit_at[level][cur_ids]
            starts = np.searchsorted(cur_nodes, np.arange(self._level_sizes[level] + 1))
            node_bvs.extend(build_many(factory, bits, starts))
            if level + 1 >= self._levels:
                break
            # Stable partition of every node into (zeros, ones) in O(n): each
            # element's destination is its node's base plus its stable rank on
            # its side, all computed from cumulative counts — no sort needed.
            inclusive_ones = np.cumsum(bits)
            exclusive_ones = inclusive_ones - bits
            node_base = starts[cur_nodes]
            ones_before = exclusive_ones - exclusive_ones[starts[:-1]][cur_nodes]
            zeros_before = np.arange(bits.size) - node_base - ones_before
            ones_in_node = np.add.reduceat(bits, starts[:-1]) if bits.size else bits
            zeros_in_node = np.diff(starts) - ones_in_node
            destination = node_base + np.where(
                bits == 0, zeros_before, zeros_in_node[cur_nodes] + ones_before
            )
            children = self._child_local_maps[level][cur_nodes * 2 + bits]
            survive = code_len[cur_ids] > level + 1
            next_ids = np.empty_like(cur_ids)
            next_nodes = np.empty_like(cur_nodes)
            next_survive = np.empty_like(survive)
            next_ids[destination] = cur_ids
            next_nodes[destination] = children
            next_survive[destination] = survive
            cur_ids = next_ids[next_survive]
            cur_nodes = next_nodes[next_survive]
        return node_bvs

    def _build_block_directory(self, bvs: list[BitVectorLike]) -> None:
        """Concatenate the routed nodes' blocks into tree-wide arrays.

        Plain bit vectors contribute their packed words, RRR bit vectors
        their classes and offsets.  One zero block at the end keeps a rank at
        the very end of the last node in bounds.
        """
        node_lengths = np.asarray([len(bv) for bv in bvs], dtype=np.int64)
        if all(isinstance(bv, RRRBitVector) for bv in bvs):
            self._install_blocks(
                node_lengths,
                bvs[0].block_size,
                classes=np.concatenate([bv.block_classes for bv in bvs] + [_ZERO_CLASS]),
                offsets=np.concatenate([bv.block_offsets for bv in bvs] + [_ZERO_WORD]),
                sample_rate=bvs[0].sample_rate,
            )
        elif all(isinstance(bv, BitVector) for bv in bvs):
            self._install_blocks(
                node_lengths, 64, words=np.concatenate([bv.words for bv in bvs] + [_ZERO_WORD])
            )
        else:
            raise ConstructionError("wavelet trees need plain or RRR bit vectors")

    def _install_blocks(
        self,
        node_lengths: np.ndarray,
        block_bits: int,
        *,
        classes: np.ndarray | None = None,
        offsets: np.ndarray | None = None,
        words: np.ndarray | None = None,
        sample_rate: int = 32,
    ) -> None:
        """Install the flat block directory and the node bit vectors over it.

        Node ``v`` owns blocks ``[_node_start[v], _node_start[v + 1])`` of
        ``_block_bits`` bits each, ``_cum[k]`` counts the ones in every block
        before ``k`` and ``_node_base[v] = _cum[_node_start[v]]``, so the ones
        before position ``p`` of node ``v`` are ``_cum[k] - _node_base[v]``
        plus a popcount of block ``k = _node_start[v] + p // _block_bits``.

        RRR words start out as :data:`_UNDECODED` and are decoded the first
        time a query touches them (class-0 blocks are all zeros and start out
        decoded).  Every node bit vector is a view over the flat arrays.
        """
        self._node_lengths = node_lengths
        self._block_bits = block_bits
        self._node_start = np.zeros(node_lengths.size + 1, dtype=np.int64)
        np.cumsum((node_lengths + block_bits - 1) // block_bits, out=self._node_start[1:])
        self._classes, self._offsets = classes, offsets
        if classes is not None:
            self._words = np.where(classes == 0, np.uint64(0), _UNDECODED)
            ones = classes
        else:
            self._words = words
            ones = np.bitwise_count(words)
        self._cum = np.zeros(ones.size + 1, dtype=np.int64)
        np.cumsum(ones, out=self._cum[1:])
        self._node_base = self._cum[self._node_start[:-1]]
        # Node views are cut from plain ndarray views: slicing a memory map
        # costs far more per call, and the views still share its pages.
        flat = [np.asarray(a) for a in ((classes, offsets) if classes is not None else (words,))]
        starts = self._node_start.tolist()
        self._node_bvs: list[BitVectorLike] = []
        for node, length in enumerate(node_lengths.tolist()):
            lo, hi = starts[node], starts[node + 1]
            cum = self._cum[lo : hi + 1] - self._cum[lo]
            if classes is not None:
                bv: BitVectorLike = RRRBitVector._from_parts(
                    length, block_bits, sample_rate, flat[0][lo:hi], flat[1][lo:hi], cum
                )
            else:
                bv = BitVector._from_packed(length, flat[0][lo:hi], cum)
            self._node_bvs.append(bv)

    def _build_paths(self) -> None:
        """Resolve per-symbol code paths, leaf pointers and the path tables.

        Every code descends the trie together, one depth at a time.
        ``_pair_tables = (symbols, depths, node_table, bit_table)``: row ``r``
        holds symbol ``symbols[r]``'s code path padded with ``-1``.  A code
        that leaves the trie (a symbol the tree never routed) gets depth 0
        and no path: :meth:`rank` returns 0 for it, and so does the
        level-synchronous walk.
        """
        symbols = sorted(self._codes)
        codes = [self._codes[s] for s in symbols]
        lengths = np.asarray([len(code) for code in codes], dtype=np.int64)
        width = int(lengths.max(initial=0))
        bit_table = np.asarray(
            [code + (0,) * (width - len(code)) for code in codes], dtype=bool
        ).reshape(len(codes), width)
        node_table = np.full((len(codes), width), -1, dtype=np.int64)
        nodes = np.zeros(len(codes), dtype=np.int64)
        for depth in range(width):
            walking = depth < lengths
            node_table[walking, depth] = nodes[walking]
            step = self._child[np.maximum(nodes, 0), bit_table[:, depth].astype(np.int64)]
            nodes = np.where(nodes >= 0, step, -1)
        depths = np.where((lengths > 0) & ((node_table >= 0).sum(axis=1) == lengths), lengths, 0)
        node_rows = node_table.tolist()
        self._paths = {
            s: (tuple(node_rows[row][:depth]), codes[row])
            for row, (s, depth) in enumerate(zip(symbols, depths.tolist()))
            if depth
        }
        rows = np.flatnonzero(depths)
        last = depths[rows] - 1
        sides = (node_table[rows, last], bit_table[rows, last].astype(np.int64))
        self._leaf_symbol = np.zeros((max(self._num_nodes, 1), 2), dtype=np.int64)
        self._has_leaf = np.zeros((max(self._num_nodes, 1), 2), dtype=bool)
        self._leaf_symbol[sides] = np.asarray(symbols, dtype=np.int64)[rows]
        self._has_leaf[sides] = True
        self._pair_tables = (np.asarray(symbols, dtype=np.int64), depths, node_table, bit_table)

    # ------------------------------------------------------------------ #
    # the level-synchronous kernel
    # ------------------------------------------------------------------ #
    def _block_words(self, blocks: np.ndarray) -> np.ndarray:
        """The 64-bit words of ``blocks``, decoding RRR blocks on first touch."""
        words = self._words[blocks]
        if self._classes is not None:
            stale = words == _UNDECODED
            if stale.any():
                fresh = np.unique(blocks[stale])
                self._words[fresh] = decode_blocks(
                    self._classes[fresh], self._offsets[fresh], self._block_bits
                )
                words = self._words[blocks]
        return words

    def _node_rank1(
        self, nodes: np.ndarray | int, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ones before ``positions`` in the bitmaps of ``nodes``: one gather.

        ``nodes`` is aligned with ``positions`` (any mix of nodes) or a single
        node id.  Returns ``(ones, words, within)`` so callers that also need
        the bit at each position read it from the same word.
        """
        b = self._block_bits
        local = positions // b
        within = positions - local * b
        blocks = self._node_start[nodes] + local
        words = self._block_words(blocks)
        ones = (
            self._cum[blocks]
            - self._node_base[nodes]
            + np.bitwise_count(words & LOW_MASKS[within])
        )
        return ones, words, within

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n

    @property
    def codes(self) -> dict[int, tuple[int, ...]]:
        """The prefix-free code used to shape the tree."""
        return dict(self._codes)

    def depth_of(self, symbol: int) -> int:
        """Code length of ``symbol`` (number of bit-vector ranks per query)."""
        try:
            return len(self._codes[int(symbol)])
        except KeyError:
            raise AlphabetError(f"symbol {symbol} not in the wavelet tree alphabet") from None

    def rank(self, symbol: int, i: int) -> int:
        """Number of occurrences of ``symbol`` in ``sequence[0:i]`` (exclusive)."""
        if not 0 <= i <= self._n:
            raise QueryError(f"rank position {i} out of range [0, {self._n}]")
        path = self._paths.get(int(symbol))
        if path is None:
            return 0
        node_ids, bits = path
        position = i
        node_bvs = self._node_bvs
        for node_id, bit in zip(node_ids, bits):
            if node_id < 0:
                return 0
            bitvector = node_bvs[node_id]
            position = bitvector.rank1(position) if bit else bitvector.rank0(position)
            if position == 0:
                return 0
        return position

    def rank_many(self, symbol: int, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorized :meth:`rank` of one symbol over many positions."""
        pos = np.asarray(positions, dtype=np.int64)
        return self.rank_pairs(np.full(pos.size, int(symbol), dtype=np.int64), pos)

    def rank_pairs(
        self,
        symbols: Sequence[int] | np.ndarray,
        positions: Sequence[int] | np.ndarray,
    ) -> np.ndarray:
        """Vectorized rank of aligned ``(symbol, position)`` pairs.

        Equivalent to ``[self.rank(s, p) for s, p in zip(symbols, positions)]``.
        All pairs descend the tree together: at every depth each pending pair
        sits at the tree node its symbol's code path visits, and the ranks of
        every ``(node, position)`` pair at that depth are one kernel call —
        pairs of different symbols in different nodes cost the same gather.
        """
        sym = np.asarray(symbols, dtype=np.int64)
        pos = np.asarray(positions, dtype=np.int64)
        if sym.size != pos.size:
            raise QueryError(
                f"rank_pairs needs aligned arrays, got {sym.size} symbols "
                f"and {pos.size} positions"
            )
        out = np.zeros(pos.size, dtype=np.int64)
        if pos.size == 0:
            return out
        if int(pos.min()) < 0 or int(pos.max()) > self._n:
            raise QueryError(f"rank positions out of range [0, {self._n}]")

        table_symbols, table_depths, node_table, bit_table = self._pair_tables
        # Absent symbols get depth 0, which ranks to 0 like the scalar walk.
        row = np.minimum(np.searchsorted(table_symbols, sym), table_symbols.size - 1)
        depths = np.where(table_symbols[row] == sym, table_depths[row], 0)
        active = np.flatnonzero(depths > 0)
        row = row[active]
        current = pos[active]
        depths = depths[active]
        depth = 0
        while active.size:
            ones = self._node_rank1(node_table[row, depth], current)[0]
            current = np.where(bit_table[row, depth], ones, current - ones)
            depth += 1
            done = depths == depth
            if done.any():
                out[active[done]] = current[done]
            # A position that hit 0 stays 0 down the rest of its path.
            going = ~done & (current > 0)
            if not going.all():
                active, row, current, depths = (
                    active[going], row[going], current[going], depths[going]
                )
        return out

    def access(self, i: int) -> int:
        """Return ``sequence[i]``."""
        return self.inverse_select(i)[0]

    def inverse_select(self, i: int) -> tuple[int, int]:
        """``(sequence[i], rank(sequence[i], i))`` in one root-to-leaf walk.

        The position an access walk carries down the tree *is* the rank of
        the symbol it ends at, so one walk answers both (sdsl's
        ``inverse_select``) — the LF step of an FM-index needs exactly this.
        """
        if not 0 <= i < self._n:
            raise QueryError(f"access position {i} out of range [0, {self._n})")
        node = 0
        position = i
        while True:
            bitvector = self._node_bvs[node]
            bit = bitvector.access(position)
            position = bitvector.rank1(position) if bit else bitvector.rank0(position)
            if self._has_leaf[node, bit]:
                return int(self._leaf_symbol[node, bit]), position
            child = int(self._child[node, bit])
            if child < 0:
                raise QueryError(f"bit path at node {node} does not correspond to a symbol")
            node = child

    def access_many(self, positions: Sequence[int] | np.ndarray) -> np.ndarray:
        """Vectorized :meth:`access` over an array of positions."""
        return self.inverse_select_many(positions)[0]

    def inverse_select_many(
        self, positions: Sequence[int] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`inverse_select`: ``(symbols, ranks)`` per position.

        Every position descends together: one kernel call per depth reads
        each position's bit and its rank from the same word, a position
        whose (node, bit) side is a leaf finishes there, and the rest move to
        their child nodes.
        """
        pos = np.asarray(positions, dtype=np.int64)
        symbols = np.zeros(pos.size, dtype=np.int64)
        ranks = np.zeros(pos.size, dtype=np.int64)
        if pos.size == 0:
            return symbols, ranks
        if int(pos.min()) < 0 or int(pos.max()) >= self._n:
            raise QueryError(f"access positions out of range [0, {self._n})")
        child = self._child.reshape(-1)
        has_leaf = self._has_leaf.reshape(-1)
        leaf_symbol = self._leaf_symbol.reshape(-1)
        active = np.arange(pos.size)
        nodes: np.ndarray | int = 0
        current = pos
        while active.size:
            ones, words, within = self._node_rank1(nodes, current)
            bits = (words & BIT_MASKS[within]) != 0
            current = np.where(bits, ones, current - ones)
            sides = nodes * 2 + bits
            leaf = has_leaf[sides]
            if leaf.any():
                finished = active[leaf]
                symbols[finished] = leaf_symbol[sides[leaf]]
                ranks[finished] = current[leaf]
                inner = ~leaf
                active, current, sides = active[inner], current[inner], sides[inner]
            nodes = child[sides]
            if nodes.size and int(nodes.min()) < 0:
                raise QueryError("bit path does not correspond to a symbol")
        return symbols, ranks

    # ------------------------------------------------------------------ #
    # size accounting
    # ------------------------------------------------------------------ #
    def size_in_bits(self) -> int:
        """Total size: per-node bit vectors plus tree topology overhead.

        Each stored node is charged two 64-bit pointers (children) as the
        structural overhead the paper refers to when discussing Huffman-tree
        pointers; leaves are charged one symbol entry of ``ceil(lg sigma)``
        bits via the code table.
        """
        bits = sum(bv.size_in_bits() for bv in self._node_bvs)
        bits += len(self._node_bvs) * 2 * 64
        sigma = max(self._codes) + 1 if self._codes else 1
        symbol_bits = max(int(sigma - 1).bit_length(), 1)
        bits += len(self._codes) * symbol_bits
        return bits

    def node_count(self) -> int:
        """Number of internal (bit-vector-bearing) nodes."""
        return len(self._node_bvs)

    def average_depth(self) -> float:
        """Average code length weighted by symbol frequency."""
        total = sum(self._frequencies.values())
        if total == 0:
            return 0.0
        weighted = sum(len(self._codes[s]) * c for s, c in self._frequencies.items())
        return weighted / total


def fixed_width_codes(symbols: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """Assign fixed-width binary codes to ``symbols`` (for a balanced tree)."""
    distinct = sorted(set(int(s) for s in symbols))
    if not distinct:
        raise ConstructionError("cannot assign codes to an empty alphabet")
    width = max((len(distinct) - 1).bit_length(), 1)
    codes: dict[int, tuple[int, ...]] = {}
    for index, symbol in enumerate(distinct):
        codes[symbol] = tuple((index >> (width - 1 - level)) & 1 for level in range(width))
    return codes


class HuffmanWaveletTree(WaveletTree):
    """Huffman-shaped wavelet tree (HWT): the tree of Section II-A4.

    The tree shape is the Huffman tree of the stored sequence, so frequent
    symbols sit near the root and both space and expected rank time are
    O(1 + H0) per symbol (Theorem 1).
    """

    def __init__(
        self,
        sequence: Sequence[int] | np.ndarray,
        bitvector_factory: BitVectorFactory | None = None,
    ):
        seq = np.asarray(sequence, dtype=np.int64)
        if seq.size == 0:
            raise ConstructionError("cannot build an HWT over an empty sequence")
        values, counts = np.unique(seq, return_counts=True)
        frequencies = {int(v): int(c) for v, c in zip(values, counts)}
        code = build_huffman_code(frequencies)
        super().__init__(
            seq, code.codes, bitvector_factory=bitvector_factory, frequencies=frequencies
        )


class BalancedWaveletTree(WaveletTree):
    """Balanced (fixed-depth) wavelet tree over the symbols present."""

    def __init__(
        self,
        sequence: Sequence[int] | np.ndarray,
        bitvector_factory: BitVectorFactory | None = None,
    ):
        seq = np.asarray(sequence, dtype=np.int64)
        if seq.size == 0:
            raise ConstructionError("cannot build a wavelet tree over an empty sequence")
        values, counts = np.unique(seq, return_counts=True)
        frequencies = {int(v): int(c) for v, c in zip(values, counts)}
        codes = fixed_width_codes(values.tolist())
        super().__init__(
            seq, codes, bitvector_factory=bitvector_factory, frequencies=frequencies
        )
