"""CiNCT: the compressed index for network-constrained trajectories.

This is the paper's primary contribution (Sections III–IV).  Construction
follows the five steps of Fig. 5:

1. concatenate the NCTs into a trajectory string ``T`` (done by the caller or
   :meth:`CiNCT.from_trajectories`);
2. compute the BWT ``Tbwt``;
3. build the ET-graph ``G_T`` and the RML function ``phi``;
4. label the BWT, obtaining ``phi(Tbwt)``;
5. store ``phi(Tbwt)`` in a Huffman-shaped wavelet tree over RRR bit vectors.

Queries:

* :meth:`CiNCT.suffix_range` — Algorithm 3 (``LabeledSearchFM``);
* :meth:`CiNCT.count` / :meth:`CiNCT.contains`;
* :meth:`CiNCT.extract` — Algorithm 4 (sub-path extraction via PseudoRank);
* :meth:`CiNCT.locate` — optional suffix-array-sampled locate (an extension
  used by the strict-path-query layer, not part of the paper's evaluation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Hashable, Literal, Mapping, Sequence

import numpy as np

from ..exceptions import ConstructionError, QueryError
from ..fmindex.base import FMIndexBase, validate_pattern
from ..fmindex.trie import PatternTrie, trie_backward_search
from ..strings.alphabet import END_SYMBOL, SEP_SYMBOL
from ..strings.bwt import BWTResult, burrows_wheeler_transform
from ..strings.trajectory_string import TrajectoryString, build_trajectory_string
from ..succinct import BitVector, IntVector, bits_needed
from ..wavelet import HuffmanWaveletTree, plain_bitvector_factory, rrr_bitvector_factory
from .etgraph import ETGraph
from .pseudorank import CorrectionTerms, compute_correction_terms
from .rml import LabelingStrategy, RMLFunction, build_rml, label_bwt

BitVectorBackend = Literal["rrr", "plain"]


@dataclass
class ConstructionBreakdown:
    """Wall-clock seconds spent in each construction stage (paper Fig. 16)."""

    bwt_seconds: float = 0.0
    et_graph_seconds: float = 0.0
    labeling_seconds: float = 0.0
    wavelet_tree_seconds: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Total construction time."""
        return (
            self.bwt_seconds
            + self.et_graph_seconds
            + self.labeling_seconds
            + self.wavelet_tree_seconds
            + sum(self.extra.values())
        )


class CiNCT:
    """Compressed index for NCTs based on RML + PseudoRank.

    Parameters
    ----------
    bwt_result:
        The BWT of the trajectory string to index.
    block_size:
        RRR block size ``b`` (the only tuning parameter of CiNCT; 63 default).
    labeling_strategy:
        ``"bigram"`` (optimal, default), ``"random"`` or ``"unigram"``;
        exposed so the Fig. 14 ablation can compare strategies.
    bitvector_backend:
        ``"rrr"`` (paper) or ``"plain"`` (ablation: HWT without compression).
    sa_sample_rate:
        When set, every ``sa_sample_rate``-th suffix-array value is sampled so
        that :meth:`locate` works; ``None`` (default) disables sampling and
        matches the paper's size accounting.
    rng:
        Randomness source for the ``"random"`` labelling strategy.
    """

    name = "CiNCT"

    def __init__(
        self,
        bwt_result: BWTResult,
        block_size: int = 63,
        labeling_strategy: LabelingStrategy = "bigram",
        bitvector_backend: BitVectorBackend = "rrr",
        sa_sample_rate: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.block_size = block_size
        self.labeling_strategy: LabelingStrategy = labeling_strategy
        self.bitvector_backend: BitVectorBackend = bitvector_backend
        self._n = bwt_result.length
        self._sigma = bwt_result.sigma
        self._c_array = bwt_result.c_array
        self.construction = ConstructionBreakdown()

        started = time.perf_counter()
        self._et_graph = ETGraph(bwt_result.text, sigma=bwt_result.sigma)
        self._rml = build_rml(
            self._et_graph,
            strategy=labeling_strategy,
            rng=rng,
            unigram_counts=bwt_result.counts if labeling_strategy == "unigram" else None,
        )
        self.construction.et_graph_seconds = time.perf_counter() - started

        # The labelled BWT lives only until the wavelet tree holds it.
        started = time.perf_counter()
        labelled_bwt = label_bwt(bwt_result.bwt, bwt_result.c_array, self._rml)
        self._corrections = compute_correction_terms(
            bwt_result.bwt, labelled_bwt, bwt_result.c_array, self._rml
        )
        self.construction.labeling_seconds = time.perf_counter() - started

        started = time.perf_counter()
        if bitvector_backend == "rrr":
            factory = rrr_bitvector_factory(block_size)
        elif bitvector_backend == "plain":
            factory = plain_bitvector_factory()
        else:
            raise ConstructionError(f"unknown bitvector backend: {bitvector_backend!r}")
        self._wavelet_tree = HuffmanWaveletTree(labelled_bwt, bitvector_factory=factory)
        self.construction.wavelet_tree_seconds = time.perf_counter() - started

        # Marked BWT rows (those whose SA value is a multiple of the rate) as
        # one bitmap: rank1 over it indexes the samples, as in the FM-index's
        # sampled suffix array (Ferragina and Manzini, JACM 2005).
        self._sa_sample_rate = sa_sample_rate
        self._sa_samples: np.ndarray | None = None
        self._sa_marks: BitVector | None = None
        if sa_sample_rate is not None:
            if sa_sample_rate < 1:
                raise ConstructionError("sa_sample_rate must be a positive integer")
            started = time.perf_counter()
            marked = (bwt_result.suffix_array % sa_sample_rate) == 0
            self._sa_samples = bwt_result.suffix_array[marked]
            self._sa_marks = BitVector(marked)
            self.construction.extra["sa_sampling_seconds"] = time.perf_counter() - started

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "CiNCT":
        """Restore an index from :meth:`arrays`: no construction step runs.

        The arrays are held as given, so memory-mapped members stay mapped;
        only small derived directories (rank counts, sorted edge keys, the
        tree topology) are computed.
        """
        self = object.__new__(cls)
        self.block_size = int(arrays["block_size"][0])
        self.labeling_strategy = str(arrays["labeling_strategy"][0])  # type: ignore[assignment]
        self.bitvector_backend = "rrr" if "hwt_classes" in arrays else "plain"
        self.construction = ConstructionBreakdown()
        self._c_array = arrays["c_array"]
        self._sigma, self._n = int(self._c_array.size) - 1, int(self._c_array[-1])
        self._et_graph = ETGraph.from_arrays(
            arrays["et_contexts"], arrays["et_targets"], arrays["et_counts"], self._sigma, self._n
        )
        self._rml = RMLFunction(arrays["rml_context_offsets"], arrays["rml_targets"])
        self._corrections = CorrectionTerms(self._rml, arrays["z_by_slot"], self._n)
        self._wavelet_tree = HuffmanWaveletTree.from_arrays(
            {key[4:]: value for key, value in arrays.items() if key.startswith("hwt_")}
        )
        sampled = "sa_sample_rate" in arrays
        self._sa_sample_rate = int(arrays["sa_sample_rate"][0]) if sampled else None
        self._sa_samples = arrays["sa_samples"] if sampled else None
        self._sa_marks = BitVector.from_words(self._n, arrays["sa_marks"]) if sampled else None
        return self

    def arrays(self) -> dict[str, np.ndarray]:
        """The saved form of the index: every array a query or :meth:`size_in_bits` reads.

        The wavelet tree's code and flat blocks (``hwt_*``), the RML slot
        arrays, ``Z`` by slot, ``C``, the ET-graph edges and the SA samples
        and packed marks.  Nothing is copied.
        """
        contexts, targets, counts = self._et_graph.edge_arrays()
        out = {f"hwt_{key}": value for key, value in self._wavelet_tree.arrays().items()}
        out.update(
            block_size=np.asarray([self.block_size], dtype=np.int64),
            labeling_strategy=np.asarray([self.labeling_strategy]),
            c_array=self._c_array,
            rml_context_offsets=self._rml.context_offsets,
            rml_targets=self._rml.targets,
            z_by_slot=self._corrections.by_slot,
            et_contexts=contexts,
            et_targets=targets,
            et_counts=counts,
        )
        if self._sa_marks is not None and self._sa_samples is not None:
            out.update(
                sa_sample_rate=np.asarray([self._sa_sample_rate], dtype=np.int64),
                sa_samples=self._sa_samples,
                sa_marks=self._sa_marks.words,
            )
        return out

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_trajectories(
        cls,
        trajectories: Sequence[Sequence[Hashable]],
        **kwargs: object,
    ) -> tuple["CiNCT", TrajectoryString]:
        """Build a CiNCT index directly from raw trajectories.

        Returns the index together with the :class:`TrajectoryString`, whose
        alphabet is needed to encode query paths.
        """
        trajectory_string = build_trajectory_string(trajectories)
        index = cls.from_text(trajectory_string.text, sigma=trajectory_string.sigma, **kwargs)
        return index, trajectory_string

    @classmethod
    def from_text(cls, text: np.ndarray, sigma: int | None = None, **kwargs: object) -> "CiNCT":
        """Build a CiNCT index from an already-concatenated trajectory string."""
        started = time.perf_counter()
        bwt_result = burrows_wheeler_transform(text, sigma=sigma)
        bwt_seconds = time.perf_counter() - started
        index = cls(bwt_result, **kwargs)  # type: ignore[arg-type]
        index.construction.bwt_seconds = bwt_seconds
        return index

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def length(self) -> int:
        """Length of the indexed trajectory string."""
        return self._n

    @property
    def sigma(self) -> int:
        """Alphabet size of the original trajectory string."""
        return self._sigma

    @property
    def c_array(self) -> np.ndarray:
        """The FM-index ``C[]`` array."""
        return self._c_array

    @property
    def et_graph(self) -> ETGraph:
        """The empirical transition graph used for labelling."""
        return self._et_graph

    @property
    def rml(self) -> RMLFunction:
        """The relative-movement-labelling function ``phi``."""
        return self._rml

    @property
    def corrections(self) -> CorrectionTerms:
        """The PseudoRank correction terms ``Z``."""
        return self._corrections

    @property
    def labelled_bwt(self) -> np.ndarray:
        """``phi(Tbwt)`` read back from the wavelet tree (mainly for analysis and tests)."""
        return self._wavelet_tree.access_many(np.arange(self._n))

    @property
    def wavelet_tree(self) -> HuffmanWaveletTree:
        """The HWT storing ``phi(Tbwt)``."""
        return self._wavelet_tree

    @property
    def has_sa_samples(self) -> bool:
        """True when the index was built with ``sa_sample_rate`` (locate works)."""
        return self._sa_samples is not None

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def suffix_range(
        self, pattern: Sequence[int], interval_cache=None
    ) -> tuple[int, int] | None:
        """Algorithm 3 (``LabeledSearchFM``): suffix range of a query path.

        The pattern is given in travel order using the symbols of the original
        alphabet; returns ``(sp, ep)`` or ``None`` when the path never occurs.
        ``interval_cache`` (optional, ``deepest``/``store`` over prefix-tuple
        keys) lets the walk resume from the deepest cached ancestor of the
        pattern — an incremental one-edge extension costs one labelled LF
        step — and stores the final range for future queries.
        """
        symbols = self._validated_pattern(pattern)
        # Patterns are given in travel order; because the trajectory string
        # stores reversed trajectories, Algorithm 3 consumes the pattern from
        # its first symbol to its last, with the previous (travel-earlier)
        # symbol acting as the RML context of the current one.
        cache = interval_cache
        if cache is not None and not getattr(cache, "enabled", True):
            cache = None
        n = len(symbols)
        prefix_len = 0
        sp = ep = 0
        if cache is not None:
            keys = [tuple(symbols[:k]) for k in range(n, 0, -1)]
            hit, interval = cache.deepest(keys)
            if hit >= 0:
                if interval is None:
                    return None
                sp, ep = interval
                prefix_len = n - hit
        if prefix_len == 0:
            w = symbols[0]
            sp = int(self._c_array[w])
            ep = int(self._c_array[w + 1])
            prefix_len = 1
            if sp >= ep:
                if cache is not None:
                    cache.store(tuple(symbols), None)
                return None
        offsets = self._rml.context_offsets
        z = self._corrections.by_slot
        w = symbols[prefix_len - 1]
        for index in range(prefix_len, n):
            context = w
            w = symbols[index]
            slot = self._rml.edge_slot(w, context)
            dead = slot < 0
            if not dead:
                label = slot - int(offsets[context]) + 1
                base = int(self._c_array[w]) - int(z[slot])
                sp = base + self._wavelet_tree.rank(label, sp)
                ep = base + self._wavelet_tree.rank(label, ep)
                dead = sp >= ep
            if dead:
                if cache is not None:
                    cache.store(tuple(symbols), None)
                return None
        if cache is not None and prefix_len < n:
            cache.store(tuple(symbols), (sp, ep))
        return sp, ep

    def suffix_range_many(
        self, patterns: Sequence[Sequence[int]], interval_cache=None
    ) -> list[tuple[int, int] | None]:
        """Batched Algorithm 3 over a whole workload of query paths.

        The workload is folded into one
        :class:`~repro.fmindex.trie.PatternTrie` and handed to
        :meth:`trie_search`: query paths sharing a travel-order prefix share a
        single ``LabeledSearchFM`` frontier entry up to their divergence
        point.  Results are bit-identical to calling :meth:`suffix_range` per
        pattern.
        """
        pats = [self._validated_pattern(p) for p in patterns]
        if not pats:
            return []
        return self.trie_search(PatternTrie(pats), interval_cache=interval_cache)

    def trie_search(
        self, trie: PatternTrie, interval_cache=None
    ) -> list[tuple[int, int] | None]:
        """Algorithm 3 over a prebuilt pattern trie (one range per node).

        At every trie depth the pending nodes' ``(context, w)`` bigrams are
        resolved to RML edge slots in one vectorized lookup, which yields
        each node's label and PseudoRank base (``C[w] - Z``) by gathers, and
        the whole labelled frontier then descends the wavelet tree together
        through one :meth:`~repro.wavelet.tree.WaveletTree.rank_pairs` call.
        Bigrams without an RML label (and symbols outside this index's
        alphabet) make their node dead, pruning the whole subtree.
        """
        c = self._c_array
        rml = self._rml
        offsets = rml.context_offsets
        z = self._corrections.by_slot

        def advance(contexts, syms, parent_sp, parent_ep):
            # Dead-by-default: a bigram the RML function never labelled keeps
            # its empty range and kills the subtree below it.
            sp = np.zeros(syms.size, dtype=np.int64)
            ep = np.zeros(syms.size, dtype=np.int64)
            slots = rml.edge_slots(syms, contexts)
            alive = np.flatnonzero(slots >= 0)
            if alive.size:
                live = slots[alive]
                labels = live - offsets[contexts[alive]] + 1
                base = c[syms[alive]] - z[live]
                ranks = self._wavelet_tree.rank_pairs(
                    np.concatenate([labels, labels]),
                    np.concatenate([parent_sp[alive], parent_ep[alive]]),
                )
                sp[alive] = base + ranks[: alive.size]
                ep[alive] = base + ranks[alive.size :]
            return sp, ep

        return trie_backward_search(
            trie, c, self._sigma, advance, interval_cache=interval_cache
        )

    def count(self, pattern: Sequence[int]) -> int:
        """Number of occurrences of the query path in the trajectory string."""
        found = self.suffix_range(pattern)
        if found is None:
            return 0
        sp, ep = found
        return ep - sp

    def count_many(
        self, patterns: Sequence[Sequence[int]], interval_cache=None
    ) -> list[int]:
        """Batched :meth:`count` over a whole workload of query paths."""
        return [
            0 if found is None else found[1] - found[0]
            for found in self.suffix_range_many(patterns, interval_cache=interval_cache)
        ]

    def contains(self, pattern: Sequence[int], interval_cache=None) -> bool:
        """True when the query path occurs at least once."""
        return self.suffix_range(pattern, interval_cache=interval_cache) is not None

    def extract(self, j: int, length: int) -> list[int]:
        """Algorithm 4: extract ``T[i - length, i)`` where ``i = SA[j]``.

        The walk starts by binary-searching the context of row ``j`` in ``C[]``
        and then repeatedly decodes the labelled BWT symbol via the ET-graph
        and LF-steps with PseudoRank.
        """
        if not 0 <= j < self._n:
            raise QueryError(f"BWT position {j} out of range [0, {self._n})")
        if length < 0:
            raise QueryError(f"extraction length must be non-negative, got {length}")
        out = [0] * length
        context = self._symbol_at_row(j)
        row = j
        for k in range(1, length + 1):
            row, context = self._lf_step(row, context)
            out[length - k] = context
        return out

    def extract_many(self, rows: Sequence[int], length: int) -> list[list[int]]:
        """Batched Algorithm 4: extract sub-paths from many BWT rows at once.

        All rows LF-step together (:meth:`_lf_step_many`): one fused wavelet
        descent per step whatever the labels.  Results are bit-identical to
        calling :meth:`extract` per row.
        """
        rows_arr = np.asarray(list(rows), dtype=np.int64)
        if rows_arr.size and (int(rows_arr.min()) < 0 or int(rows_arr.max()) >= self._n):
            raise QueryError(f"BWT positions out of range [0, {self._n})")
        if length < 0:
            raise QueryError(f"extraction length must be non-negative, got {length}")
        m = int(rows_arr.size)
        out = np.zeros((m, length), dtype=np.int64)
        if m == 0 or length == 0:
            return [row.tolist() for row in out]
        contexts = np.searchsorted(self._c_array, rows_arr, side="right") - 1
        current = rows_arr.copy()
        for k in range(1, length + 1):
            current, contexts = self._lf_step_many(current, contexts)
            out[:, length - k] = contexts
        return [row.tolist() for row in out]

    def _lf_step(self, row: int, context: int) -> tuple[int, int]:
        """One LF step with PseudoRank: ``(LF(row), T-symbol decoded at row)``.

        One wavelet walk yields the row's label and that label's rank
        (:meth:`~repro.wavelet.tree.WaveletTree.inverse_select`); the ET-graph
        decodes the label and Theorem 2 corrects the rank.
        """
        label, rank = self._wavelet_tree.inverse_select(row)
        slot = self._rml.label_slot(label, context)
        target = int(self._rml.targets[slot])
        return int(self._c_array[target]) + rank - int(self._corrections.by_slot[slot]), target

    def _lf_step_many(
        self, rows: np.ndarray, contexts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_lf_step` for a whole frontier.

        One fused wavelet descent yields every row's label and rank; label
        decoding and the PseudoRank corrections are then gathers at the
        rows' RML edge slots.
        """
        labels, ranks = self._wavelet_tree.inverse_select_many(rows)
        slots = self._rml.label_slots(labels, contexts)
        targets = self._rml.targets[slots]
        return self._c_array[targets] + ranks - self._corrections.by_slot[slots], targets

    def extract_full_text(self) -> list[int]:
        """Recover the entire trajectory string (``extract(0, n)`` per Section VI-F)."""
        return self.extract(0, self._n)

    def locate(self, j: int) -> int:
        """Return ``SA[j]`` using the sampled suffix array (extension).

        Requires the index to be built with ``sa_sample_rate``; walks the
        LF-mapping until a sampled row is reached.
        """
        if self._sa_marks is None or self._sa_samples is None:
            raise QueryError("locate requires the index to be built with sa_sample_rate")
        if not 0 <= j < self._n:
            raise QueryError(f"BWT position {j} out of range [0, {self._n})")
        steps = 0
        row = j
        context = self._symbol_at_row(row)
        while not self._sa_marks.access(row):
            row, context = self._lf_step(row, context)
            steps += 1
        sample_index = self._sa_marks.rank1(row)
        return (int(self._sa_samples[sample_index]) + steps) % self._n

    def locate_many(self, rows: Sequence[int]) -> list[int]:
        """Batched :meth:`locate`: walk all rows to their sampled ancestors.

        All rows LF-step together; rows that reach a marked position drop out
        of the frontier while the rest continue, so a suffix range's worth of
        locates shares every wavelet access and PseudoRank batch.
        """
        if self._sa_marks is None or self._sa_samples is None:
            raise QueryError("locate requires the index to be built with sa_sample_rate")
        rows_arr = np.asarray(list(rows), dtype=np.int64)
        if rows_arr.size and (int(rows_arr.min()) < 0 or int(rows_arr.max()) >= self._n):
            raise QueryError(f"BWT positions out of range [0, {self._n})")
        m = int(rows_arr.size)
        out = np.zeros(m, dtype=np.int64)
        if m == 0:
            return []
        current = rows_arr.copy()
        contexts = np.searchsorted(self._c_array, rows_arr, side="right") - 1
        steps = np.zeros(m, dtype=np.int64)
        pending = np.arange(m)
        while pending.size:
            sample_index = self._sa_marks.rank1_where_set(current[pending])
            marked = sample_index >= 0
            done = pending[marked]
            if done.size:
                out[done] = (self._sa_samples[sample_index[marked]] + steps[done]) % self._n
            pending = pending[~marked]
            if pending.size == 0:
                break
            next_rows, next_contexts = self._lf_step_many(
                current[pending], contexts[pending]
            )
            current[pending] = next_rows
            contexts[pending] = next_contexts
            steps[pending] += 1
        return out.tolist()

    def decode_text(self, separator_positions: np.ndarray) -> np.ndarray:
        """The indexed trajectory string, decoded by Algorithm 4 from every ``$`` row at once.

        The suffix of a ``$`` row starts at the separator that closes one
        stored trajectory, so LF steps from it yield that trajectory's
        symbols back to front until the walk reaches the previous separator
        (or wraps to the final ``#``): as many steps as the longest
        trajectory.  ``separator_positions`` are the text positions of the
        ``$`` rows, ``SA[C[$] : C[$ + 1]]`` (located through the SA samples,
        or read from a full suffix array).
        """
        rows = np.arange(int(self._c_array[SEP_SYMBOL]), int(self._c_array[SEP_SYMBOL + 1]))
        text = np.empty(self._n, dtype=np.int64)
        text[-1] = END_SYMBOL
        text[separator_positions] = SEP_SYMBOL
        positions = separator_positions
        contexts = np.full(rows.size, SEP_SYMBOL, dtype=np.int64)
        while rows.size:
            rows, contexts = self._lf_step_many(rows, contexts)
            positions = positions - 1
            inside = contexts > SEP_SYMBOL
            rows, contexts, positions = rows[inside], contexts[inside], positions[inside]
            text[positions] = contexts
        return text

    # ------------------------------------------------------------------ #
    # size accounting
    # ------------------------------------------------------------------ #
    def size_in_bits(self, include_et_graph: bool = True) -> int:
        """Total index size.

        Parameters
        ----------
        include_et_graph:
            When true (default) the ET-graph adjacency lists, correction terms
            and ``C[]`` values are included, matching the paper's "CiNCT"
            series; when false only the wavelet tree over ``phi(Tbwt)`` is
            counted, matching "CiNCT (w/o ET-graph)".
        """
        bits = self._wavelet_tree.size_in_bits()
        if include_et_graph:
            bits += self._et_graph.size_in_bits(text_length=self._n)
            bits += self._corrections.size_in_bits()
            bits += IntVector(self._c_array).size_in_bits()
        if self._sa_samples is not None:
            bits += int(self._sa_samples.size) * bits_needed(max(self._n - 1, 1))
            bits += self._n  # marked-row bitmap
        return bits

    def bits_per_symbol(self, include_et_graph: bool = True) -> float:
        """Index size divided by trajectory-string length (the paper's y-axis)."""
        return self.size_in_bits(include_et_graph=include_et_graph) / self._n

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _symbol_at_row(self, j: int) -> int:
        return int(np.searchsorted(self._c_array, j, side="right") - 1)

    def _validated_pattern(self, pattern: Sequence[int]) -> list[int]:
        return validate_pattern(pattern, self._sigma)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CiNCT(n={self._n}, sigma={self._sigma}, b={self.block_size}, "
            f"strategy={self.labeling_strategy!r})"
        )


def reference_index(bwt_result: BWTResult) -> FMIndexBase:
    """Return a plain reference FM-index for cross-checking CiNCT results."""
    from ..fmindex.variants import UncompressedFMIndex

    return UncompressedFMIndex(bwt_result)
