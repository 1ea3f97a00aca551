"""Relative movement labeling (RML), Section III-B of the paper.

An RML function ``phi(w | w')`` assigns a small positive integer to every
ET-graph edge ``(w', w)`` such that ``phi(. | w')`` is one-to-one for every
context ``w'``.  The paper's optimal strategy sorts the out-neighbours of each
context by decreasing bigram count, giving label 1 to the most frequent
successor (Theorem 3 proves this minimises the zeroth-order entropy of the
labelled BWT).  Two alternative strategies are provided:

* ``"random"`` — a uniformly random permutation of labels per context, the
  baseline of the paper's Fig. 14;
* ``"unigram"`` — labels sorted by the *unigram* frequency of the successor,
  which is exactly the information MEL (Han et al.) uses, letting tests check
  Theorem 6 (RML entropy <= MEL-style entropy) within the same machinery.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from ..exceptions import ConstructionError, QueryError
from .etgraph import ETGraph

LabelingStrategy = Literal["bigram", "random", "unigram"]


class RMLFunction:
    """A concrete relative-movement-labelling function ``phi``.

    Instances are built by :func:`build_rml`; they map ``(context, target)``
    edges to labels (>= 1) and back.

    Besides the scalar lookups, the function is laid out as arrays for the
    batched query paths.  Every edge has a **slot**: the edges of context
    ``w'`` fill slots ``context_offsets[w'] .. context_offsets[w' + 1] - 1``
    in label order, so the edge labelled ``eta`` sits at slot
    ``context_offsets[w'] + eta - 1``.  :attr:`targets` is indexed by slot,
    and per-edge data computed elsewhere (the PseudoRank correction terms) is
    aligned with the same slots.
    """

    def __init__(self, label_of: dict[tuple[int, int], int], target_of: dict[tuple[int, int], int]):
        self._label_of = label_of
        self._target_of = target_of
        self._max_label = max(label_of.values(), default=0)

        n_edges = len(label_of)
        contexts = np.fromiter((c for c, _ in label_of), dtype=np.int64, count=n_edges)
        targets = np.fromiter((t for _, t in label_of), dtype=np.int64, count=n_edges)
        labels = np.fromiter(label_of.values(), dtype=np.int64, count=n_edges)
        # Symbols are non-negative, so ``context * _key_base + target`` is a
        # collision-free key for every pair of in-range symbols.
        self._key_base = max(int(contexts.max()), int(targets.max())) + 1 if n_edges else 1
        by_slot = np.lexsort((labels, contexts))
        self._context_offsets = np.zeros(self._key_base + 1, dtype=np.int64)
        np.cumsum(np.bincount(contexts, minlength=self._key_base), out=self._context_offsets[1:])
        ranks = np.arange(by_slot.size) - self._context_offsets[contexts[by_slot]] + 1
        if not np.array_equal(labels[by_slot], ranks):
            raise ConstructionError("the labels of every context must be 1 .. its out-degree")
        self._targets = targets[by_slot]
        keys = contexts[by_slot] * self._key_base + self._targets
        self._key_order = np.argsort(keys)
        self._sorted_keys = keys[self._key_order]

    @property
    def max_label(self) -> int:
        """Largest label assigned by this function (alphabet size of phi(Tbwt))."""
        return self._max_label

    @property
    def context_offsets(self) -> np.ndarray:
        """First slot of every context's edges (length ``max symbol + 2``)."""
        return self._context_offsets

    @property
    def targets(self) -> np.ndarray:
        """Target symbol of every edge, by slot."""
        return self._targets

    def edge_slots(self, targets: np.ndarray, contexts: np.ndarray) -> np.ndarray:
        """Slot of each ``(context, target)`` edge; ``-1`` where ``phi`` is undefined.

        The vectorized :meth:`has_label`/:meth:`label`: one ``searchsorted``
        over the sorted edge keys answers every pair at once.
        """
        targets = np.asarray(targets, dtype=np.int64)
        contexts = np.asarray(contexts, dtype=np.int64)
        if self._sorted_keys.size == 0:
            return np.full(targets.size, -1, dtype=np.int64)
        base = self._key_base
        in_range = (targets >= 0) & (targets < base) & (contexts >= 0) & (contexts < base)
        keys = np.where(in_range, contexts * base + targets, -1)
        found = np.minimum(np.searchsorted(self._sorted_keys, keys), self._sorted_keys.size - 1)
        return np.where(self._sorted_keys[found] == keys, self._key_order[found], -1)

    def label_slots(self, labels: np.ndarray, contexts: np.ndarray) -> np.ndarray:
        """Slot of each ``(context, label)`` edge: the vectorized :meth:`decode`.

        ``targets[label_slots(labels, contexts)]`` decodes every label at
        once; an undefined label raises :class:`QueryError` like the scalar
        decode.
        """
        labels = np.asarray(labels, dtype=np.int64)
        contexts = np.asarray(contexts, dtype=np.int64)
        if labels.size == 0:
            return labels
        if int(contexts.min()) < 0 or int(contexts.max()) >= self._key_base:
            raise QueryError(f"contexts out of range [0, {self._key_base})")
        first = self._context_offsets[contexts]
        undefined = (labels < 1) | (labels > self._context_offsets[contexts + 1] - first)
        if undefined.any():
            bad = int(np.flatnonzero(undefined)[0])
            raise QueryError(
                f"label {int(labels[bad])} is undefined for context {int(contexts[bad])}"
            )
        return first + labels - 1

    def label(self, target: int, context: int) -> int:
        """``phi(target | context)``; raises if the transition was never observed."""
        try:
            return self._label_of[(int(context), int(target))]
        except KeyError:
            raise QueryError(f"phi({target} | {context}) is undefined (no ET-graph edge)") from None

    def has_label(self, target: int, context: int) -> bool:
        """True when ``phi(target | context)`` is defined."""
        return (int(context), int(target)) in self._label_of

    def decode(self, label: int, context: int) -> int:
        """Inverse map: the target ``w`` with ``phi(w | context) == label``."""
        try:
            return self._target_of[(int(context), int(label))]
        except KeyError:
            raise QueryError(f"label {label} is undefined for context {context}") from None

    def labels_for_context(self, context: int) -> dict[int, int]:
        """Return ``{target: label}`` for every out-neighbour of ``context``."""
        context = int(context)
        if not 0 <= context < self._key_base:
            return {}
        first, end = self._context_offsets[context : context + 2].tolist()
        return {target: label for label, target in enumerate(self._targets[first:end].tolist(), 1)}

    def __len__(self) -> int:
        return len(self._label_of)


def build_rml(
    graph: ETGraph,
    strategy: LabelingStrategy = "bigram",
    rng: np.random.Generator | None = None,
    unigram_counts: np.ndarray | None = None,
) -> RMLFunction:
    """Build an RML function over an ET-graph.

    Parameters
    ----------
    graph:
        The ET-graph of the trajectory string.
    strategy:
        ``"bigram"`` (paper's optimal), ``"random"`` (Fig. 14 baseline) or
        ``"unigram"`` (MEL-style ordering; requires ``unigram_counts``).
    rng:
        Source of randomness for the ``"random"`` strategy.
    unigram_counts:
        Per-symbol occurrence counts, required by the ``"unigram"`` strategy.
    """
    if strategy == "random" and rng is None:
        rng = np.random.default_rng(0)
    if strategy == "unigram" and unigram_counts is None:
        raise ConstructionError("the 'unigram' strategy requires unigram_counts")

    if strategy not in ("bigram", "random", "unigram"):
        raise ConstructionError(f"unknown labelling strategy: {strategy!r}")
    contexts, targets, counts = graph.edge_arrays()
    # Label order within each context: decreasing bigram count (or unigram
    # count of the target), ties by target symbol.
    if strategy == "unigram":
        counts = np.asarray(unigram_counts, dtype=np.int64)[targets]  # type: ignore[arg-type]
    order = np.lexsort((targets, -counts, contexts))
    contexts, targets = contexts[order], targets[order]
    firsts = np.flatnonzero(np.diff(contexts, prepend=-1))
    if strategy == "random":
        # One seeded shuffle per context, in context order.
        for first, end in zip(firsts.tolist(), np.append(firsts[1:], targets.size).tolist()):
            rng.shuffle(targets[first:end])  # type: ignore[union-attr]
    labels = np.arange(targets.size) - np.repeat(firsts, np.diff(firsts, append=targets.size)) + 1
    contexts_list, targets_list, labels_list = contexts.tolist(), targets.tolist(), labels.tolist()
    return RMLFunction(
        dict(zip(zip(contexts_list, targets_list), labels_list)),
        dict(zip(zip(contexts_list, labels_list), targets_list)),
    )


def label_bwt(
    bwt: np.ndarray,
    c_array: np.ndarray,
    rml: RMLFunction,
) -> np.ndarray:
    """Apply the RML function to a BWT, producing ``phi(Tbwt)`` (Section III-C1).

    The BWT is partitioned into length-1 context blocks ``[C[w'], C[w'+1])``;
    every symbol in the block of context ``w'`` is replaced by
    ``phi(symbol | w')``: one :meth:`RMLFunction.edge_slots` lookup over the
    whole BWT.
    """
    sigma = c_array.size - 1
    contexts = np.repeat(np.arange(sigma), np.diff(c_array))
    slots = rml.edge_slots(bwt, contexts)
    if slots.size and int(slots.min()) < 0:
        row = int(np.argmin(slots))
        raise ConstructionError(
            f"phi({int(bwt[row])} | {int(contexts[row])}) is undefined at BWT row {row} "
            "(no ET-graph edge)"
        )
    return slots - rml.context_offsets[contexts] + 1


def labelled_entropy(labelled_bwt: Sequence[int] | np.ndarray) -> float:
    """Zeroth-order empirical entropy of a labelled BWT, ``H0(phi(Tbwt))``."""
    arr = np.asarray(labelled_bwt, dtype=np.int64)
    if arr.size == 0:
        return 0.0
    counts = np.bincount(arr)
    counts = counts[counts > 0]
    probabilities = counts / arr.size
    return float(-(probabilities * np.log2(probabilities)).sum())
