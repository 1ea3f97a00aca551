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

    Instances are built by :func:`build_rml` (or restored from the two slot
    arrays of a saved index); they map ``(context, target)`` edges to labels
    (>= 1) and back.

    The function is held as two arrays.  Every edge has a **slot**: the
    edges of context ``w'`` fill slots ``context_offsets[w'] ..
    context_offsets[w' + 1] - 1`` in label order, so the edge labelled
    ``eta`` sits at slot ``context_offsets[w'] + eta - 1``.  :attr:`targets`
    is indexed by slot, and per-edge data computed elsewhere (the PseudoRank
    correction terms) is aligned with the same slots.  An edge's slot is
    found by one ``searchsorted`` over the sorted edge keys.
    """

    def __init__(self, context_offsets: np.ndarray, targets: np.ndarray):
        degrees = np.diff(context_offsets)
        if context_offsets.size == 0 or context_offsets[0] != 0 or (degrees < 0).any() or (
            context_offsets[-1] != targets.size
        ):
            raise ConstructionError("the labels of every context must be 1 .. its out-degree")
        self._context_offsets = context_offsets
        self._targets = targets
        self._max_label = int(degrees.max(initial=0))
        # Symbols are non-negative, so ``context * _key_base + target`` is a
        # collision-free key for every pair of in-range symbols.
        self._key_base = int(context_offsets.size) - 1
        keys = np.repeat(np.arange(self._key_base), degrees) * self._key_base + targets
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

        The vectorized :meth:`edge_slot`: one ``searchsorted`` over the
        sorted edge keys answers every pair at once.
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

    def edge_slot(self, target: int, context: int) -> int:
        """Slot of the edge ``(context, target)``; ``-1`` where ``phi`` is undefined."""
        target, context = int(target), int(context)
        base = self._key_base
        if not (0 <= target < base and 0 <= context < base):
            return -1
        key = context * base + target
        i = int(self._sorted_keys.searchsorted(key))
        if i < self._sorted_keys.size and int(self._sorted_keys[i]) == key:
            return int(self._key_order[i])
        return -1

    def label_slots(self, labels: np.ndarray, contexts: np.ndarray) -> np.ndarray:
        """Slot of each ``(context, label)`` edge: the vectorized :meth:`label_slot`.

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

    def label_slot(self, label: int, context: int) -> int:
        """Slot of the edge of ``context`` labelled ``label``; raises if there is none."""
        label, context = int(label), int(context)
        if 0 <= context < self._key_base:
            first, end = self._context_offsets[context : context + 2].tolist()
            if 1 <= label <= end - first:
                return first + label - 1
        raise QueryError(f"label {label} is undefined for context {context}")

    def label(self, target: int, context: int) -> int:
        """``phi(target | context)``; raises if the transition was never observed."""
        slot = self.edge_slot(target, context)
        if slot < 0:
            raise QueryError(f"phi({target} | {context}) is undefined (no ET-graph edge)")
        return slot - int(self._context_offsets[int(context)]) + 1

    def has_label(self, target: int, context: int) -> bool:
        """True when ``phi(target | context)`` is defined."""
        return self.edge_slot(target, context) >= 0

    def decode(self, label: int, context: int) -> int:
        """Inverse map: the target ``w`` with ``phi(w | context) == label``."""
        return int(self._targets[self.label_slot(label, context)])

    def labels_for_context(self, context: int) -> dict[int, int]:
        """Return ``{target: label}`` for every out-neighbour of ``context``."""
        context = int(context)
        if not 0 <= context < self._key_base:
            return {}
        first, end = self._context_offsets[context : context + 2].tolist()
        return {target: label for label, target in enumerate(self._targets[first:end].tolist(), 1)}

    def __len__(self) -> int:
        return int(self._targets.size)


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
    key_base = max(int(contexts.max()), int(targets.max())) + 1 if targets.size else 1
    context_offsets = np.zeros(key_base + 1, dtype=np.int64)
    np.cumsum(np.bincount(contexts, minlength=key_base), out=context_offsets[1:])
    return RMLFunction(context_offsets, targets)


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
