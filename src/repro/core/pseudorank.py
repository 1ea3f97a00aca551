"""PseudoRank: simulating rank over the original BWT from the labelled BWT.

Theorem 2 of the paper: for an ET-graph edge ``(w', w)`` with label
``eta = phi(w | w')`` and any ``j`` with ``C[w'] <= j <= C[w'+1]``,

    ``rank_w(Tbwt, j) = rank_eta(phi(Tbwt), j) - Z_{w'w}``

where the correction term

    ``Z_{w'w} = rank_eta(phi(Tbwt), C[w']) - rank_w(Tbwt, C[w'])``

does not depend on ``j`` and can therefore be precomputed once per edge and
attached to the ET-graph.  This module computes the correction terms and
provides the PseudoRank operation (Algorithm 2).
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from ..exceptions import QueryError
from ..succinct import bits_needed
from .rml import RMLFunction


class _RankStructure(Protocol):
    """Anything that can answer ``rank(symbol, i)`` over the labelled BWT."""

    def rank(self, symbol: int, i: int) -> int: ...


class CorrectionTerms:
    """The per-edge correction terms ``Z_{w'w}`` of Theorem 2.

    :attr:`by_slot` holds the same terms aligned with the edge slots of the
    :class:`~repro.core.rml.RMLFunction` they were computed for, so a batch
    of PseudoRank corrections is one gather.
    """

    def __init__(
        self, terms: dict[tuple[int, int], int], text_length: int, by_slot: np.ndarray
    ):
        self._terms = terms
        self._text_length = text_length
        self._by_slot = by_slot

    @property
    def by_slot(self) -> np.ndarray:
        """``Z`` of every ET-graph edge, indexed by its RML slot."""
        return self._by_slot

    def get(self, context: int, target: int) -> int:
        """Return ``Z_{context, target}``; raises for unobserved transitions."""
        try:
            return self._terms[(int(context), int(target))]
        except KeyError:
            raise QueryError(f"no correction term for edge {context} -> {target}") from None

    def __contains__(self, edge: tuple[int, int]) -> bool:
        return (int(edge[0]), int(edge[1])) in self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def size_in_bits(self) -> int:
        """Each term is charged ``ceil(lg n)`` bits, stored once per ET-graph edge."""
        return len(self._terms) * bits_needed(max(self._text_length - 1, 1))


def compute_correction_terms(
    bwt: np.ndarray,
    labelled_bwt: np.ndarray,
    c_array: np.ndarray,
    rml: RMLFunction,
) -> CorrectionTerms:
    """Precompute ``Z_{w'w}`` for every ET-graph edge in a single pass.

    Both ranks in the definition of ``Z`` are taken at the context boundary
    ``C[w']``.  Within the context block of ``w'`` the labelled and original
    symbols are in one-to-one correspondence, so a single left-to-right sweep
    that maintains running occurrence counts of original symbols and labels is
    enough: at each boundary ``C[w']`` we snapshot
    ``label_count[eta] - symbol_count[w]`` for every out-neighbour ``w``.
    """
    n = int(bwt.size)
    sigma = int(c_array.size - 1)
    max_label = rml.max_label
    symbol_counts = np.zeros(sigma, dtype=np.int64)
    label_counts = np.zeros(max_label + 1, dtype=np.int64)

    terms: dict[tuple[int, int], int] = {}
    by_slot = [0] * len(rml)
    offsets = rml.context_offsets.tolist()
    position = 0
    for context in range(sigma):
        boundary = int(c_array[context])
        while position < boundary:
            symbol_counts[int(bwt[position])] += 1
            label_counts[int(labelled_bwt[position])] += 1
            position += 1
        if int(c_array[context + 1]) == boundary:
            continue  # context never occurs; no edges to label
        for target, label in rml.labels_for_context(context).items():
            z = int(label_counts[label]) - int(symbol_counts[target])
            terms[(context, target)] = z
            by_slot[offsets[context] + label - 1] = z
    return CorrectionTerms(terms, text_length=n, by_slot=np.asarray(by_slot, dtype=np.int64))


def pseudo_rank(
    labelled_rank_structure: _RankStructure,
    j: int,
    target: int,
    context: int,
    rml: RMLFunction,
    corrections: CorrectionTerms,
    c_array: np.ndarray,
) -> int:
    """Algorithm 2: ``rank_target(Tbwt, j)`` computed from the labelled BWT only.

    Raises
    ------
    QueryError
        If ``target`` is not an out-neighbour of ``context`` or ``j`` lies
        outside ``[C[context], C[context+1]]`` (the preconditions of
        Theorem 2, which Algorithm 3 guarantees before calling).
    """
    if not rml.has_label(target, context):
        raise QueryError(f"{target} is not an out-neighbour of {context}")
    lower = int(c_array[context])
    upper = int(c_array[context + 1])
    if not lower <= j <= upper:
        raise QueryError(f"position {j} outside the context range [{lower}, {upper}]")
    label = rml.label(target, context)
    return labelled_rank_structure.rank(label, j) - corrections.get(context, target)
