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

    The terms are held by slot, aligned with the edge slots of the
    :class:`~repro.core.rml.RMLFunction` they were computed for, so a batch
    of PseudoRank corrections is one gather and a single term is one slot
    lookup.
    """

    def __init__(self, rml: RMLFunction, by_slot: np.ndarray, text_length: int):
        self._rml = rml
        self._by_slot = by_slot
        self._text_length = text_length

    @property
    def by_slot(self) -> np.ndarray:
        """``Z`` of every ET-graph edge, indexed by its RML slot."""
        return self._by_slot

    def get(self, context: int, target: int) -> int:
        """Return ``Z_{context, target}``; raises for unobserved transitions."""
        slot = self._rml.edge_slot(target, context)
        if slot < 0:
            raise QueryError(f"no correction term for edge {context} -> {target}")
        return int(self._by_slot[slot])

    def __contains__(self, edge: tuple[int, int]) -> bool:
        return self._rml.edge_slot(edge[1], edge[0]) >= 0

    def __len__(self) -> int:
        return int(self._by_slot.size)

    def size_in_bits(self) -> int:
        """Each term is charged ``ceil(lg n)`` bits, stored once per ET-graph edge."""
        return len(self) * bits_needed(max(self._text_length - 1, 1))


def _ranks_at(sequence: np.ndarray, symbols: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """``rank_symbols[k](sequence, positions[k])`` for every ``k`` at once.

    Sorting the keys ``symbol * (n + 1) + position`` lays every symbol's
    occurrences out in position order, so a rank is the distance between two
    ``searchsorted`` probes into the symbol's run.
    """
    base = int(sequence.size) + 1
    keys = np.sort(sequence.astype(np.int64) * base + np.arange(sequence.size))
    first = symbols * base
    return np.searchsorted(keys, first + positions) - np.searchsorted(keys, first)


def compute_correction_terms(
    bwt: np.ndarray,
    labelled_bwt: np.ndarray,
    c_array: np.ndarray,
    rml: RMLFunction,
) -> CorrectionTerms:
    """Precompute ``Z_{w'w}`` for every ET-graph edge with whole-array passes.

    Both ranks in the definition of ``Z`` are taken at the context boundary
    ``C[w']``, so every RML slot (context ``w'``, label ``eta``, target
    ``w``) needs ``rank_eta(phi(Tbwt), C[w']) - rank_w(Tbwt, C[w'])``: one
    batched rank over each BWT.
    """
    offsets = rml.context_offsets
    contexts = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    targets = rml.targets
    labels = np.arange(len(rml)) - offsets[contexts] + 1
    boundaries = c_array[contexts]
    by_slot = _ranks_at(labelled_bwt, labels, boundaries) - _ranks_at(bwt, targets, boundaries)
    return CorrectionTerms(rml, by_slot, text_length=int(bwt.size))


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
