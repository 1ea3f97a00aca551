"""Tests for PseudoRank (Theorem 2) and the correction terms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ETGraph, build_rml, compute_correction_terms, label_bwt, pseudo_rank
from repro.exceptions import QueryError
from repro.wavelet import HuffmanWaveletTree


@pytest.fixture(scope="module")
def machinery(medium_bwt):
    """ET-graph, RML, labelled BWT, corrections and an HWT over the labels."""
    graph = ETGraph(medium_bwt.text, sigma=medium_bwt.sigma)
    rml = build_rml(graph)
    labelled = label_bwt(medium_bwt.bwt, medium_bwt.c_array, rml)
    corrections = compute_correction_terms(medium_bwt.bwt, labelled, medium_bwt.c_array, rml)
    tree = HuffmanWaveletTree(labelled)
    return graph, rml, labelled, corrections, tree


def true_rank(bwt: np.ndarray, symbol: int, j: int) -> int:
    return int(np.count_nonzero(bwt[:j] == symbol))


class TestCorrectionTerms:
    def test_one_term_per_et_edge(self, machinery, medium_bwt):
        graph, _, _, corrections, _ = machinery
        assert len(corrections) == graph.n_edges

    def test_membership(self, machinery):
        graph, _, _, corrections, _ = machinery
        edge = next(iter(graph.edges()))
        assert (edge.context, edge.target) in corrections
        assert (10**6, 10**6) not in corrections

    def test_unknown_edge_raises(self, machinery):
        _, _, _, corrections, _ = machinery
        with pytest.raises(QueryError):
            corrections.get(10**6, 10**6)

    @pytest.mark.parametrize("strategy", ["bigram", "random", "unigram"])
    def test_definition_of_z(self, medium_bwt, strategy):
        """Z_{w'w} = rank_eta(phi(Tbwt), C[w']) - rank_w(Tbwt, C[w'])  (Eq. 7)."""
        graph = ETGraph(medium_bwt.text, sigma=medium_bwt.sigma)
        rml = build_rml(
            graph,
            strategy=strategy,
            rng=np.random.default_rng(3),
            unigram_counts=medium_bwt.counts,
        )
        labelled = label_bwt(medium_bwt.bwt, medium_bwt.c_array, rml)
        corrections = compute_correction_terms(
            medium_bwt.bwt, labelled, medium_bwt.c_array, rml
        )
        c = medium_bwt.c_array
        assert len(corrections) == graph.n_edges
        for edge in graph.edges():
            eta = rml.label(edge.target, edge.context)
            boundary = int(c[edge.context])
            expected = true_rank(labelled, eta, boundary) - true_rank(
                medium_bwt.bwt, edge.target, boundary
            )
            assert corrections.get(edge.context, edge.target) == expected
            slot = rml.edge_slots([edge.target], [edge.context])[0]
            assert corrections.by_slot[slot] == expected

    def test_size_in_bits(self, machinery):
        graph, _, _, corrections, _ = machinery
        assert corrections.size_in_bits() >= len(corrections)


class TestTheorem2:
    """PseudoRank equals the true rank for every valid (w, j) pair."""

    def test_pseudo_rank_equals_true_rank(self, machinery, medium_bwt):
        graph, rml, _, corrections, tree = machinery
        c = medium_bwt.c_array
        checked = 0
        for edge in list(graph.edges())[:60]:
            lower, upper = int(c[edge.context]), int(c[edge.context + 1])
            positions = {lower, upper, (lower + upper) // 2, lower + 1 if lower + 1 <= upper else upper}
            for j in positions:
                expected = true_rank(medium_bwt.bwt, edge.target, j)
                got = pseudo_rank(tree, j, edge.target, edge.context, rml, corrections, c)
                assert got == expected
                checked += 1
        assert checked > 0

    def test_balancing_equation(self, machinery, medium_bwt):
        """Eq. 5: rank differences of symbol and label agree inside a context."""
        graph, rml, labelled, _, _ = machinery
        c = medium_bwt.c_array
        for edge in list(graph.edges())[:40]:
            eta = rml.label(edge.target, edge.context)
            lower, upper = int(c[edge.context]), int(c[edge.context + 1])
            j = (lower + upper) // 2
            lhs = true_rank(medium_bwt.bwt, edge.target, j) - true_rank(
                medium_bwt.bwt, edge.target, lower
            )
            rhs = true_rank(labelled, eta, j) - true_rank(labelled, eta, lower)
            assert lhs == rhs

    def test_precondition_violation_target_not_neighbour(self, machinery, medium_bwt):
        graph, rml, _, corrections, tree = machinery
        c = medium_bwt.c_array
        context = graph.contexts()[0]
        non_neighbour = None
        for candidate in range(medium_bwt.sigma):
            if not graph.has_edge(context, candidate):
                non_neighbour = candidate
                break
        assert non_neighbour is not None
        with pytest.raises(QueryError):
            pseudo_rank(tree, int(c[context]), non_neighbour, context, rml, corrections, c)

    def test_precondition_violation_position_outside_context(self, machinery, medium_bwt):
        graph, rml, _, corrections, tree = machinery
        c = medium_bwt.c_array
        edge = next(iter(graph.edges()))
        bad_position = int(c[edge.context + 1]) + 1
        if bad_position <= medium_bwt.length:
            with pytest.raises(QueryError):
                pseudo_rank(tree, bad_position, edge.target, edge.context, rml, corrections, c)


class TestPaperExamplePseudoRank:
    def test_exhaustive_on_paper_example(self, paper_bwt):
        """Every valid (edge, j) pair on the 16-symbol example (Fig. 8)."""
        graph = ETGraph(paper_bwt.text, sigma=paper_bwt.sigma)
        rml = build_rml(graph)
        labelled = label_bwt(paper_bwt.bwt, paper_bwt.c_array, rml)
        corrections = compute_correction_terms(paper_bwt.bwt, labelled, paper_bwt.c_array, rml)
        tree = HuffmanWaveletTree(labelled)
        c = paper_bwt.c_array
        for edge in graph.edges():
            for j in range(int(c[edge.context]), int(c[edge.context + 1]) + 1):
                expected = true_rank(paper_bwt.bwt, edge.target, j)
                got = pseudo_rank(tree, j, edge.target, edge.context, rml, corrections, c)
                assert got == expected
