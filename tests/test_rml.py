"""Tests for relative movement labeling (RML) and its optimality."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import empirical_entropy_h0
from repro.core import ETGraph, RMLFunction, build_rml, label_bwt, labelled_entropy
from repro.exceptions import ConstructionError, QueryError


@pytest.fixture(scope="module")
def paper_graph(paper_trajectory_string):
    return ETGraph(paper_trajectory_string.text, sigma=paper_trajectory_string.sigma)


@pytest.fixture(scope="module")
def paper_rml(paper_graph):
    return build_rml(paper_graph, strategy="bigram")


@pytest.fixture(scope="module")
def medium_graph(medium_bwt):
    return ETGraph(medium_bwt.text, sigma=medium_bwt.sigma)


class TestRequirement:
    """The RML function must be one-to-one per context (Section III-B1)."""

    def test_one_to_one_per_context(self, medium_graph):
        rml = build_rml(medium_graph, strategy="bigram")
        for context in medium_graph.contexts():
            labels = rml.labels_for_context(context)
            assert len(set(labels.values())) == len(labels)
            assert set(labels.values()) == set(range(1, len(labels) + 1))

    def test_random_strategy_also_one_to_one(self, medium_graph):
        rml = build_rml(medium_graph, strategy="random", rng=np.random.default_rng(3))
        for context in medium_graph.contexts():
            labels = rml.labels_for_context(context)
            assert len(set(labels.values())) == len(labels)

    def test_decode_inverts_label(self, medium_graph):
        sigma = medium_graph.sigma
        # Every (context, target) pair over the alphabet plus out-of-range -1/sigma.
        grid_contexts, grid_targets = np.divmod(np.arange((sigma + 2) ** 2), sigma + 2)
        grid_contexts, grid_targets = grid_contexts - 1, grid_targets - 1
        for strategy in ("bigram", "random"):
            rml = build_rml(medium_graph, strategy=strategy, rng=np.random.default_rng(5))
            edges = []
            for context in medium_graph.contexts():
                for target, label in rml.labels_for_context(context).items():
                    assert rml.decode(label, context) == target
                    assert rml.label(target, context) == label
                    edges.append((context, target, label))
            # The slot arrays answer the same lookups, every edge at once.
            contexts, targets, labels = (np.asarray(column) for column in zip(*edges))
            slots = rml.edge_slots(targets, contexts)
            assert sorted(slots.tolist()) == list(range(len(rml)))
            assert np.array_equal(rml.targets[slots], targets)
            assert np.array_equal(rml.label_slots(labels, contexts), slots)
            assert np.array_equal(slots - rml.context_offsets[contexts] + 1, labels)
            # Every bigram without a label comes out dead.
            dead = rml.edge_slots(grid_targets, grid_contexts) < 0
            assert dead.tolist() == [
                not rml.has_label(int(t), int(c)) for c, t in zip(grid_contexts, grid_targets)
            ]

    def test_undefined_transition_raises(self, paper_rml, paper_trajectory_string):
        alphabet = paper_trajectory_string.alphabet
        b, a = alphabet.encode("B"), alphabet.encode("A")
        assert not paper_rml.has_label(a, b)  # B is never followed by A
        with pytest.raises(QueryError):
            paper_rml.label(a, b)
        with pytest.raises(QueryError):
            paper_rml.decode(99, b)
        assert paper_rml.edge_slots([a], [b]).tolist() == [-1]
        with pytest.raises(QueryError):
            paper_rml.label_slots([1, 99], [b, b])
        with pytest.raises(QueryError):
            paper_rml.label_slots([0], [b])

    def test_labels_must_be_dense_per_context(self):
        """Slot offsets must tile the targets: labels 1 .. out-degree per context."""
        targets = np.asarray([1, 2, 3])
        for offsets in ([0, 2, 1, 3], [1, 2, 3], [0, 1, 2]):
            with pytest.raises(ConstructionError):
                RMLFunction(np.asarray(offsets), targets)

    def test_max_label_bounded_by_max_out_degree(self, medium_graph):
        rml = build_rml(medium_graph, strategy="bigram")
        assert rml.max_label == medium_graph.max_out_degree()


class TestPaperExample:
    def test_most_frequent_successor_gets_label_one(self, paper_trajectory_string, paper_rml):
        alphabet = paper_trajectory_string.alphabet
        a, b, d = (alphabet.encode(x) for x in "ABD")
        # n_{BA} = 2 > n_{DA} = 1, so phi(B|A) = 1 and phi(D|A) = 2 (Fig. 6a).
        assert paper_rml.label(b, a) == 1
        assert paper_rml.label(d, a) == 2

    def test_labelled_bwt_entropy_drops(self, paper_bwt, paper_rml):
        labelled = label_bwt(paper_bwt.bwt, paper_bwt.c_array, paper_rml)
        h_original = empirical_entropy_h0(paper_bwt.bwt)
        h_labelled = empirical_entropy_h0(labelled)
        # The paper reports 2.8 -> 0.7 bits for this example.
        assert h_original == pytest.approx(2.8, abs=0.1)
        assert h_labelled == pytest.approx(0.7, abs=0.1)

    def test_labelled_bwt_alphabet_is_tiny(self, paper_bwt, paper_rml):
        labelled = label_bwt(paper_bwt.bwt, paper_bwt.c_array, paper_rml)
        assert labelled.min() >= 1
        assert labelled.max() <= paper_rml.max_label


class TestLabelBWT:
    def test_every_position_labelled(self, medium_bwt):
        graph = ETGraph(medium_bwt.text, sigma=medium_bwt.sigma)
        rml = build_rml(graph)
        labelled = label_bwt(medium_bwt.bwt, medium_bwt.c_array, rml)
        assert labelled.shape == medium_bwt.bwt.shape
        assert int(labelled.min()) >= 1

    def test_label_counts_preserved_within_context(self, medium_bwt):
        """Within a context block the labelled and original symbols are a bijection."""
        graph = ETGraph(medium_bwt.text, sigma=medium_bwt.sigma)
        rml = build_rml(graph)
        labelled = label_bwt(medium_bwt.bwt, medium_bwt.c_array, rml)
        c = medium_bwt.c_array
        for context in range(medium_bwt.sigma):
            start, end = int(c[context]), int(c[context + 1])
            if start == end:
                continue
            original_block = medium_bwt.bwt[start:end]
            labelled_block = labelled[start:end]
            mapping = rml.labels_for_context(context)
            expected = [mapping[int(s)] for s in original_block]
            assert list(labelled_block) == expected


class TestOptimality:
    """Theorem 3: bigram-sorted labelling minimises H0 over all labellings."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_bigram_beats_random(self, medium_bwt, seed):
        graph = ETGraph(medium_bwt.text, sigma=medium_bwt.sigma)
        optimal = build_rml(graph, strategy="bigram")
        random_rml = build_rml(graph, strategy="random", rng=np.random.default_rng(seed))
        h_optimal = labelled_entropy(label_bwt(medium_bwt.bwt, medium_bwt.c_array, optimal))
        h_random = labelled_entropy(label_bwt(medium_bwt.bwt, medium_bwt.c_array, random_rml))
        assert h_optimal <= h_random + 1e-9

    def test_bigram_beats_unigram_ordering(self, medium_bwt):
        """Theorem 6 via emulation: the MEL-style (unigram) ordering cannot win."""
        graph = ETGraph(medium_bwt.text, sigma=medium_bwt.sigma)
        counts = np.bincount(medium_bwt.text, minlength=medium_bwt.sigma)
        optimal = build_rml(graph, strategy="bigram")
        unigram = build_rml(graph, strategy="unigram", unigram_counts=counts)
        h_optimal = labelled_entropy(label_bwt(medium_bwt.bwt, medium_bwt.c_array, optimal))
        h_unigram = labelled_entropy(label_bwt(medium_bwt.bwt, medium_bwt.c_array, unigram))
        assert h_optimal <= h_unigram + 1e-9

    def test_labelled_entropy_below_original(self, medium_bwt):
        """Eq. 10: H0(phi(Tbwt)) << H0(Tbwt) on trajectory-like data."""
        graph = ETGraph(medium_bwt.text, sigma=medium_bwt.sigma)
        rml = build_rml(graph)
        labelled = label_bwt(medium_bwt.bwt, medium_bwt.c_array, rml)
        assert empirical_entropy_h0(labelled) < empirical_entropy_h0(medium_bwt.bwt)


class TestStrategies:
    def test_unknown_strategy_rejected(self, medium_graph):
        with pytest.raises(ConstructionError):
            build_rml(medium_graph, strategy="magic")  # type: ignore[arg-type]

    def test_unigram_requires_counts(self, medium_graph):
        with pytest.raises(ConstructionError):
            build_rml(medium_graph, strategy="unigram")

    def test_random_strategy_is_seeded(self, medium_graph):
        first = build_rml(medium_graph, strategy="random", rng=np.random.default_rng(7))
        second = build_rml(medium_graph, strategy="random", rng=np.random.default_rng(7))
        for context in medium_graph.contexts():
            assert first.labels_for_context(context) == second.labels_for_context(context)

    def test_len_counts_edges(self, medium_graph):
        rml = build_rml(medium_graph)
        assert len(rml) == medium_graph.n_edges

    def test_labelled_entropy_of_empty(self):
        assert labelled_entropy([]) == 0.0
