"""Edge weighting: link counts, group sizes, truncation."""

import math
from collections import defaultdict

import numpy as np
import pytest

from kbtopics.edges import EdgeWeightParams, compute_edge_weights, link_counts
from kbtopics.errors import ConfigError
from kbtopics.kb import Iri, KnowledgeBase, Literal, PropertyRegistry, Triple

from oracles import edges_by_scan, group_cardinality, link_counts_by_scan, objects_of, triples_of

EX = "http://example.org/"


def iri(name: str) -> Iri:
    return Iri(EX + name)


def kb_from(spo_list, base_weights=None) -> KnowledgeBase:
    reg = PropertyRegistry(edge_base_weights={iri(p): w for p, w in (base_weights or {}).items()})
    triples = []
    for s, p, o in spo_list:
        obj = Literal(o[4:]) if isinstance(o, str) and o.startswith("lit:") else iri(o)
        triples.append(Triple(iri(s), iri(p), obj))
    return KnowledgeBase.intern(triples, reg)


def weighted(kb: KnowledgeBase, params: EdgeWeightParams | None = None
             ) -> list[tuple[Iri, Iri, float]]:
    """compute_edge_weights' edges as sorted (source, target, weight)."""
    g = compute_edge_weights(kb, link_counts(kb), params)
    name = g.entities.__getitem__
    return sorted(zip(map(name, g.sources.tolist()), map(name, g.targets.tolist()),
                      g.weights.tolist()))


def random_kb(rng: np.random.Generator, n_entities=20, n_triples=120) -> KnowledgeBase:
    triples = []
    for _ in range(n_triples):
        s = int(rng.integers(n_entities))
        o = int(rng.integers(n_entities))
        p = int(rng.integers(3))
        triples.append((f"e{s:02d}", f"p{p}", f"e{o:02d}"))
    for _ in range(n_triples // 6):
        s = int(rng.integers(n_entities))
        triples.append((f"e{s:02d}", "label", "lit:some text"))
    return kb_from(triples, base_weights={"p0": 0.5, "p1": 1.0})


class TestLinkCounts:
    def test_two_triple_chain(self):
        kb = kb_from([("A", "p", "B"), ("B", "q", "C")])
        counts = link_counts(kb)
        assert kb.entities == [iri("A"), iri("B"), iri("C")]
        assert counts.tolist() == [1, 2, 1]

    def test_absent_entity_defaults_to_zero(self):
        kb = kb_from([("A", "p", "B")])
        counts = link_counts(kb)
        assert counts.shape == (len(kb.entities),) and counts.dtype == np.int64
        assert dict(zip(kb.entities, counts.tolist())).get(iri("ghost"), 0) == 0

    def test_literal_triples_count_subject_only(self):
        kb = kb_from([("A", "label", "lit:apple"), ("A", "p", "B")])
        counts = dict(zip(kb.entities, link_counts(kb).tolist()))
        assert counts[iri("A")] == 2
        assert counts[iri("B")] == 1

    def test_matches_double_scan_oracle_on_random_kb(self):
        rng = np.random.default_rng(101)
        kb = random_kb(rng)
        counts = link_counts(kb)
        assert dict(zip(kb.entities, counts.tolist())) == link_counts_by_scan(objects_of(kb))


class TestGroupCardinality:
    def test_spo_group(self):
        kb = kb_from([("A", "p", "B"), ("A", "p", "C")])
        assert group_cardinality(objects_of(kb), iri("A"), iri("p"), "spo") == 2

    def test_ops_group(self):
        kb = kb_from([("A", "p", "B")])
        assert group_cardinality(objects_of(kb), iri("B"), iri("p"), "ops") == 1

    def test_singleton_group(self):
        kb = kb_from([("A", "p", "B"), ("A", "q", "C")])
        assert group_cardinality(objects_of(kb), iri("A"), iri("p"), "spo") == 1

    def test_missing_group_raises(self):
        kb = kb_from([("A", "p", "B")])
        with pytest.raises(ValueError):
            group_cardinality(objects_of(kb), iri("A"), iri("q"), "spo")

    def test_literal_objects_not_in_groups(self):
        kb = kb_from([("A", "p", "B"), ("A", "p", "lit:text")])
        assert group_cardinality(objects_of(kb), iri("A"), iri("p"), "spo") == 1


class TestEdgeWeightParams:
    @pytest.mark.parametrize("kwargs", [
        dict(f_l=-0.1), dict(f_g=-1.0), dict(c_max=0), dict(default_base_weight=0.0),
        dict(f_l=float("nan")), dict(f_g=float("nan")), dict(f_l=float("inf")),
        dict(default_base_weight=float("nan")), dict(default_base_weight=float("inf")),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            EdgeWeightParams(**kwargs)


class TestComputeEdgeWeights:
    def test_hand_evaluated_chain(self):
        kb = kb_from([("A", "p", "B"), ("B", "q", "C")],
                     base_weights={"p": 1.0, "q": 1.0})
        got = {(s, t): w for s, t, w in weighted(kb)}
        root2 = math.sqrt(2)
        assert got == {
            (iri("A"), iri("B")): pytest.approx(root2, abs=1e-8),  # spo p
            (iri("B"), iri("A")): pytest.approx(1.0),              # ops p
            (iri("B"), iri("C")): pytest.approx(1.0),              # spo q
            (iri("C"), iri("B")): pytest.approx(root2, abs=1e-8),  # ops q
        }

    def test_zero_exponents_give_base_weights(self):
        kb = kb_from([("A", "p", "B"), ("A", "p", "C"), ("B", "q", "C")],
                     base_weights={"p": 0.25})
        params = EdgeWeightParams(f_l=0.0, f_g=0.0)
        q_pairs = {(iri("B"), iri("C")), (iri("C"), iri("B"))}
        edges = weighted(kb, params)
        assert len(edges) == 6
        for s, t, w in edges:
            assert w == (2.0 if (s, t) in q_pairs else 0.25)

    def test_every_iri_triple_yields_two_edges_before_truncation(self):
        rng = np.random.default_rng(7)
        kb = random_kb(rng)
        n_iri = int((kb.object_ids >= 0).sum())
        assert len(weighted(kb, EdgeWeightParams(c_max=10**9))) == 2 * n_iri

    def test_truncation_keeps_lowest_weights(self):
        # B01..B10 with increasing link counts, so ascending weights.
        triples = [("A", "p", f"B{i:02d}") for i in range(1, 11)]
        for i in range(1, 11):
            triples += [(f"B{i:02d}", "q", f"C{i:02d}x{j}") for j in range(i - 1)]
        kb = kb_from(triples, base_weights={"p": 1.0, "q": 1.0})
        survivors = [t for s, t, _ in weighted(kb) if s == iri("A")]
        assert sorted(survivors) == [iri(f"B{i:02d}") for i in (1, 2, 3, 4)]

    def test_truncation_ties_break_lexicographically(self):
        kb = kb_from([("A", "p", f"B{i:02d}") for i in range(10)], base_weights={"p": 1.0})
        survivors = [t for s, t, _ in weighted(kb) if s == iri("A")]
        assert sorted(survivors) == [iri(f"B{i:02d}") for i in range(4)]

    def test_matches_brute_force_oracle(self):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            kb = random_kb(rng, n_entities=15, n_triples=90)
            params = EdgeWeightParams()
            # exact: the same float operations in the same order
            assert weighted(kb, params) == edges_by_scan(objects_of(kb), params)

    def test_monotone_in_links_and_group_size(self):
        rng = np.random.default_rng(42)
        kb = random_kb(rng, n_entities=10, n_triples=40)
        params = EdgeWeightParams(c_max=10**9)
        added = Triple(iri("e01"), iri("p0"), iri("e02"))
        grown = KnowledgeBase.intern(triples_of(kb) + (added,), kb.registry)
        before, after = defaultdict(list), defaultdict(list)
        for s, t, w in weighted(kb, params):
            before[s, t].append(w)
        for s, t, w in weighted(grown, params):
            after[s, t].append(w)
        # the pairs the added triple joins gain an edge; every other pair
        # keeps its edges, none cheaper
        for pair, ws in before.items():
            if set(pair) == {iri("e01"), iri("e02")}:
                continue
            assert len(after[pair]) == len(ws)
            for w0, w1 in zip(sorted(ws), sorted(after[pair])):
                assert w1 >= w0 - 1e-12

    def test_deterministic_across_runs(self):
        kb = random_kb(np.random.default_rng(5))
        first = compute_edge_weights(kb, link_counts(kb))
        second = compute_edge_weights(kb, link_counts(kb))
        assert first.entities == second.entities
        for a, b in zip(first[1:], second[1:]):
            assert a.tolist() == b.tolist()

    def test_ids_number_the_entities_in_iri_order(self):
        kb = random_kb(np.random.default_rng(8))
        g = compute_edge_weights(kb, link_counts(kb))
        assert g.entities is kb.entities
        assert g.entities == sorted(g.entities)
        assert g.sources.dtype == g.targets.dtype == np.int64
        assert g.weights.dtype == np.float64
