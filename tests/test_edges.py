"""Edge weighting: link counts, group sizes, truncation, and the spill path."""

import math

import numpy as np
import pytest

from kbtopics.edges import (
    MIN_MEMORY_BUDGET,
    DirectedEdge,
    EdgeWeightParams,
    WeightedEdge,
    build_adjacency,
    compute_edge_weights,
    link_counts,
)
from kbtopics.errors import ConfigError, PipelineError
from kbtopics.kb import Iri, KnowledgeBase, Literal, PropertyRegistry, Triple

from oracles import group_cardinality

EX = "http://example.org/"


def iri(name: str) -> Iri:
    return Iri(EX + name)


def kb_from(spo_list, base_weights=None) -> KnowledgeBase:
    reg = PropertyRegistry(edge_base_weights={iri(p): w for p, w in (base_weights or {}).items()})
    triples = []
    for s, p, o in spo_list:
        obj = Literal(o[4:]) if isinstance(o, str) and o.startswith("lit:") else iri(o)
        triples.append(Triple(iri(s), iri(p), obj))
    return KnowledgeBase.from_triples(triples, reg)


def edge_key(we: WeightedEdge):
    return (we.edge.s, we.edge.p, we.edge.o, we.edge.d, we.weight)


def oracle_edges(kb: KnowledgeBase, params: EdgeWeightParams) -> list[WeightedEdge]:
    """Independent full-scan evaluation of the weighting rules."""
    links: dict[Iri, int] = {}
    for e in {t.subject for t in kb.triples} | {t.obj for t in kb.triples if isinstance(t.obj, Iri)}:
        links[e] = sum(1 for t in kb.triples if t.subject == e) + sum(
            1 for t in kb.triples if isinstance(t.obj, Iri) and t.obj == e
        )
    records = []
    for t in kb.triples:
        if isinstance(t.obj, Iri):
            records.append((t.subject, t.predicate, t.obj, "spo"))
            records.append((t.obj, t.predicate, t.subject, "ops"))
    out = []
    groups = sorted({(s, p, d) for s, p, d in ((r[0], r[1], r[3]) for r in records)})
    for s, p, d in groups:
        members = [r for r in records if r[0] == s and r[1] == p and r[3] == d]
        g = len(members)
        w_p = kb.registry.edge_base_weights.get(p, params.default_base_weight)
        scored = sorted(
            (w_p * links[o] ** params.f_l * g ** params.f_g, o)
            for _, _, o, _ in members
        )
        out.extend(
            WeightedEdge(DirectedEdge(s, p, o, d), w) for w, o in scored[: params.c_max]
        )
    return out


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
        assert counts == {iri("A"): 1, iri("B"): 2, iri("C"): 1}

    def test_absent_entity_defaults_to_zero(self):
        counts = link_counts(kb_from([("A", "p", "B")]))
        assert counts.get(iri("ghost"), 0) == 0

    def test_literal_triples_count_subject_only(self):
        kb = kb_from([("A", "label", "lit:apple"), ("A", "p", "B")])
        counts = link_counts(kb)
        assert counts[iri("A")] == 2
        assert counts[iri("B")] == 1

    def test_matches_double_scan_oracle_on_random_kb(self):
        rng = np.random.default_rng(101)
        kb = random_kb(rng)
        counts = link_counts(kb)
        for e in kb.entities:
            expected = sum(1 for t in kb.triples if t.subject == e) + sum(
                1 for t in kb.triples if isinstance(t.obj, Iri) and t.obj == e
            )
            assert counts[e] == expected


class TestGroupCardinality:
    def test_spo_group(self):
        kb = kb_from([("A", "p", "B"), ("A", "p", "C")])
        assert group_cardinality(kb, iri("A"), iri("p"), "spo") == 2

    def test_ops_group(self):
        kb = kb_from([("A", "p", "B")])
        assert group_cardinality(kb, iri("B"), iri("p"), "ops") == 1

    def test_singleton_group(self):
        kb = kb_from([("A", "p", "B"), ("A", "q", "C")])
        assert group_cardinality(kb, iri("A"), iri("p"), "spo") == 1

    def test_missing_group_raises(self):
        kb = kb_from([("A", "p", "B")])
        with pytest.raises(ValueError):
            group_cardinality(kb, iri("A"), iri("q"), "spo")

    def test_literal_objects_not_in_groups(self):
        kb = kb_from([("A", "p", "B"), ("A", "p", "lit:text")])
        assert group_cardinality(kb, iri("A"), iri("p"), "spo") == 1


class TestEdgeWeightParams:
    @pytest.mark.parametrize("kwargs", [
        dict(f_l=-0.1), dict(f_g=-1.0), dict(c_max=0), dict(default_base_weight=0.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            EdgeWeightParams(**kwargs)


class TestComputeEdgeWeights:
    def test_hand_evaluated_chain(self):
        kb = kb_from([("A", "p", "B"), ("B", "q", "C")],
                     base_weights={"p": 1.0, "q": 1.0})
        got = {edge_key(e)[:4]: e.weight for e in compute_edge_weights(kb)}
        root2 = math.sqrt(2)
        assert got[(iri("A"), iri("p"), iri("B"), "spo")] == pytest.approx(root2, abs=1e-8)
        assert got[(iri("B"), iri("p"), iri("A"), "ops")] == pytest.approx(1.0)
        assert got[(iri("B"), iri("q"), iri("C"), "spo")] == pytest.approx(1.0)
        assert got[(iri("C"), iri("q"), iri("B"), "ops")] == pytest.approx(root2, abs=1e-8)

    def test_zero_exponents_give_base_weights(self):
        kb = kb_from([("A", "p", "B"), ("A", "p", "C"), ("B", "q", "C")],
                     base_weights={"p": 0.25})
        params = EdgeWeightParams(f_l=0.0, f_g=0.0)
        for we in compute_edge_weights(kb, params):
            expected = 0.25 if we.edge.p == iri("p") else 2.0
            assert we.weight == expected

    def test_every_iri_triple_yields_two_edges_before_truncation(self):
        rng = np.random.default_rng(7)
        kb = random_kb(rng)
        n_iri = sum(1 for t in kb.triples if t.has_iri_object)
        edges = list(compute_edge_weights(kb, EdgeWeightParams(c_max=10**9)))
        assert len(edges) == 2 * n_iri

    def test_truncation_keeps_lowest_weights(self):
        # B01..B10 with increasing link counts, so ascending weights.
        triples = [("A", "p", f"B{i:02d}") for i in range(1, 11)]
        for i in range(1, 11):
            triples += [(f"B{i:02d}", "q", f"C{i:02d}x{j}") for j in range(i - 1)]
        kb = kb_from(triples, base_weights={"p": 1.0, "q": 1.0})
        survivors = [
            we for we in compute_edge_weights(kb)
            if we.edge.s == iri("A") and we.edge.d == "spo"
        ]
        assert sorted(we.edge.o for we in survivors) == [iri(f"B{i:02d}") for i in (1, 2, 3, 4)]

    def test_truncation_ties_break_lexicographically(self):
        kb = kb_from([("A", "p", f"B{i:02d}") for i in range(10)], base_weights={"p": 1.0})
        survivors = [we for we in compute_edge_weights(kb)
                     if we.edge.s == iri("A") and we.edge.d == "spo"]
        assert sorted(we.edge.o for we in survivors) == [iri(f"B{i:02d}") for i in range(4)]

    def test_matches_brute_force_oracle(self):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            kb = random_kb(rng, n_entities=15, n_triples=90)
            params = EdgeWeightParams()
            got = sorted(map(edge_key, compute_edge_weights(kb, params)))
            want = sorted(map(edge_key, oracle_edges(kb, params)))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g[:4] == w[:4]
                assert g[4] == pytest.approx(w[4], abs=1e-9)

    def test_monotone_in_links_and_group_size(self):
        rng = np.random.default_rng(42)
        kb = random_kb(rng, n_entities=10, n_triples=40)
        params = EdgeWeightParams(c_max=10**9)
        before = {edge_key(e)[:4]: e.weight for e in compute_edge_weights(kb, params)}
        grown = KnowledgeBase.from_triples(
            list(kb.triples) + [Triple(iri("e01"), iri("p0"), iri("e02"))],
            kb.registry,
        )
        after = {edge_key(e)[:4]: e.weight for e in compute_edge_weights(grown, params)}
        for key, w in before.items():
            assert after[key] >= w - 1e-12


class TestSpillPath:
    def test_budget_below_minimum_rejected(self):
        kb = kb_from([("A", "p", "B")])
        with pytest.raises(ConfigError):
            list(compute_edge_weights(kb, memory_budget=MIN_MEMORY_BUDGET - 1))

    def test_spill_matches_in_memory_exactly(self, tmp_path):
        rng = np.random.default_rng(11)
        kb = random_kb(rng, n_entities=25, n_triples=200)
        in_mem = sorted(map(edge_key, compute_edge_weights(kb)))
        spilled = sorted(map(edge_key, compute_edge_weights(
            kb, memory_budget=MIN_MEMORY_BUDGET, spill_dir=tmp_path)))
        assert in_mem == spilled  # weights bit-identical, not just close

    def test_spill_cleans_up(self, tmp_path):
        kb = kb_from([("A", "p", "B")])
        list(compute_edge_weights(kb, memory_budget=MIN_MEMORY_BUDGET, spill_dir=tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_unusable_spill_dir_is_pipeline_error(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not dir")
        kb = kb_from([("A", "p", "B")])
        with pytest.raises(PipelineError):
            list(compute_edge_weights(kb, memory_budget=MIN_MEMORY_BUDGET,
                                      spill_dir=blocker))

    def test_deterministic_across_runs(self):
        kb = random_kb(np.random.default_rng(5))
        first = list(map(edge_key, compute_edge_weights(kb)))
        second = list(map(edge_key, compute_edge_weights(kb)))
        assert first == second


class TestBuildAdjacency:
    def test_parallel_edges_keep_minimum(self):
        a, b = iri("A"), iri("B")
        edges = [
            WeightedEdge(DirectedEdge(a, iri("p"), b, "spo"), 2.0),
            WeightedEdge(DirectedEdge(a, iri("q"), b, "spo"), 0.5),
        ]
        assert build_adjacency(edges) == {a: ((b, 0.5),)}

    def test_rows_sorted_by_weight_then_target(self):
        a = iri("A")
        edges = [
            WeightedEdge(DirectedEdge(a, iri("p"), iri("C"), "spo"), 1.0),
            WeightedEdge(DirectedEdge(a, iri("p"), iri("B"), "spo"), 1.0),
            WeightedEdge(DirectedEdge(a, iri("p"), iri("D"), "spo"), 0.1),
        ]
        assert build_adjacency(edges)[a] == ((iri("D"), 0.1), (iri("B"), 1.0), (iri("C"), 1.0))
