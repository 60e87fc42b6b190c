"""Tests for coherence graph construction, greedy pruning, and boosts."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import dijkstra

import kbtopics
from kbtopics.coherence import CoherenceGraph, CoherenceParams, build_similarity, greedy_prune
from kbtopics.errors import ConfigError
from kbtopics.expansion import ExpansionParams, Neighborhood
from kbtopics.index import Related
from kbtopics.kb import Iri
from kbtopics.selection import SelectionParams, aggregate

from oracles import (
    distances, expand, graph_of, prune_by_lists, similarity_by_pairs, topics_by_lists,
)


def iri(name: str) -> Iri:
    return Iri(f"http://example.org/{name}")


def interned(hoods: dict[Iri, Neighborhood]) -> Related:
    """Neighborhoods as an index holds them: one CSR row per seed, the seeds
    in IRI order so that a seed's row is its entity id, and the other
    entities numbered after them in order of first appearance, walking the
    neighborhoods in insertion order; ids as int32, as the index stores
    them."""
    seeds = sorted(hoods)
    ids = {seed: i for i, seed in enumerate(seeds)}
    for h in hoods.values():
        for e, _ in h.neighbors:
            ids.setdefault(e, len(ids))
    rows = [hoods[seed].neighbors for seed in seeds]
    return Related(np.cumsum([0] + [len(r) for r in rows]),
                   np.array([ids[e] for r in rows for e, _ in r], dtype=np.int32),
                   np.array([d for r in rows for _, d in r], dtype=np.float64))


def similarity_graph(candidates, hoods: dict[Iri, Neighborhood]) -> CoherenceGraph:
    """build_similarity of the candidates over the hoods, its nodes named by
    IRI again."""
    seeds = sorted(hoods)
    graph = build_similarity([seeds.index(c) for c in candidates], interned(hoods))
    return CoherenceGraph(tuple(seeds[p] for p in graph.nodes), graph.sim)


def graph_from_edges(nodes, edges: dict[tuple[Iri, Iri], float]) -> CoherenceGraph:
    """A graph over the sorted nodes with the given pair similarities."""
    nodes = tuple(sorted(nodes))
    pos = {e: i for i, e in enumerate(nodes)}
    sim = np.zeros((len(nodes), len(nodes)))
    for (a, b), value in edges.items():
        sim[pos[a], pos[b]] = sim[pos[b], pos[a]] = value
    return CoherenceGraph(nodes=nodes, sim=sim)


def prune(graph: CoherenceGraph, mentions, params: CoherenceParams) -> dict:
    """greedy_prune over per-mention lists of the graph's nodes, which may
    be any sorted names, as {node: boost}: the nodes become their positions
    and the lists the aligned (mention, entity) rows, and every row of a
    node must get the same boost."""
    mention = np.repeat(np.arange(len(mentions)), [len(m) for m in mentions]).astype(np.intp)
    entity = np.array([graph.nodes.index(e) for m in mentions for e in m], dtype=np.intp)
    boost = greedy_prune(CoherenceGraph(tuple(range(len(graph.nodes))), graph.sim),
                         mention, entity, params)
    assert boost.shape == entity.shape
    out: dict = {}
    for e, value in zip(entity.tolist(), boost.tolist()):
        assert out.setdefault(graph.nodes[e], value) == value
    return out


def similarity(graph: CoherenceGraph, a: Iri, b: Iri) -> float:
    """The similarity of a pair; 0 for a node with itself or an absent pair."""
    return graph.edges.get((min(a, b), max(a, b)), 0.0)


def hood(seed_name: str, entries: dict[str, float] | None = None) -> Neighborhood:
    seed = iri(seed_name)
    dists = {seed: 0.0}
    for name, d in (entries or {}).items():
        dists[iri(name)] = d
    pairs = tuple(sorted(dists.items(), key=lambda p: (p[1], p[0])))
    return Neighborhood(seed=seed, neighbors=pairs)


def oracle_distance(da: dict[Iri, float], db: dict[Iri, float]) -> float | None:
    shared = set(da) & set(db)
    if not shared:
        return None
    return min(da[x] + db[x] for x in shared)


class TestParams:
    def test_defaults(self):
        p = CoherenceParams()
        assert p.top_m_per_mention == 3
        assert p.min_keep == 1
        assert p.gamma == 0.25
        assert p.prune_fraction == 0.5
        assert p.enabled is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_keep": 0},
            {"top_m_per_mention": 1, "min_keep": 2},
            {"gamma": -0.1},
            {"gamma": math.nan},
            {"prune_fraction": 1.0},
            {"prune_fraction": -0.01},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            CoherenceParams(**kwargs)


class TestBuildSimilarity:
    def test_disjoint_neighborhoods_no_edges(self):
        hoods = {iri("a"): hood("a", {"x": 1.0}), iri("b"): hood("b", {"y": 1.0})}
        graph = similarity_graph(hoods.keys(), hoods)
        assert graph.edges == {}
        assert similarity(graph, iri("a"), iri("b")) == 0.0

    def test_direct_containment(self):
        # b itself is the shared entry: dist = 0.5 + 0
        hoods = {iri("a"): hood("a", {"b": 0.5}), iri("b"): hood("b")}
        graph = similarity_graph(hoods.keys(), hoods)
        assert similarity(graph, iri("a"), iri("b")) == pytest.approx(1 / 1.5)

    def test_shared_hub(self):
        hoods = {
            iri("a"): hood("a", {"hub": 1.0}),
            iri("b"): hood("b", {"hub": 1.0}),
            iri("c"): hood("c", {"hub": 2.0}),
        }
        graph = similarity_graph(hoods.keys(), hoods)
        assert similarity(graph, iri("a"), iri("b")) == pytest.approx(1 / 3)
        assert similarity(graph, iri("a"), iri("c")) == pytest.approx(1 / 4)
        assert similarity(graph, iri("b"), iri("c")) == pytest.approx(1 / 4)

    def test_takes_cheapest_shared_entry(self):
        hoods = {
            iri("a"): hood("a", {"x": 3.0, "y": 0.5}),
            iri("b"): hood("b", {"x": 0.1, "y": 0.6}),
        }
        graph = similarity_graph(hoods.keys(), hoods)
        assert similarity(graph, iri("a"), iri("b")) == pytest.approx(1 / 2.1)

    def test_self_similarity_zero(self):
        hoods = {iri("a"): hood("a", {"x": 1.0})}
        graph = similarity_graph(hoods.keys(), hoods)
        assert similarity(graph, iri("a"), iri("a")) == 0.0

    def test_symmetry_and_permutation_determinism(self):
        rng = random.Random(7)
        names = [f"c{i}" for i in range(8)]
        pool = [f"n{i}" for i in range(12)]
        hoods = {}
        for name in names:
            entries = {
                x: round(rng.uniform(0.1, 3.0), 3)
                for x in rng.sample(pool, rng.randint(0, 5))
            }
            hoods[iri(name)] = hood(name, entries)
        forward = similarity_graph([iri(n) for n in names], hoods)
        backward = similarity_graph([iri(n) for n in reversed(names)], hoods)
        assert forward.nodes == backward.nodes
        assert np.array_equal(forward.sim, backward.sim)
        for a in forward.nodes:
            for b in forward.nodes:
                assert similarity(forward, a, b) == similarity(forward, b, a)

    def test_matches_pair_oracle_on_random_neighborhoods(self):
        rng = random.Random(21)
        for _ in range(20):
            names = [f"c{i}" for i in range(6)]
            pool = [f"n{i}" for i in range(8)] + names
            hoods = {}
            for name in names:
                entries = {
                    x: round(rng.uniform(0.0, 2.5), 3)
                    for x in rng.sample(pool, rng.randint(0, 6))
                    if x != name
                }
                hoods[iri(name)] = hood(name, entries)
            graph = similarity_graph(hoods.keys(), hoods)
            for i, a in enumerate(graph.nodes):
                for b in graph.nodes[i + 1:]:
                    want = oracle_distance(
                        distances(hoods[a]), distances(hoods[b])
                    )
                    got = similarity(graph, a, b)
                    if want is None:
                        assert got == 0.0
                    else:
                        assert got == pytest.approx(1.0 / (1.0 + want))

    def test_upper_bounds_true_shortest_path(self):
        # the neighborhood meeting-point distance can overshoot but never
        # undershoot the true shortest path
        rng = random.Random(99)
        n = 20
        nodes = [iri(f"v{i:02d}") for i in range(n)]
        dense = np.zeros((n, n))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.2:
                    w = round(rng.uniform(0.2, 1.5), 3)
                    dense[i, j] = dense[j, i] = w
                    edges += [(nodes[i], nodes[j], w), (nodes[j], nodes[i], w)]
        weighted = graph_of(edges, nodes)
        params = ExpansionParams(max_depth=3, max_distance=4.0, max_neighbors=512)
        seeds = nodes[:8]
        hoods = {s: expand(weighted, s, params) for s in seeds}
        graph = similarity_graph(seeds, hoods)
        true = dijkstra(sp.csr_matrix(dense), directed=False)
        for (a, b), sim in graph.edges.items():
            approx = 1.0 / sim - 1.0
            truth = true[nodes.index(a), nodes.index(b)]
            assert approx >= truth - 1e-9


def assert_matches_pair_oracle(candidates, hoods):
    """build_similarity equals the pair-by-pair intersection bitwise."""
    graph = similarity_graph(candidates, hoods)
    want = similarity_by_pairs(candidates, hoods)
    assert graph.nodes == tuple(sorted(set(candidates)))
    assert graph.edges == want
    assert np.array_equal(graph.sim, graph_from_edges(graph.nodes, want).sim)


# sums of these such as 0.1 + 0.2 round, so a different pairing or order
# of additions would show in the last bit
DISTANCES = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 2.5]) | st.floats(0.0, 4.0)


@st.composite
def candidate_hoods(draw):
    names = [f"c{i}" for i in range(draw(st.integers(0, 7)))]
    pool = names + ["hub", "m0", "m1", "m2", "m3"]
    shared_hub = draw(st.booleans())
    hoods = {}
    # insertion order decides the ids interned() hands out to entities
    # other than the seeds
    for name in draw(st.permutations(names)):
        entries = draw(st.dictionaries(
            st.sampled_from(pool).filter(lambda x, seed=name: x != seed),
            DISTANCES, max_size=6))
        if shared_hub:
            entries.setdefault("hub", draw(DISTANCES))
        hoods[iri(name)] = hood(name, entries)
    repeats = draw(st.lists(st.sampled_from(names), max_size=4)) if names else []
    candidates = draw(st.permutations([iri(n) for n in names + repeats]))
    return candidates, hoods


class TestSimilarityOracle:
    @given(candidate_hoods())
    def test_matches_pair_oracle_bitwise(self, drawn):
        assert_matches_pair_oracle(*drawn)

    def test_no_nodes(self):
        graph = similarity_graph([], {})
        assert graph.nodes == () and graph.sim.shape == (0, 0)
        assert_matches_pair_oracle([], {})

    def test_one_node(self):
        hoods = {iri("a"): hood("a", {"x": 1.0})}
        graph = similarity_graph([iri("a")], hoods)
        assert graph.sim.tolist() == [[0.0]]
        assert_matches_pair_oracle([iri("a")], hoods)

    def test_seed_only_neighborhoods(self):
        hoods = {iri("a"): hood("a"), iri("b"): hood("b"),
                 iri("c"): hood("c", {"a": 0.5, "b": 1.0})}
        assert_matches_pair_oracle(list(hoods), hoods)
        graph = similarity_graph(hoods.keys(), hoods)
        assert set(graph.edges) == {(iri("a"), iri("c")), (iri("b"), iri("c"))}

    def test_duplicate_candidates(self):
        hoods = {iri("a"): hood("a", {"x": 0.1}), iri("b"): hood("b", {"x": 0.2})}
        candidates = [iri("a"), iri("b"), iri("a"), iri("b"), iri("b")]
        assert_matches_pair_oracle(candidates, hoods)
        assert similarity_graph(candidates, hoods).nodes == (iri("a"), iri("b"))

    def test_meeting_point_shared_by_many(self):
        steps = [0.1, 0.2, 0.3, 0.7, 0.1, 0.2, 0.3, 0.7]
        hoods = {iri(f"c{i}"): hood(f"c{i}", {"hub": d, f"own{i}": 0.05})
                 for i, d in enumerate(steps)}
        assert_matches_pair_oracle(list(hoods), hoods)
        graph = similarity_graph(hoods.keys(), hoods)
        assert len(graph.edges) == len(steps) * (len(steps) - 1) // 2
        assert similarity(graph, iri("c0"), iri("c1")) == 1.0 / (1.0 + (0.1 + 0.2))

    def test_input_order_permuted(self):
        rng = random.Random(5)
        hoods = {iri(f"c{i}"): hood(f"c{i}", {f"n{j}": 0.1 * j for j in rng.sample(range(9), 4)})
                 for i in range(8)}
        base = similarity_graph(hoods.keys(), hoods)
        for _ in range(5):
            order = list(hoods)
            rng.shuffle(order)
            again = similarity_graph(order[::-1], {e: hoods[e] for e in order})
            assert again.nodes == base.nodes
            assert np.array_equal(again.sim, base.sim)
            assert_matches_pair_oracle(order, hoods)


# scores whose products with boosts 1 + gamma * share can tie exactly
# (2.0 * 1.25 == 2.5 * 1.0), and whose sums round
SCORES = st.sampled_from([1.0, 2.0, 2.5, 4.0, 5.0, 0.1, 0.2, 0.3]) | st.floats(0.01, 10.0)
SIMS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.0 / 3.0, 1.0 / 1.3])


@st.composite
def rankings(draw):
    """Stage two's output for a few mentions, some without candidates, as
    aligned (mention, entity, score) arrays ordered as ``rank_mentions``
    orders them, and as (entity, score) lists per mention; a graph over the
    candidates, lemmas (maybe repeated) and parameters."""
    pool = draw(st.lists(st.integers(0, 40), unique=True, min_size=1, max_size=7))
    ranked = []
    for _ in range(draw(st.integers(0, 5))):
        picked = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))
        ranked.append(sorted(((e, draw(SCORES)) for e in picked),
                             key=lambda c: (-c[1], c[0])))
    rows = [(m, e, score) for m, candidates in enumerate(ranked) for e, score in candidates]
    mention = np.array([m for m, _, _ in rows], dtype=np.intp)
    entity = np.array([e for _, e, _ in rows], dtype=np.intp)
    score = np.array([score for _, _, score in rows], dtype=np.float64)
    nodes = tuple(sorted(set(entity.tolist())))
    sim = np.zeros((len(nodes), len(nodes)))
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            sim[i, j] = sim[j, i] = draw(SIMS)
    lemmas = [draw(st.sampled_from(["x", "y", "z"])) for _ in ranked]
    min_keep = draw(st.integers(1, 3))
    params = CoherenceParams(top_m_per_mention=3, min_keep=min_keep,
                             gamma=draw(st.sampled_from([0.0, 0.25, 1.0])),
                             prune_fraction=draw(st.sampled_from([0.0, 0.25, 0.5, 0.75])),
                             enabled=draw(st.booleans()))
    return mention, entity, score, CoherenceGraph(nodes, sim), lemmas, params, ranked


class TestArrayTail:
    @settings(max_examples=300, deadline=None)
    @given(rankings(), st.sampled_from([0.0, 0.2, 0.5]))
    def test_matches_list_reference(self, drawn, lambda_diversity):
        """greedy_prune and aggregate over the arrays give the list-based
        tail's topics, lemma sets and final scores bit for bit, with
        coherence on or off."""
        mention, entity, score, graph, lemmas, params, ranked = drawn
        selection = SelectionParams(lambda_diversity=lambda_diversity)
        effective, boosts = score, {}
        if params.enabled:
            effective = score * greedy_prune(graph, mention, entity, params)
            boosts = prune_by_lists(graph, [[e for e, _ in c] for c in ranked], params)
        got = aggregate(mention, entity, effective, lemmas, selection)
        want = topics_by_lists(ranked, boosts, lemmas, selection)
        assert [t._replace(final_score=t.final_score.hex()) for t in got] \
            == [t._replace(final_score=t.final_score.hex()) for t in want]

    def test_tied_winners_and_an_empty_ranking(self):
        # mention 0's candidates tie at 2.5 once position 3 is boosted by
        # 1.25; mention 1 has none; mention 2 repeats mention 0's lemma
        graph = graph_from_edges((3, 7, 9), {(3, 9): 0.5})
        mention, entity = np.array([0, 0, 2]), np.array([7, 3, 9])
        score = np.array([2.5, 2.0, 1.0])
        params = CoherenceParams(prune_fraction=0.0)
        boost = greedy_prune(graph, mention, entity, params)
        assert boost.tolist() == [1.0, 1.25, 1.25]
        topics = aggregate(mention, entity, score * boost, ["x", "y", "x"], SelectionParams())
        assert [(t.entity, t.final_score, t.supporting_lemmas) for t in topics] \
            == [(3, 2.5, {"x"}), (9, 1.25, {"x"})]
        ranked = [[(7, 2.5), (3, 2.0)], [], [(9, 1.0)]]
        assert topics == topics_by_lists(
            ranked, prune_by_lists(graph, [[7, 3], [], [9]], params), ["x", "y", "x"],
            SelectionParams())
        empty = np.zeros(0, dtype=np.intp)
        assert aggregate(empty, empty, np.zeros(0), ["x", "y"], SelectionParams()) == []


def line_graph(sims: dict[tuple[str, str], float]) -> CoherenceGraph:
    names = sorted({n for pair in sims for n in pair})
    edges = {}
    for (x, y), s in sims.items():
        a, b = sorted((iri(x), iri(y)))
        edges[(a, b)] = s
    return graph_from_edges([iri(n) for n in names], edges)


class TestGreedyPrune:
    def test_single_candidate(self):
        graph = graph_from_edges((iri("a"),), {})
        boosts = prune(graph, [[iri("a")]], CoherenceParams())
        assert boosts == {iri("a"): 1.0}

    def test_edgeless_graph_all_ones(self):
        nodes = (iri("a"), iri("b"), iri("c"))
        graph = graph_from_edges(nodes, {})
        boosts = prune(graph, [list(nodes)], CoherenceParams())
        assert boosts == {n: 1.0 for n in nodes}

    def test_triangle_with_isolated_node(self):
        sims = {("a", "b"): 0.5, ("a", "c"): 0.5, ("b", "c"): 0.5}
        graph = line_graph(sims)
        nodes = list(graph.nodes) + [iri("d")]
        graph = graph_from_edges(tuple(sorted(nodes)), graph.edges)
        params = CoherenceParams(prune_fraction=0.25)
        boosts = prune(graph, [nodes], params)
        assert boosts[iri("d")] == 1.0
        for name in "abc":
            assert boosts[iri(name)] == pytest.approx(1.25)

    def test_min_keep_blocks_all_removals(self):
        graph = line_graph({("a", "b"): 0.5})
        params = CoherenceParams(prune_fraction=0.5)
        boosts = prune(graph, [[iri("a")], [iri("b")]], params)
        # neither candidate is removable, both survive fully connected
        assert boosts[iri("a")] == pytest.approx(1.25)
        assert boosts[iri("b")] == pytest.approx(1.25)

    def test_protected_victim_is_skipped(self):
        sims = {("b", "c"): 0.5, ("b", "d"): 0.5, ("c", "d"): 0.5}
        graph = line_graph(sims)
        nodes = tuple(sorted(list(graph.nodes) + [iri("a")]))
        graph = graph_from_edges(nodes, graph.edges)
        mentions = [[iri("a")], [iri("b"), iri("c"), iri("d")]]
        params = CoherenceParams(prune_fraction=0.5)
        boosts = prune(graph, mentions, params)
        # a has the lowest connectivity but is its mention's only candidate;
        # b goes instead (lowest Iri among the equally connected triangle)
        assert boosts[iri("a")] == 1.0
        assert boosts[iri("b")] == 1.0
        assert boosts[iri("c")] == pytest.approx(1.25)
        assert boosts[iri("d")] == pytest.approx(1.25)

    def test_zero_fraction_removes_nothing(self):
        sims = {("a", "b"): 0.5, ("a", "c"): 0.5, ("b", "c"): 0.5}
        graph = line_graph(sims)
        nodes = tuple(sorted(list(graph.nodes) + [iri("d")]))
        graph = graph_from_edges(nodes, graph.edges)
        boosts = prune(graph, [list(nodes)], CoherenceParams(prune_fraction=0.0))
        assert boosts[iri("d")] == 1.0
        for name in "abc":
            assert boosts[iri(name)] == pytest.approx(1.25)

    def test_hand_simulated_chain(self):
        sims = {
            ("a", "b"): 0.9,
            ("b", "c"): 0.8,
            ("c", "d"): 0.7,
            ("d", "e"): 0.6,
        }
        graph = line_graph(sims)
        params = CoherenceParams(prune_fraction=0.5)
        boosts = prune(graph, [list(graph.nodes)], params)
        # budget floor(0.5*5)=2: e falls first (conn 0.6), then d (conn 0.7)
        assert boosts[iri("e")] == 1.0
        assert boosts[iri("d")] == 1.0
        assert boosts[iri("b")] == pytest.approx(1.25)
        assert boosts[iri("a")] == pytest.approx(1 + 0.25 * 0.9 / 1.7)
        assert boosts[iri("c")] == pytest.approx(1 + 0.25 * 0.8 / 1.7)

    def test_shared_candidate_decrements_all_mentions(self):
        graph = line_graph({("b", "c"): 0.5})
        nodes = tuple(sorted(list(graph.nodes) + [iri("a")]))
        graph = graph_from_edges(nodes, graph.edges)
        mentions = [[iri("a"), iri("b")], [iri("a"), iri("c")]]
        boosts = prune(graph, mentions, CoherenceParams(prune_fraction=0.5))
        assert boosts[iri("a")] == 1.0
        assert boosts[iri("b")] == pytest.approx(1.25)
        assert boosts[iri("c")] == pytest.approx(1.25)

    def test_removal_protects_a_mention_down_to_min_keep(self):
        graph = line_graph({("a", "c"): 0.2, ("b", "d"): 0.3, ("c", "d"): 0.9})
        mentions = [[iri("a"), iri("b")], [iri("c"), iri("d")]]
        boosts = prune(graph, mentions, CoherenceParams(prune_fraction=0.5))
        # budget floor(0.5 * 4) = 2: a falls first (conn 0.2), which leaves
        # b its mention's last candidate, so c falls next (0.9) and not b
        assert boosts == {iri("a"): 1.0, iri("b"): 1.25, iri("c"): 1.0, iri("d"): 1.25}

    def test_permutation_determinism(self):
        rng = random.Random(3)
        names = [f"e{i}" for i in range(10)]
        sims = {}
        for i, x in enumerate(names):
            for y in names[i + 1:]:
                if rng.random() < 0.4:
                    sims[(x, y)] = round(rng.uniform(0.05, 0.95), 3)
        graph = line_graph(sims)
        graph = graph_from_edges([iri(n) for n in names], graph.edges)
        mentions = [[iri(n) for n in names[:5]], [iri(n) for n in names[4:]]]
        base = prune(graph, mentions, CoherenceParams())
        shuffled = [list(m) for m in mentions]
        for m in shuffled:
            rng.shuffle(m)
        again = prune(graph, shuffled, CoherenceParams())
        assert base == again

    def test_boost_bounds(self):
        rng = random.Random(11)
        for _ in range(20):
            names = [f"e{i}" for i in range(rng.randint(1, 9))]
            sims = {}
            for i, x in enumerate(names):
                for y in names[i + 1:]:
                    if rng.random() < 0.5:
                        sims[(x, y)] = rng.uniform(0.01, 1.0)
            nodes = tuple(sorted(iri(n) for n in names))
            graph = graph_from_edges(nodes, line_graph(sims).edges if sims else {})
            gamma = rng.choice([0.0, 0.25, 1.0])
            params = CoherenceParams(
                gamma=gamma, prune_fraction=rng.choice([0.0, 0.25, 0.5])
            )
            boosts = prune(graph, [list(nodes)], params)
            assert set(boosts) == set(nodes)
            for value in boosts.values():
                assert 1.0 <= value <= 1.0 + gamma + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_every_boost_is_at_least_one(self, data):
        mention, entity, _, graph, _, params, _ = data.draw(rankings())
        boost = greedy_prune(graph, mention, entity, params)
        assert boost.shape == entity.shape and np.all(boost >= 1.0)

    def test_boosts_independent_of_hash_seed(self):
        # a's connectivity 0.1 + 0.2 + 0.3 is 0.6 or 0.6000000000000001 by
        # summation order, b's is 0.6: the order decides which one is pruned
        script = """
import numpy as np
from kbtopics.coherence import CoherenceGraph, CoherenceParams, greedy_prune
# nodes a, b, w, x, y, z at positions 0-5
sim = np.zeros((6, 6))
for i, j, value in ((0, 3, 0.1), (0, 4, 0.2), (0, 5, 0.3), (1, 2, 0.6)):
    sim[i, j] = sim[j, i] = value
mention = np.array([0, 0, 1, 2, 3, 4])
entity = np.array([0, 1, 2, 3, 4, 5])
params = CoherenceParams(prune_fraction=0.5)
print(repr(greedy_prune(CoherenceGraph(tuple(range(6)), sim), mention, entity, params).tolist()))
"""
        src = str(Path(kbtopics.__file__).resolve().parents[1])
        outputs = set()
        for seed in range(4):
            env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outputs.add(done.stdout)
        assert len(outputs) == 1, outputs


def winner(scores: dict[int, float], boosts: dict[int, float]) -> tuple[int, float]:
    """One mention's candidates (position: score), each score times its
    boost as the classifier multiplies them, and aggregate's pick: the
    winning position and its boosted score."""
    entity = np.array(sorted(scores), dtype=np.intp)
    score = np.array([scores[e] for e in entity.tolist()])
    effective = score * np.array([boosts[e] for e in entity.tolist()])
    [top] = aggregate(np.zeros(entity.shape[0], dtype=np.intp), entity, effective, ["x"],
                      SelectionParams())
    return top.entity, top.final_score


class TestApplyBoosts:
    """Boosts applied to stage two's scores: each row's score times its
    greedy_prune boost, and each mention's winner picked from the products."""

    def test_unit_boosts_keep_order(self):
        assert winner({0: 3.0, 1: 2.0}, {0: 1.0, 1: 1.0}) == (0, 3.0)

    def test_boost_swaps_order(self):
        entity, effective = winner({0: 10.0, 1: 9.0}, {0: 1.0, 1: 1.2})
        assert entity == 1 and effective == pytest.approx(10.8)

    def test_missing_boost_defaults_to_one(self):
        # a candidate without a connection keeps boost 1: its score as it was
        graph = graph_from_edges((0, 1, 2), {(1, 2): 0.5})
        boost = greedy_prune(graph, np.array([0, 0, 1]), np.array([0, 1, 2]),
                             CoherenceParams(prune_fraction=0.0))
        assert boost.tolist() == [1.0, 1.25, 1.25]
        assert (np.array([0.1 + 0.2, 1.0, 1.0]) * boost)[0] == 0.1 + 0.2

    def test_tie_after_boost_breaks_by_iri(self):
        # position 0 (the smaller IRI) and 1 tie at 5.0 after the boost
        assert winner({1: 5.0, 0: 4.0}, {0: 1.25, 1: 1.0}) == (0, 5.0)

    def test_empty_lists(self):
        empty = np.zeros(0, dtype=np.intp)
        graph = build_similarity(empty, Related(np.zeros(1, dtype=np.int64), empty, np.zeros(0)))
        assert graph.nodes == () and graph.edges == {}
        boost = greedy_prune(graph, empty, empty, CoherenceParams())
        assert boost.shape == (0,)
        assert aggregate(empty, empty, np.zeros(0) * boost, ["x"], SelectionParams()) == []
