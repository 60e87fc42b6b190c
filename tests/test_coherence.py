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
from scipy.sparse.csgraph import dijkstra

import kbtopics
from kbtopics.coherence import (
    CoherenceGraph,
    CoherenceParams,
    apply_boosts,
    build_similarity,
    greedy_prune,
)
from kbtopics.errors import ConfigError, PipelineError
from kbtopics.expansion import ExpansionParams, Neighborhood, expand
from kbtopics.kb import Iri
from kbtopics.ranking import ScoredCandidate


def iri(name: str) -> Iri:
    return Iri(f"http://example.org/{name}")


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
        graph = build_similarity(hoods.keys(), hoods)
        assert graph.edges == {}
        assert graph.similarity(iri("a"), iri("b")) == 0.0

    def test_direct_containment(self):
        # b itself is the shared entry: dist = 0.5 + 0
        hoods = {iri("a"): hood("a", {"b": 0.5}), iri("b"): hood("b")}
        graph = build_similarity(hoods.keys(), hoods)
        assert graph.similarity(iri("a"), iri("b")) == pytest.approx(1 / 1.5)

    def test_shared_hub(self):
        hoods = {
            iri("a"): hood("a", {"hub": 1.0}),
            iri("b"): hood("b", {"hub": 1.0}),
            iri("c"): hood("c", {"hub": 2.0}),
        }
        graph = build_similarity(hoods.keys(), hoods)
        assert graph.similarity(iri("a"), iri("b")) == pytest.approx(1 / 3)
        assert graph.similarity(iri("a"), iri("c")) == pytest.approx(1 / 4)
        assert graph.similarity(iri("b"), iri("c")) == pytest.approx(1 / 4)

    def test_takes_cheapest_shared_entry(self):
        hoods = {
            iri("a"): hood("a", {"x": 3.0, "y": 0.5}),
            iri("b"): hood("b", {"x": 0.1, "y": 0.6}),
        }
        graph = build_similarity(hoods.keys(), hoods)
        assert graph.similarity(iri("a"), iri("b")) == pytest.approx(1 / 2.1)

    def test_self_similarity_zero(self):
        hoods = {iri("a"): hood("a", {"x": 1.0})}
        graph = build_similarity(hoods.keys(), hoods)
        assert graph.similarity(iri("a"), iri("a")) == 0.0

    def test_missing_neighborhood_raises(self):
        with pytest.raises(PipelineError):
            build_similarity([iri("a")], {})

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
        forward = build_similarity([iri(n) for n in names], hoods)
        backward = build_similarity([iri(n) for n in reversed(names)], hoods)
        assert forward == backward
        for a in forward.nodes:
            for b in forward.nodes:
                assert forward.similarity(a, b) == forward.similarity(b, a)

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
            graph = build_similarity(hoods.keys(), hoods)
            for i, a in enumerate(graph.nodes):
                for b in graph.nodes[i + 1:]:
                    want = oracle_distance(
                        hoods[a].distances(), hoods[b].distances()
                    )
                    got = graph.similarity(a, b)
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
        adjacency: dict[Iri, list[tuple[Iri, float]]] = {u: [] for u in nodes}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.2:
                    w = round(rng.uniform(0.2, 1.5), 3)
                    dense[i, j] = dense[j, i] = w
                    adjacency[nodes[i]].append((nodes[j], w))
                    adjacency[nodes[j]].append((nodes[i], w))
        adj = {
            u: tuple(sorted(vs, key=lambda p: (p[1], p[0])))
            for u, vs in adjacency.items()
        }
        params = ExpansionParams(max_depth=3, max_distance=4.0, max_neighbors=512)
        seeds = nodes[:8]
        hoods = {s: expand(adj, s, params) for s in seeds}
        graph = build_similarity(seeds, hoods)
        true = dijkstra(sp.csr_matrix(dense), directed=False)
        for (a, b), sim in graph.edges.items():
            approx = 1.0 / sim - 1.0
            truth = true[nodes.index(a), nodes.index(b)]
            assert approx >= truth - 1e-9


def line_graph(sims: dict[tuple[str, str], float]) -> CoherenceGraph:
    names = sorted({n for pair in sims for n in pair})
    edges = {}
    for (x, y), s in sims.items():
        a, b = sorted((iri(x), iri(y)))
        edges[(a, b)] = s
    return CoherenceGraph(nodes=tuple(iri(n) for n in names), edges=edges)


class TestGreedyPrune:
    def test_single_candidate(self):
        graph = CoherenceGraph(nodes=(iri("a"),), edges={})
        boosts = greedy_prune(graph, [[iri("a")]], CoherenceParams())
        assert boosts == {iri("a"): 1.0}

    def test_edgeless_graph_all_ones(self):
        nodes = (iri("a"), iri("b"), iri("c"))
        graph = CoherenceGraph(nodes=nodes, edges={})
        boosts = greedy_prune(graph, [list(nodes)], CoherenceParams())
        assert boosts == {n: 1.0 for n in nodes}

    def test_triangle_with_isolated_node(self):
        sims = {("a", "b"): 0.5, ("a", "c"): 0.5, ("b", "c"): 0.5}
        graph = line_graph(sims)
        nodes = list(graph.nodes) + [iri("d")]
        graph = CoherenceGraph(nodes=tuple(sorted(nodes)), edges=graph.edges)
        params = CoherenceParams(prune_fraction=0.25)
        boosts = greedy_prune(graph, [nodes], params)
        assert boosts[iri("d")] == 1.0
        for name in "abc":
            assert boosts[iri(name)] == pytest.approx(1.25)

    def test_min_keep_blocks_all_removals(self):
        graph = line_graph({("a", "b"): 0.5})
        params = CoherenceParams(prune_fraction=0.5)
        boosts = greedy_prune(graph, [[iri("a")], [iri("b")]], params)
        # neither candidate is removable, both survive fully connected
        assert boosts[iri("a")] == pytest.approx(1.25)
        assert boosts[iri("b")] == pytest.approx(1.25)

    def test_protected_victim_is_skipped(self):
        sims = {("b", "c"): 0.5, ("b", "d"): 0.5, ("c", "d"): 0.5}
        graph = line_graph(sims)
        nodes = tuple(sorted(list(graph.nodes) + [iri("a")]))
        graph = CoherenceGraph(nodes=nodes, edges=graph.edges)
        mentions = [[iri("a")], [iri("b"), iri("c"), iri("d")]]
        params = CoherenceParams(prune_fraction=0.5)
        boosts = greedy_prune(graph, mentions, params)
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
        graph = CoherenceGraph(nodes=nodes, edges=graph.edges)
        boosts = greedy_prune(
            graph, [list(nodes)], CoherenceParams(prune_fraction=0.0)
        )
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
        boosts = greedy_prune(graph, [list(graph.nodes)], params)
        # budget floor(0.5*5)=2: e falls first (conn 0.6), then d (conn 0.7)
        assert boosts[iri("e")] == 1.0
        assert boosts[iri("d")] == 1.0
        assert boosts[iri("b")] == pytest.approx(1.25)
        assert boosts[iri("a")] == pytest.approx(1 + 0.25 * 0.9 / 1.7)
        assert boosts[iri("c")] == pytest.approx(1 + 0.25 * 0.8 / 1.7)

    def test_shared_candidate_decrements_all_mentions(self):
        graph = line_graph({("b", "c"): 0.5})
        nodes = tuple(sorted(list(graph.nodes) + [iri("a")]))
        graph = CoherenceGraph(nodes=nodes, edges=graph.edges)
        mentions = [[iri("a"), iri("b")], [iri("a"), iri("c")]]
        boosts = greedy_prune(graph, mentions, CoherenceParams(prune_fraction=0.5))
        assert boosts[iri("a")] == 1.0
        assert boosts[iri("b")] == pytest.approx(1.25)
        assert boosts[iri("c")] == pytest.approx(1.25)

    def test_permutation_determinism(self):
        rng = random.Random(3)
        names = [f"e{i}" for i in range(10)]
        sims = {}
        for i, x in enumerate(names):
            for y in names[i + 1:]:
                if rng.random() < 0.4:
                    sims[(x, y)] = round(rng.uniform(0.05, 0.95), 3)
        graph = line_graph(sims)
        graph = CoherenceGraph(
            nodes=tuple(sorted(iri(n) for n in names)), edges=graph.edges
        )
        mentions = [[iri(n) for n in names[:5]], [iri(n) for n in names[4:]]]
        base = greedy_prune(graph, mentions, CoherenceParams())
        shuffled = [list(m) for m in mentions]
        for m in shuffled:
            rng.shuffle(m)
        again = greedy_prune(graph, shuffled, CoherenceParams())
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
            graph = CoherenceGraph(
                nodes=nodes, edges=line_graph(sims).edges if sims else {}
            )
            gamma = rng.choice([0.0, 0.25, 1.0])
            params = CoherenceParams(
                gamma=gamma, prune_fraction=rng.choice([0.0, 0.25, 0.5])
            )
            boosts = greedy_prune(graph, [list(nodes)], params)
            assert set(boosts) == set(nodes)
            for value in boosts.values():
                assert 1.0 <= value <= 1.0 + gamma + 1e-12

    def test_boosts_independent_of_hash_seed(self):
        # a's connectivity 0.1 + 0.2 + 0.3 is 0.6 or 0.6000000000000001 by
        # summation order, b's is 0.6: the order decides which one is pruned
        script = """
from kbtopics.coherence import CoherenceGraph, CoherenceParams, greedy_prune
from kbtopics.kb import Iri
iri = lambda n: Iri("http://example.org/" + n)
edges = {(iri("a"), iri("x")): 0.1, (iri("a"), iri("y")): 0.2,
         (iri("a"), iri("z")): 0.3, (iri("b"), iri("w")): 0.6}
nodes = tuple(sorted({n for pair in edges for n in pair}))
mentions = [[iri("a"), iri("b")]] + [[iri(n)] for n in "wxyz"]
params = CoherenceParams(prune_fraction=0.5)
print(repr(greedy_prune(CoherenceGraph(nodes, edges), mentions, params)))
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


def cand(name: str, score: float, mention: int = 0) -> ScoredCandidate:
    return ScoredCandidate(entity=iri(name), mention_index=mention, score=score)


class TestApplyBoosts:
    def test_unit_boosts_keep_order(self):
        ranked = [[cand("a", 3.0), cand("b", 2.0)]]
        out = apply_boosts(ranked, {iri("a"): 1.0, iri("b"): 1.0})
        assert [c.entity for c in out[0]] == [iri("a"), iri("b")]
        assert [c.effective for c in out[0]] == [3.0, 2.0]

    def test_boost_swaps_order(self):
        ranked = [[cand("a", 10.0), cand("b", 9.0)]]
        out = apply_boosts(ranked, {iri("a"): 1.0, iri("b"): 1.2})
        assert [c.entity for c in out[0]] == [iri("b"), iri("a")]
        assert out[0][0].effective == pytest.approx(10.8)

    def test_missing_boost_defaults_to_one(self):
        ranked = [[cand("a", 5.0)]]
        out = apply_boosts(ranked, {})
        assert out[0][0].boost == 1.0

    def test_tie_after_boost_breaks_by_iri(self):
        ranked = [[cand("b", 5.0), cand("a", 4.0)]]
        out = apply_boosts(ranked, {iri("a"): 1.25, iri("b"): 1.0})
        assert [c.effective for c in out[0]] == [5.0, 5.0]
        assert [c.entity for c in out[0]] == [iri("a"), iri("b")]

    def test_rejects_boost_below_one(self):
        with pytest.raises(ValueError):
            apply_boosts([[cand("a", 1.0)]], {iri("a"): 0.9})

    def test_empty_lists(self):
        assert apply_boosts([], {}) == []
        assert apply_boosts([[]], {iri("a"): 1.5}) == [[]]
