"""Neighborhood expansion against shortest-path and path-enumeration oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from kbtopics import expansion
from kbtopics.edges import Related
from kbtopics.errors import ConfigError
from kbtopics.expansion import ExpansionParams, Neighborhood, expand_all
from kbtopics.kb import Iri

from oracles import adjacency_of, distances, expand, expand_by_labels, expand_iris, graph_of

EX = "http://example.org/"


def iri(name) -> Iri:
    return Iri(EX + str(name))


def graph(*edges, seeds=()):
    """A graph from (source, target, weight) triples of names, over their
    endpoints and ``seeds``."""
    return graph_of(((iri(s), iri(t), w) for s, t, w in edges), map(iri, seeds))


def enumerate_paths_oracle(edge_list, seed, max_depth, max_distance):
    """Minimal cost per node over all paths with <= max_depth edges.

    Layered dynamic program: layer k holds the cheapest cost of reaching each
    node in exactly k hops. Weights are nonnegative, so a cheaper prefix at
    the same depth dominates for every continuation and the per-layer minimum
    is exact.
    """
    out = {seed: 0.0}
    frontier = {seed: 0.0}
    for _ in range(max_depth):
        nxt = {}
        for node, cost in frontier.items():
            for s, t, w in edge_list:
                if s != node or cost + w > max_distance:
                    continue
                nc = cost + w
                if t not in nxt or nc < nxt[t]:
                    nxt[t] = nc
                if t not in out or nc < out[t]:
                    out[t] = nc
        frontier = nxt
    return out


class TestParams:
    @pytest.mark.parametrize("kwargs", [
        dict(max_depth=0), dict(max_distance=0.0), dict(max_neighbors=0),
        dict(max_distance=float("nan")),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            ExpansionParams(**kwargs)


class TestExpand:
    CHAIN = [("A", "B", 0.5), ("B", "C", 0.5), ("C", "D", 0.5)]

    def test_depth_limited_chain(self):
        nbh = expand(graph(*self.CHAIN), iri("A"),
                     ExpansionParams(max_depth=2, max_distance=10.0))
        assert distances(nbh) == {iri("A"): 0.0, iri("B"): 0.5, iri("C"): 1.0}

    def test_distance_limited_chain(self):
        nbh = expand(graph(*self.CHAIN), iri("A"),
                     ExpansionParams(max_depth=10, max_distance=1.2))
        assert distances(nbh) == {iri("A"): 0.0, iri("B"): 0.5, iri("C"): 1.0}

    def test_distance_cap_is_inclusive(self):
        nbh = expand(graph(("A", "B", 1.0)), iri("A"),
                     ExpansionParams(max_depth=3, max_distance=1.0))
        assert iri("B") in distances(nbh)

    def test_isolated_seed(self):
        nbh = expand(graph(seeds=["lonely"]), iri("lonely"))
        assert nbh.neighbors == ((iri("lonely"), 0.0),)

    def test_seed_first_and_sorted(self):
        nbh = expand(graph(("A", "C", 0.7), ("A", "B", 0.7), ("A", "D", 0.2)), iri("A"))
        assert nbh.neighbors[0] == (iri("A"), 0.0)
        assert nbh.neighbors == (
            (iri("A"), 0.0), (iri("D"), 0.2), (iri("B"), 0.7), (iri("C"), 0.7))

    def test_deep_cheap_path_wins_but_shallow_route_still_explored(self):
        # S->A direct costs 1.0; S->B->A costs 0.2 but uses both hops, so T
        # (one hop past A) is only reachable through the expensive route.
        g = graph(("S", "A", 1.0), ("S", "B", 0.1), ("B", "A", 0.1), ("A", "T", 1.0))
        nbh = expand(g, iri("S"), ExpansionParams(max_depth=2, max_distance=4.0))
        assert distances(nbh) == {
            iri("S"): 0.0, iri("B"): 0.1, iri("A"): 0.2, iri("T"): 2.0}

    def test_cycle_terminates(self):
        g = graph(("A", "B", 0.1), ("B", "A", 0.1))
        nbh = expand(g, iri("A"), ExpansionParams(max_depth=50, max_distance=100.0))
        assert distances(nbh) == {iri("A"): 0.0, iri("B"): 0.1}

    def test_neighbor_cap_keeps_closest(self):
        edges = [("S", f"L{i:02d}", 0.1 * (i + 1)) for i in range(10)]
        nbh = expand(graph(*edges), iri("S"),
                     ExpansionParams(max_depth=3, max_distance=100.0, max_neighbors=5))
        assert len(nbh) == 5
        assert [e for e, _ in nbh.neighbors] == [
            iri("S"), iri("L00"), iri("L01"), iri("L02"), iri("L03")]

    def test_parallel_edges_keep_minimum(self):
        # the same pair joined twice, as by two predicates: the cheaper edge
        # decides, the other changes nothing
        params = ExpansionParams(max_depth=2, max_distance=3.0)
        cheapest = expand(graph(("A", "B", 0.5), ("B", "C", 1.0)), iri("A"), params)
        for parallel in [("A", "B", 2.0), ("A", "B", 0.5)]:
            both = expand(graph(parallel, ("A", "B", 0.5), ("B", "C", 1.0)), iri("A"), params)
            assert bits(both) == bits(cheapest)
        assert distances(cheapest) == {iri("A"): 0.0, iri("B"): 0.5, iri("C"): 1.5}

    def test_independent_of_edge_iteration_order(self):
        rng = np.random.default_rng(3)
        edges = [(f"n{int(rng.integers(8))}", f"n{int(rng.integers(8))}",
                  round(float(rng.uniform(0.1, 1.0)), 3)) for _ in range(30)]
        base = expand(graph(*edges, seeds=["n0"]), iri("n0"))
        for perm_seed in range(3):
            shuffled = list(edges)
            np.random.default_rng(perm_seed).shuffle(shuffled)
            assert expand(graph(*shuffled, seeds=["n0"]), iri("n0")) == base


def random_edges(rng, n_nodes, n_edges):
    seen = {}
    for _ in range(n_edges):
        s, t = int(rng.integers(n_nodes)), int(rng.integers(n_nodes))
        if s == t:
            continue
        w = float(rng.uniform(0.05, 1.5))
        key = (s, t)
        if key not in seen or w < seen[key]:
            seen[key] = w
    return [(f"n{s:03d}", f"n{t:03d}", w) for (s, t), w in seen.items()]


class TestAgainstShortestPathOracle:
    def test_unbounded_depth_equals_dijkstra(self):
        for seed in (10, 20, 30):
            rng = np.random.default_rng(seed)
            n = 60
            edges = random_edges(rng, n, 400)
            max_distance = 2.3456
            nbh = expand(graph(*edges, seeds=["n000"]), iri("n000"),
                         ExpansionParams(max_depth=n, max_distance=max_distance))
            index = {f"n{i:03d}": i for i in range(n)}
            mat = np.zeros((n, n))
            for s, t, w in edges:
                mat[index[s], index[t]] = w
            dist = dijkstra(csr_matrix(mat), indices=0)
            want = {
                iri(f"n{i:03d}"): dist[i]
                for i in range(n)
                if dist[i] <= max_distance
            }
            got = distances(nbh)
            assert set(got) == set(want)
            for k, v in want.items():
                assert got[k] == pytest.approx(v, abs=1e-9)

    def test_depth_bounded_equals_path_enumeration(self):
        for seed in (1, 2, 3, 4):
            rng = np.random.default_rng(seed)
            edges = random_edges(rng, 9, 28)
            params = ExpansionParams(max_depth=3, max_distance=2.0)
            got = distances(expand(graph(*edges, seeds=["n000"]), iri("n000"), params))
            raw = [(iri(s), iri(t), w) for s, t, w in edges]
            want = enumerate_paths_oracle(raw, iri("n000"),
                                          params.max_depth, params.max_distance)
            assert got == pytest.approx(want, abs=1e-9)


class TestExpandAll:
    def test_matches_individual_expand(self):
        rng = np.random.default_rng(9)
        edges = random_edges(rng, 12, 50)
        g = graph(*edges)
        entities = sorted({iri(s) for s, _, _ in edges} | {iri(t) for _, t, _ in edges})
        result = expand_iris(g, entities)
        assert set(result) == set(entities)
        for e in entities:
            assert result[e] == expand(g, e)

    def test_empty_entities(self):
        assert expand_all(*graph(), []) == {}

    def test_rows_follow_the_seed_ids(self):
        g = graph(("A", "B", 0.5), ("C", "A", 0.25), seeds=["D"])
        result = expand_all(*g, np.array([2, 0, 3]))
        assert result.seeds.tolist() == [2, 0, 3]
        assert list(result) == [iri("C"), iri("A"), iri("D")]
        assert result.indptr.tolist() == [0, 3, 5, 6]
        assert result.ids.tolist() == [2, 0, 1, 0, 1, 3]
        assert result.distances.tolist() == [0.0, 0.25, 0.75, 0.0, 0.5, 0.0]

    def test_disconnected_components_never_mix(self):
        g = graph(("A", "B", 0.1), ("X", "Y", 0.1))
        result = expand_iris(g, [iri("A"), iri("X")])
        assert set(distances(result[iri("A")])) == {iri("A"), iri("B")}
        assert set(distances(result[iri("X")])) == {iri("X"), iri("Y")}


def bits(nbh: Neighborhood) -> list[tuple[str, str]]:
    """A neighborhood with its distances as exact bit patterns."""
    return [(str(e), d.hex()) for e, d in nbh.neighbors]


# few distinct weights, all exact in binary, so that paths often tie
TIED_WEIGHTS = st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5])
EDGES = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                           st.one_of(TIED_WEIGHTS, st.floats(0.01, 2.0))), max_size=60)


class TestAgainstLabelSettingOracle:
    @settings(max_examples=150, deadline=None)
    @given(EDGES, st.integers(1, 4), st.floats(0.3, 4.0), st.integers(1, 14),
           st.lists(st.integers(0, 15), min_size=1, max_size=8))
    @example([(0, 1, 0.5), (0, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5), (0, 4, 1.0)],
             3, 4.0, 3, [0])  # three entities tie at 1.0 around the cut
    @example([(0, 1, 0.25), (1, 0, 0.25)], 50, 10.0, 5, [0, 1, 13])  # depth far past diameter
    def test_bitwise_equal(self, edges, max_depth, max_distance, max_neighbors, seeds):
        # seeds 12..15 are in no edge, and some of 0..11 may not be either;
        # a pair listed twice is joined by parallel edges
        g = graph(*[(f"n{s:02d}", f"n{t:02d}", w) for s, t, w in edges],
                  seeds=[f"n{s:02d}" for s in seeds])
        seed_iris = [iri(f"n{s:02d}") for s in seeds]
        params = ExpansionParams(max_depth=max_depth, max_distance=max_distance,
                                 max_neighbors=max_neighbors)
        got = expand_iris(g, seed_iris, params)
        assert list(got) == list(dict.fromkeys(seed_iris))
        for seed in seed_iris:
            assert bits(got[seed]) == bits(expand_by_labels(adjacency_of(g), seed, params))
            assert got[seed] == expand(g, seed, params)

    def test_bitwise_equal_on_random_weights(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            edges = random_edges(rng, 40, 160)
            g = graph(*edges, seeds=[f"n{i:03d}" for i in range(40)])
            params = ExpansionParams(max_depth=int(rng.integers(1, 6)),
                                     max_distance=float(rng.uniform(0.5, 4.0)),
                                     max_neighbors=int(rng.integers(1, 40)))
            seeds = [iri(f"n{i:03d}") for i in range(40)]
            got = expand_iris(g, seeds, params)
            for s in seeds:
                assert bits(got[s]) == bits(expand_by_labels(adjacency_of(g), s, params))

    def test_cut_inside_a_tie_keeps_the_lowest_iris(self):
        g = graph(("S", "c", 0.5), ("S", "a", 0.5), ("S", "b", 0.5), ("S", "d", 0.25))
        nbh = expand(g, iri("S"), ExpansionParams(max_neighbors=3))
        assert nbh.neighbors == ((iri("S"), 0.0), (iri("d"), 0.25), (iri("a"), 0.5))

    def test_seed_absent_from_the_edges(self):
        g = graph(("A", "B", 0.5), seeds=["ghost"])
        result = expand_iris(g, [iri("ghost"), iri("A")])
        assert result[iri("ghost")].neighbors == ((iri("ghost"), 0.0),)
        assert result[iri("A")].neighbors == ((iri("A"), 0.0), (iri("B"), 0.5))

    def test_chunks_change_nothing(self, monkeypatch):
        rng = np.random.default_rng(5)
        g = graph(*random_edges(rng, 30, 120), seeds=[f"n{i:03d}" for i in range(30)])
        seeds = [iri(f"n{i:03d}") for i in range(30)]
        whole = expand_iris(g, seeds)
        monkeypatch.setattr(expansion, "SEED_CHUNK", 4)
        chunked = expand_iris(g, seeds)
        assert [bits(chunked[s]) for s in seeds] == [bits(whole[s]) for s in seeds]
        assert chunked.indptr.tolist() == whole.indptr.tolist()

    @pytest.mark.parametrize("weight", [float("nan"), -0.5])
    def test_edge_weight_must_be_a_nonnegative_number(self, weight):
        with pytest.raises(ConfigError, match="nonnegative"):
            expand_all(Related(np.array([0, 1, 1]), np.array([1]), np.array([weight])),
                       [iri("A"), iri("B")], [0])
