"""Document-global score adjustment via graph coherence.

Candidates that sit close together in the knowledge graph are assumed to
describe the same document context. Pair proximity is approximated from the
candidates' precomputed neighborhoods, weakly connected candidates are pruned
greedily, and the survivors' scores are boosted in proportion to how strongly
they connect to the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, PipelineError
from .expansion import Neighborhood
from .kb import Iri
from .ranking import ScoredCandidate


@dataclass(frozen=True)
class CoherenceParams:
    top_m_per_mention: int = 3
    min_keep: int = 1
    gamma: float = 0.25
    prune_fraction: float = 0.5
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.min_keep < 1:
            raise ConfigError(f"min_keep must be at least 1, got {self.min_keep}")
        if self.top_m_per_mention < self.min_keep:
            raise ConfigError(
                "top_m_per_mention must be at least min_keep, got "
                f"{self.top_m_per_mention} < {self.min_keep}"
            )
        if not math.isfinite(self.gamma) or self.gamma < 0:
            raise ConfigError(f"gamma must be a nonnegative real, got {self.gamma}")
        if not 0.0 <= self.prune_fraction < 1.0:
            raise ConfigError(
                f"prune_fraction must lie in [0, 1), got {self.prune_fraction}"
            )


@dataclass(frozen=True)
class CoherenceGraph:
    """Sparse symmetric similarity over a document's candidate entities.

    Edges are stored once under the lexicographically smaller endpoint first;
    absent pairs have similarity 0.
    """

    nodes: tuple[Iri, ...]
    edges: Mapping[tuple[Iri, Iri], float]

    def similarity(self, a: Iri, b: Iri) -> float:
        if a == b:
            return 0.0
        key = (a, b) if a < b else (b, a)
        return self.edges.get(key, 0.0)


def build_similarity(
    candidates: Iterable[Iri],
    neighborhoods: Mapping[Iri, Neighborhood],
) -> CoherenceGraph:
    """Connect candidate pairs whose neighborhoods overlap.

    The pair distance is the cheapest meeting point: min over shared entries
    x of dist_a(x) + dist_b(x). Since each neighborhood contains its own seed
    at 0, this is an upper bound on the true path length between the seeds.
    Similarity is 1/(1+dist), so closer pairs score higher, capped at 1.
    """
    nodes = tuple(sorted(set(candidates)))
    distance_maps: dict[Iri, dict[Iri, float]] = {}
    for node in nodes:
        hood = neighborhoods.get(node)
        if hood is None:
            raise PipelineError(f"no cached neighborhood for candidate {node}")
        distance_maps[node] = hood.distances()

    edges: dict[tuple[Iri, Iri], float] = {}
    for i, a in enumerate(nodes):
        dist_a = distance_maps[a]
        for b in nodes[i + 1:]:
            dist_b = distance_maps[b]
            # iterate the smaller map when intersecting
            if len(dist_b) < len(dist_a):
                small, large = dist_b, dist_a
            else:
                small, large = dist_a, dist_b
            best = math.inf
            for shared, d_small in small.items():
                d_large = large.get(shared)
                if d_large is not None:
                    total = d_small + d_large
                    if total < best:
                        best = total
            if best < math.inf:
                edges[(a, b)] = 1.0 / (1.0 + best)
    return CoherenceGraph(nodes=nodes, edges=edges)


def greedy_prune(
    graph: CoherenceGraph,
    mention_candidates: Sequence[Iterable[Iri]],
    params: CoherenceParams,
) -> dict[Iri, float]:
    """Drop weakly connected candidates, then boost the survivors.

    The prune budget is prune_fraction of the candidates that could be
    removed individually without starving a mention below min_keep. Victims
    are picked by lowest total similarity to the remaining active set (ties
    by entity), skipping any whose removal would violate min_keep at that
    point. Removed and unconnected candidates keep boost 1; survivors get
    1 + gamma * conn/max_conn where conn is measured among survivors only.

    Similarities live in a dense matrix over the sorted nodes, and every
    connectivity is a row sum in index order, so the boosts do not depend
    on set iteration order (and thus not on PYTHONHASHSEED).
    """
    nodes = sorted(graph.nodes)
    pos = {e: i for i, e in enumerate(nodes)}
    sim = np.zeros((len(nodes), len(nodes)))
    for (a, b), value in graph.edges.items():
        sim[pos[a], pos[b]] = sim[pos[b], pos[a]] = value
    # members[m, i]: node i is still a candidate of mention m
    members = np.zeros((len(mention_candidates), len(nodes)), dtype=bool)
    for m, group in enumerate(mention_candidates):
        for e in group:
            if e in pos:
                members[m, pos[e]] = True
    counts = members.sum(axis=1)

    def removal_allowed() -> np.ndarray:
        starved = counts - 1 < params.min_keep
        return ~members[starved].any(axis=0)

    budget = math.floor(params.prune_fraction * int(removal_allowed().sum()))
    active = np.ones(len(nodes), dtype=bool)
    for _ in range(budget):
        eligible = active & removal_allowed()
        if not eligible.any():
            break
        conn = np.where(active, sim, 0.0).sum(axis=1)
        # argmin takes the first minimum, i.e. the smallest entity
        victim = int(np.argmin(np.where(eligible, conn, np.inf)))
        active[victim] = False
        counts -= members[:, victim]
        members[:, victim] = False

    conn = np.where(active, sim, 0.0).sum(axis=1)
    max_conn = float(conn[active].max(initial=0.0))
    boosts = np.ones(len(nodes))
    if max_conn > 0:
        boosts[active] = 1.0 + params.gamma * conn[active] / max_conn
    return dict(zip(nodes, boosts.tolist()))


def apply_boosts(
    ranked: Sequence[Sequence[ScoredCandidate]],
    boosts: Mapping[Iri, float],
) -> list[list[ScoredCandidate]]:
    """Multiply scores by their boosts and re-sort each per-mention list."""
    for value in boosts.values():
        if value < 1.0:
            raise ValueError(f"boosts must be >= 1, got {value}")
    out: list[list[ScoredCandidate]] = []
    for candidates in ranked:
        adjusted = [
            replace(c, boost=boosts.get(c.entity, 1.0)) for c in candidates
        ]
        adjusted.sort(key=lambda c: (-c.effective, c.entity))
        out.append(adjusted)
    return out
