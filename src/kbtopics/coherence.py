"""Document-global score adjustment via graph coherence.

Candidates that sit close together in the knowledge graph are assumed to
describe the same document context. Candidates are record positions, and
each one's precomputed neighborhood is its row of the index's related CSR:
integer entity ids and distances. A pair's distance is the cheapest meeting
point of their neighborhoods, found for all pairs at once by sorting the
concatenated entries by (entity id, owner) and taking a sort-based group
minimum. The similarities fill a dense matrix over the sorted candidates,
weakly connected candidates are pruned greedily from it, and the survivors
are boosted in proportion to how strongly they connect to the rest. The
candidates come in as stage two's aligned (mention, entity) arrays and the
boosts go out as one per row, which the classifier multiplies into the
scores. Ties break by position, which orders as the records' IRIs do.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .expansion import group_min
from .index import Related
from .vectors import ranges


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


@dataclass(frozen=True, eq=False)
class CoherenceGraph:
    """Symmetric similarity over a document's candidate entities.

    ``nodes`` is sorted and ``sim[i, j]`` is the similarity of nodes i and
    j, 0 for an unconnected pair and on the diagonal.
    """

    nodes: tuple[int, ...]
    sim: np.ndarray

    @property
    def edges(self) -> dict[tuple[int, int], float]:
        """Connected pairs, smaller position first, with their similarity."""
        rows, cols = np.nonzero(np.triu(self.sim, 1))
        return {(self.nodes[i], self.nodes[j]): float(self.sim[i, j])
                for i, j in zip(rows.tolist(), cols.tolist())}


def build_similarity(candidates: Sequence[int] | np.ndarray, related: Related) -> CoherenceGraph:
    """Connect candidate pairs whose neighborhoods overlap.

    Candidate p's neighborhood is row p of ``related``: entity ids, each at
    most once, with distances, its own seed at 0. The pair distance
    is the cheapest meeting point: min over shared entries x of
    dist_a(x) + dist_b(x). Since each neighborhood contains its own seed,
    this is an upper bound on the true path length between the seeds.
    Similarity is 1/(1+dist), so closer pairs score higher, capped at 1.
    """
    pos = np.unique(np.asarray(candidates, dtype=np.intp))
    nodes = tuple(pos.tolist())
    n = len(nodes)
    sim = np.zeros((n, n))
    if n < 2:
        return CoherenceGraph(nodes=nodes, sim=sim)

    # every entry, sorted by (entity id, owner); no neighborhood lists an
    # entity twice, so the key is unique and the sort need not be stable
    lo = related.indptr[pos]
    counts = related.indptr[pos + 1] - lo
    entries = ranges(lo, counts)
    # int64 before the keys are formed: int32 ids times n stay int32
    ids = related.ids[entries].astype(np.int64)
    owner = np.repeat(np.arange(n), counts)
    order = np.argsort(ids * n + owner)
    ids, owner = ids[order], owner[order]
    dist = related.distances[entries][order]
    # pair each entry with every later entry of the same id
    later = np.searchsorted(ids, ids, side="right") - np.arange(len(ids)) - 1
    first = np.repeat(np.arange(len(ids)), later)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    a, b = owner[first], owner[second]
    linked = a < b
    # each pair's least meeting-point distance
    pair, best = group_min(a[linked] * n + b[linked], (dist[first] + dist[second])[linked])
    a, b = np.divmod(pair, n)
    sim[a, b] = sim[b, a] = 1.0 / (1.0 + best)
    return CoherenceGraph(nodes=nodes, sim=sim)


def greedy_prune(graph: CoherenceGraph, mention: np.ndarray, entity: np.ndarray,
                 params: CoherenceParams) -> np.ndarray:
    """Drop weakly connected candidates, then boost the survivors: one boost
    per row of the aligned ``mention`` and ``entity`` arrays, each entity one
    of the graph's nodes.

    The prune budget is prune_fraction of the candidates that could be
    removed individually without starving a mention below min_keep. Victims
    are picked by lowest total similarity to the remaining active set (ties
    by position), skipping any whose removal would violate min_keep at that
    point. Removed and unconnected candidates keep boost 1; survivors get
    1 + gamma * conn/max_conn where conn is measured among survivors only.

    Every connectivity is a row sum of the graph's dense similarity matrix
    in index order, so the boosts do not depend on the rows' order (and
    thus not on PYTHONHASHSEED).
    """
    sim = graph.sim
    node = np.searchsorted(graph.nodes, entity)
    # members[m, i]: node i is still a candidate of mention m
    members = np.zeros((int(mention.max(initial=-1)) + 1, len(graph.nodes)), dtype=bool)
    members[mention, node] = True
    counts = members.sum(axis=1)

    def removal_allowed() -> np.ndarray:
        starved = counts - 1 < params.min_keep
        return ~members[starved].any(axis=0)

    budget = math.floor(params.prune_fraction * int(removal_allowed().sum()))
    active = np.ones(len(graph.nodes), dtype=bool)
    for _ in range(budget):
        eligible = active & removal_allowed()
        if not eligible.any():
            break
        conn = np.where(active, sim, 0.0).sum(axis=1)
        # argmin takes the first minimum, i.e. the smallest position
        victim = int(np.argmin(np.where(eligible, conn, np.inf)))
        active[victim] = False
        counts -= members[:, victim]
        members[:, victim] = False

    conn = np.where(active, sim, 0.0).sum(axis=1)
    max_conn = float(conn[active].max(initial=0.0))
    boosts = np.ones(len(graph.nodes))
    if max_conn > 0:
        boosts[active] = 1.0 + params.gamma * conn[active] / max_conn
    return boosts[node]
