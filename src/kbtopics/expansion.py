"""Bounded weighted neighborhood expansion.

For each seed entity we collect every node reachable within ``max_depth``
hops whose cheapest admissible path costs at most ``max_distance``, together
with that minimal cost. Plain Dijkstra is not enough: under a hop bound a
longer-but-shallower path can dominate a shorter-but-deeper one.

All seeds are expanded at once over integer entity ids, numbered in sorted
IRI order, by frontier relaxation (a hop-bounded Bellman-Ford). Round k
extends every label of round k - 1 by one edge, drops any distance over
``max_distance``, takes one minimum per (seed, node), and keeps as the next
frontier only the labels that beat every distance the node had after fewer
hops: a label that does not is dominated, on depth and distance, by one
that was already extended. After ``max_depth`` rounds, or once the frontier
is empty, each node's distance is its minimum over all rounds.

This is exact, not an approximation of a best-first search: a path's cost
is its weights summed left to right, and float ``+`` is monotone, so
extending the minimum of a set of labels gives the minimum of their
extensions. Each round's minimum is therefore the float cost of the
cheapest path with that many hops, bit for bit. Neighbors are ordered by
(distance, entity), the entity ids breaking ties as IRIs sort, and each
neighborhood is cut to its first ``max_neighbors``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

import numpy as np

from .edges import Related
from .errors import ConfigError, DataError
from .kb import Iri
from .vectors import ranges

logger = logging.getLogger(__name__)

# Seeds expanded together: bounds the relaxation's temporary arrays, which
# grow with seeds times the nodes each one reaches.
SEED_CHUNK = 2048


@dataclass(frozen=True)
class ExpansionParams:
    max_depth: int = 3
    max_distance: float = 4.0
    max_neighbors: int = 512

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ConfigError(f"max_depth must be at least 1, got {self.max_depth}")
        if not self.max_distance > 0:  # also refuses NaN
            raise ConfigError(f"max_distance must be positive, got {self.max_distance}")
        if self.max_neighbors < 1:
            raise ConfigError("max_neighbors must be at least 1")


@dataclass(frozen=True)
class Neighborhood:
    """Entities near a seed with their minimal admissible distances.

    ``neighbors`` is sorted ascending by (distance, entity) and always starts
    with (seed, 0.0).
    """

    seed: Iri
    neighbors: tuple[tuple[Iri, float], ...]

    def __len__(self) -> int:
        return len(self.neighbors)


class Neighborhoods(Mapping[Iri, Neighborhood]):
    """Every seed's neighborhood as one CSR over entity ids.

    ``entities`` lists the id space in sorted IRI order; seed i is
    ``entities[seeds[i]]`` and its neighborhood is ``ids[indptr[i]:indptr[i
    + 1]]`` with those ``distances``, ordered as ``Neighborhood.neighbors``.
    As a mapping it is keyed by the seeds' IRIs, yields them in seed order
    and builds each ``Neighborhood`` when asked.
    """

    def __init__(self, entities: list[Iri], seeds: np.ndarray, indptr: np.ndarray,
                 ids: np.ndarray, distances: np.ndarray):
        lo = indptr[:-1]
        if np.any(indptr[1:] <= lo) or np.any(ids[lo] != seeds) \
                or np.any(distances[lo] != 0.0):
            raise DataError("a neighborhood does not start with its seed at distance 0")
        self.entities = entities
        self.seeds = seeds
        self.indptr = indptr
        self.ids = ids
        self.distances = distances

    @cached_property
    def _rows(self) -> dict[Iri, int]:
        return {self.entities[s]: i for i, s in enumerate(self.seeds.tolist())}

    def __getitem__(self, seed: Iri) -> Neighborhood:
        i = self._rows[seed]
        lo, hi = self.indptr[i:i + 2].tolist()
        return Neighborhood(seed, tuple(zip(
            map(self.entities.__getitem__, self.ids[lo:hi].tolist()),
            self.distances[lo:hi].tolist())))

    def __iter__(self) -> Iterator[Iri]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self.seeds)


def group_min(keys: np.ndarray, dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, ascending, each with its least distance."""
    order = np.argsort(keys)
    keys = keys[order]
    first = np.ones(keys.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return keys[starts], np.minimum.reduceat(dist[order], starts) if starts.size else dist[:0]


def _relax(graph: Related, seeds: np.ndarray, n_nodes: int,
           params: ExpansionParams) -> tuple[np.ndarray, np.ndarray]:
    """Every (seed, node) label of the seeds' neighborhoods as keys
    ``seed_row * n_nodes + node``, ascending, with their minimal distances."""
    indptr, targets, weights = graph
    keys = np.arange(seeds.shape[0], dtype=np.int64) * n_nodes + seeds
    best = np.zeros(seeds.shape[0])
    frontier_keys, frontier = keys, best
    for _ in range(params.max_depth):
        rows, nodes = np.divmod(frontier_keys, n_nodes)
        starts = indptr[nodes]
        counts = indptr[nodes + 1] - starts
        edge = ranges(starts, counts)
        dist = np.repeat(frontier, counts) + weights[edge]
        near = dist <= params.max_distance
        cand_keys, cand = group_min(
            np.repeat(rows * n_nodes, counts)[near] + targets[edge[near]], dist[near])
        pos = np.searchsorted(keys, cand_keys)
        known = pos < keys.shape[0]
        known[known] = keys[pos[known]] == cand_keys[known]
        better = ~known
        better[known] = cand[known] < best[pos[known]]
        if not better.any():
            break
        improved = known & better
        best[pos[improved]] = cand[improved]
        new = ~known
        keys = np.insert(keys, pos[new], cand_keys[new])
        best = np.insert(best, pos[new], cand[new])
        frontier_keys, frontier = cand_keys[better], cand[better]
    return keys, best


def expand_all(graph: Related, entities: list[Iri], seeds: np.ndarray,
               params: ExpansionParams | None = None) -> Neighborhoods:
    """Expand every seed, a distinct id of ``entities`` (the KB's sorted
    IRIs), at once over the edge rows ``compute_edge_weights`` gives; the
    same neighborhoods, bit for bit, as a label-setting search from each
    seed. Row i of the result is ``seeds[i]``'s."""
    params = params or ExpansionParams()
    if not np.all(graph.distances >= 0):  # also refuses NaN
        raise ConfigError("edge weights must be nonnegative")
    seeds = np.asarray(seeds, dtype=np.int64)
    n_nodes = max(len(entities), 1)
    parts_ids, parts_dist, sizes = [], [], []
    for lo in range(0, len(seeds), SEED_CHUNK):
        chunk = seeds[lo:lo + SEED_CHUNK]
        keys, dist = _relax(graph, chunk, n_nodes, params)
        rows, ids = np.divmod(keys, n_nodes)
        order = np.lexsort((ids, dist, rows))
        rows, ids, dist = rows[order], ids[order], dist[order]
        # rank of each label within its seed's row; keep the first max_neighbors
        row_start = np.searchsorted(rows, rows)
        keep = np.arange(rows.shape[0]) - row_start < params.max_neighbors
        parts_ids.append(ids[keep])
        parts_dist.append(dist[keep])
        sizes.append(np.bincount(rows[keep], minlength=chunk.shape[0]))
        logger.info("expanded %d of %d entities", min(lo + SEED_CHUNK, len(seeds)), len(seeds))
    indptr = np.zeros(len(seeds) + 1, dtype=np.int64)
    if sizes:
        np.cumsum(np.concatenate(sizes), out=indptr[1:])
    return Neighborhoods(
        entities, seeds, indptr,
        np.concatenate(parts_ids) if parts_ids else np.zeros(0, np.int64),
        np.concatenate(parts_dist) if parts_dist else np.zeros(0))
