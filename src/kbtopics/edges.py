"""Traversal edge weighting over the knowledge graph.

Every IRI-object triple produces two directed edges, the original ``spo``
orientation and the inverted ``ops`` one, so the graph can be walked either
way. An edge's weight combines three factors:

    weight = w_p * l(o)^f_l * g(s,p,d)^f_g

where w_p is the predicate's base weight, l(o) the link count of the target
node, and g(s,p,d) the size of the parallel-edge group the edge belongs to.
Lower weight means a closer relation. Within each (s,p,d) group only the
c_max lowest-weight edges survive, ties going to the target that sorts first.

The result is the form expansion relaxes: a ``Related`` CSR over the KB's
entity ids, which the KB numbers in sorted IRI order, whose row u holds u's
kept edges, targets with their weights. Edges that join one pair through
several predicates or directions all stay; a traversal takes the cheapest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .kb import KnowledgeBase


@dataclass(frozen=True)
class EdgeWeightParams:
    f_l: float = 0.5
    f_g: float = 0.5
    c_max: int = 4
    default_base_weight: float = 2.0

    def __post_init__(self) -> None:
        if not (0 <= self.f_l < math.inf and 0 <= self.f_g < math.inf):
            raise ConfigError("link and group exponents must be nonnegative and finite, "
                              f"got {self.f_l} and {self.f_g}")
        if self.c_max < 1:
            raise ConfigError(f"c_max must be at least 1, got {self.c_max}")
        if not 0 < self.default_base_weight < math.inf:
            raise ConfigError("default base weight must be positive and finite, "
                              f"got {self.default_base_weight}")


class Related(NamedTuple):
    """Entity relations as one CSR over KB ids: row e's entries are
    ``ids[indptr[e]:indptr[e + 1]]`` with those ``distances``, which are
    edge weights, parent weights or neighborhood distances."""

    indptr: np.ndarray
    ids: np.ndarray
    distances: np.ndarray


def link_counts(kb: KnowledgeBase) -> np.ndarray:
    """l(x) per entity id: triples with x as subject plus triples with x as
    IRI object (a literal object is not counted)."""
    n = len(kb.entities)
    return (np.bincount(kb.subject_ids, minlength=n)
            + np.bincount(kb.object_ids[kb.object_ids >= 0], minlength=n))


def powers(values: np.ndarray, exponent: float) -> np.ndarray:
    """``values ** exponent`` by Python's float power, once per distinct
    value (``np.power`` may round differently in the last bit); inf on overflow."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([_power(v, exponent) for v in distinct.tolist()])[inverse]


def _power(base: float, exponent: float) -> float:
    try:
        return float(base) ** exponent
    except OverflowError:
        return math.inf


def compute_edge_weights(
    kb: KnowledgeBase, links: np.ndarray, params: EdgeWeightParams | None = None,
) -> Related:
    """Weight all graph edges, truncating every (s,p,d) group to c_max.

    ``links`` are the KB's link counts by entity id, as ``link_counts``
    gives them. Row u holds u's kept edges, by predicate, direction, weight, target.
    """
    params = params or EdgeWeightParams()
    iri_object = kb.object_ids >= 0
    s, p, o = kb.subject_ids[iri_object], kb.predicate_ids[iri_object], kb.object_ids[iri_object]
    # spo edges, then ops edges
    sources, targets = np.concatenate((s, o)), np.concatenate((o, s))
    predicate = np.concatenate((p, p))
    ops = np.arange(sources.shape[0]) >= s.shape[0]
    # one integer key per (source, predicate, direction) group
    _, groups, sizes = np.unique((sources * len(kb.predicates) + predicate) * 2 + ops,
                                 return_inverse=True, return_counts=True)
    base = np.array([kb.registry.edge_base_weights.get(q, params.default_base_weight)
                     for q in kb.predicates], dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflowing product is inf, as a power is
        weights = (base[predicate] * powers(links[targets], params.f_l)
                   * powers(sizes, params.f_g)[groups])
    # each group's edges by weight, then target IRI; keep the first c_max.
    # The groups ascend by source, so the kept edges are already in rows.
    order = np.lexsort((targets, weights, groups))
    rank = np.arange(order.shape[0]) - (np.cumsum(sizes) - sizes)[groups[order]]
    keep = order[rank < params.c_max]
    indptr = np.append(0, np.cumsum(np.bincount(sources[keep], minlength=len(kb.entities))))
    return Related(indptr, targets[keep], weights[keep])
