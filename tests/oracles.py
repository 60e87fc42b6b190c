"""Helpers used only by tests, mostly brute-force references.

The references do their job the slow, obvious way, by a full scan of the
triples or a plain loop over dict entries, and tests compare the library
to them. Nothing under ``src/`` calls anything here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from kbtopics.edges import EdgeDirection
from kbtopics.index import ParentParams
from kbtopics.kb import (
    Iri,
    KnowledgeBase,
    LoadStats,
    PropertyRegistry,
    iter_triple_file,
)
from kbtopics.vectors import SparseVector


def parents_by_scan(
    kb: KnowledgeBase, entity: Iri, params: ParentParams, link_counts: Mapping[Iri, int]
) -> list[tuple[Iri, float]]:
    """compute_parents by scanning every triple for each parent property."""
    found: set[Iri] = set()
    for pred, direction in kb.registry.parent_properties:
        for t in kb.triples:
            if t.predicate != pred:
                continue
            if direction == "forward":
                if t.subject == entity and isinstance(t.obj, Iri):
                    found.add(t.obj)
            elif t.obj == entity:
                found.add(t.subject)
    found.discard(entity)
    return [
        (q, float(max(link_counts.get(q, 1), 1)) ** -params.alpha)
        for q in sorted(found)
    ]


def iri_by_two_steps(value: str) -> bool:
    """The IRI accept set as a scheme regex followed by a scan for the
    characters an IRI may not contain."""
    return bool(re.match(r"^[A-Za-z][A-Za-z0-9+.\-]*:\S+$", value)) and not any(
        c in '<>"{}|^`\\' for c in value)


def group_cardinality(kb: KnowledgeBase, s: Iri, p: Iri, d: EdgeDirection) -> int:
    """g(s,p,d): the number of parallel IRI-object edges leaving s via p in
    direction d. Callers must only ask about groups that exist."""
    if d == "spo":
        n = sum(1 for t in kb.triples
                if t.subject == s and t.predicate == p and isinstance(t.obj, Iri))
    else:
        n = sum(1 for t in kb.triples if t.predicate == p and t.obj == s)
    if n == 0:
        raise ValueError(f"no {d} edges for ({s}, {p})")
    return n


@dataclass
class LoadSummary(LoadStats):
    triples: int = 0
    entities: int = 0
    literals: int = 0
    duplicates: int = 0


def load_triples(
    path: str | Path, registry: PropertyRegistry, strict: bool = True
) -> tuple[KnowledgeBase, LoadSummary]:
    """Load and deduplicate one triple file, counting what was kept."""
    stats = LoadSummary()
    raw = list(iter_triple_file(path, strict=strict, stats=stats))
    kb = KnowledgeBase.from_triples(raw, registry)
    stats.duplicates = len(raw) - len(kb)
    stats.triples = len(kb)
    stats.entities = len(kb.entities)
    stats.literals = sum(1 for t in kb.triples if not t.has_iri_object)
    return kb, stats


def cosine_sparse(a: SparseVector, b: SparseVector) -> float:
    """Dot product of two unit-length sparse vectors (0.0 if either empty)."""
    if len(b) < len(a):
        a, b = b, a
    return sum(v * b[k] for k, v in a.items() if k in b)


def cosine_dense(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))
