"""Helpers used only by tests, mostly brute-force references.

The references do their job the slow, obvious way, by a full scan of the
triples or a plain loop over dict entries, and tests compare the library
to them. ``TripleKB`` is the knowledge base as triple objects, with the
cleaning steps that rebuild it. Nothing under ``src/`` calls anything here.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Literal, Mapping, Sequence

import numpy as np

from kbtopics.coherence import CoherenceGraph, CoherenceParams
from kbtopics.edges import EdgeWeightParams, Related, powers
from kbtopics.errors import TripleParseError
from kbtopics.expansion import ExpansionParams, Neighborhood, Neighborhoods, expand_all
from kbtopics.index import CandidateIndex, ParentParams
from kbtopics.kb import (
    CrossRefReport,
    Iri,
    KnowledgeBase,
    EntityTexts,
    Literal as LiteralValue,
    LoadStats,
    PropertyRegistry,
    Triple,
    entity_texts,
    iter_triple_file,
    parse_triple_line,
)
from kbtopics.ranking import RankingParams, activation
from kbtopics.selection import SelectionParams, Topic
from kbtopics.vectors import SparseVector, char_ngrams, tokenize

from row_table import CandidateBlock, LexicalRows, MentionVectors, RowTable


@dataclass(frozen=True)
class TripleKB:
    """The knowledge base as distinct triple objects in first-occurrence
    order, with cleaning steps that rebuild it: the reference the id-array
    ``KnowledgeBase`` is compared against."""

    triples: tuple[Triple, ...]
    registry: PropertyRegistry

    @classmethod
    def from_triples(cls, triples: Iterable[Triple], registry: PropertyRegistry) -> "TripleKB":
        return cls(tuple(dict.fromkeys(triples)), registry)

    @property
    def entities(self) -> frozenset[Iri]:
        """IRIs in subject or object position."""
        return frozenset(t.subject for t in self.triples).union(
            t.obj for t in self.triples if isinstance(t.obj, Iri))

    def __len__(self) -> int:
        return len(self.triples)


def triples_of(kb: KnowledgeBase) -> tuple[Triple, ...]:
    """The id-array KB's triples as objects, in its order."""
    return tuple(
        Triple(kb.entities[s], kb.predicates[p], kb.entities[o] if o >= 0 else kb.literals[~o])
        for s, p, o in zip(kb.subject_ids.tolist(), kb.predicate_ids.tolist(),
                           kb.object_ids.tolist()))


def objects_of(kb: KnowledgeBase) -> TripleKB:
    return TripleKB(triples_of(kb), kb.registry)


_XREF_RE = re.compile(r"([A-Za-z][A-Za-z0-9_.\-]*):(\S+)")


def cross_refs_by_objects(kb: TripleKB) -> tuple[TripleKB, CrossRefReport]:
    """normalize_cross_refs by rewriting each reference triple object."""
    reg = kb.registry
    report = CrossRefReport()
    if not reg.cross_ref_predicates:
        return kb, report
    out: list[Triple] = []
    for t in kb.triples:
        if t.predicate in reg.cross_ref_predicates and isinstance(t.obj, LiteralValue):
            m = _XREF_RE.fullmatch(t.obj.text)
            ns = reg.cross_ref_prefixes.get(m.group(1)) if m else None
            if ns is not None:
                try:
                    resolved = Iri(ns + m.group(2))
                except ValueError:
                    report.unresolved += 1
                    out.append(t)
                    continue
                out.append(Triple(t.subject, reg.cross_ref_target, resolved))
                report.converted += 1
                continue
            report.unresolved += 1
        out.append(t)
    return TripleKB.from_triples(out, reg), report


def prune_by_objects(kb: TripleKB) -> tuple[TripleKB, int]:
    """prune_triples by filtering the triple objects."""
    prune = kb.registry.prune_predicates
    if not prune:
        return kb, 0
    kept = [t for t in kb.triples if t.predicate not in prune]
    return TripleKB.from_triples(kept, kb.registry), len(kb.triples) - len(kept)


def link_counts_by_scan(kb: TripleKB) -> dict[Iri, int]:
    """l(x) of every entity by counting its subject and IRI-object triples."""
    return {e: sum(1 for t in kb.triples if t.subject == e)
            + sum(1 for t in kb.triples if isinstance(t.obj, Iri) and t.obj == e)
            for e in kb.entities}


def texts_by_scan(kb: TripleKB, entity: Iri) -> list[tuple[str, str, float]]:
    """entity_texts of one entity from a scan of its subject triples."""
    fields = kb.registry.text_fields
    rows = [
        (fields[t.predicate].name, t.obj.text, fields[t.predicate].weight)
        for t in kb.triples
        if t.subject == entity and isinstance(t.obj, LiteralValue) and t.predicate in fields
    ]
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def parents_by_scan(
    kb: TripleKB, entity: Iri, params: ParentParams, link_counts: Mapping[Iri, int]
) -> list[tuple[Iri, float]]:
    """compute_parents of one entity by scanning every triple for each
    parent property."""
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


def edges_by_scan(kb: TripleKB, params: EdgeWeightParams) -> list[tuple[Iri, Iri, float]]:
    """compute_edge_weights' edges as sorted (source, target, weight), by an
    independent full-scan evaluation of the weighting rules."""
    links = link_counts_by_scan(kb)
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
        out.extend((s, o, w) for w, o in scored[: params.c_max])
    return sorted(out)


def edge_list(kb: KnowledgeBase, links: np.ndarray, params: EdgeWeightParams
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """compute_edge_weights' kept edges in the edge-list form it once
    returned: (sources, targets, weights) arrays, group by group, each
    group's edges by (weight, target)."""
    iri_object = kb.object_ids >= 0
    s, p, o = kb.subject_ids[iri_object], kb.predicate_ids[iri_object], kb.object_ids[iri_object]
    sources, targets = np.concatenate((s, o)), np.concatenate((o, s))
    predicate = np.concatenate((p, p))
    ops = np.arange(sources.shape[0]) >= s.shape[0]
    _, groups, sizes = np.unique((sources * len(kb.predicates) + predicate) * 2 + ops,
                                 return_inverse=True, return_counts=True)
    base = np.array([kb.registry.edge_base_weights.get(q, params.default_base_weight)
                     for q in kb.predicates], dtype=np.float64)
    weights = (base[predicate] * powers(links[targets], params.f_l)
               * powers(sizes, params.f_g)[groups])
    order = np.lexsort((targets, weights, groups))
    rank = np.arange(order.shape[0]) - (np.cumsum(sizes) - sizes)[groups[order]]
    keep = order[rank < params.c_max]
    return sources[keep], targets[keep], weights[keep]


def edges_of(rows: Related, entities: Sequence[Iri]) -> list[tuple[Iri, Iri, float]]:
    """A CSR's rows as (source, target, weight) edges by IRI, row after row."""
    sources = np.repeat(np.arange(rows.indptr.shape[0] - 1), np.diff(rows.indptr))
    name = entities.__getitem__
    return list(zip(map(name, sources.tolist()), map(name, rows.ids.tolist()),
                    rows.distances.tolist()))


EdgeDirection = Literal["spo", "ops"]

# source -> (target, weight) rows, each sorted by (weight, target)
Adjacency = Mapping[Iri, tuple[tuple[Iri, float], ...]]

# edge rows as compute_edge_weights gives them, and the IRIs of their ids
Graph = tuple[Related, list[Iri]]


def graph_of(edges: Iterable[tuple[Iri, Iri, float]], entities: Iterable[Iri] = ()) -> Graph:
    """(source, target, weight) edges as rows over the ids of their
    endpoints and ``entities``, in IRI order; a row keeps its edges in the
    order given."""
    edges = list(edges)
    names = sorted({e for s, t, _ in edges for e in (s, t)}.union(entities))
    ids = {e: i for i, e in enumerate(names)}
    edges.sort(key=lambda edge: ids[edge[0]])  # stable
    counts = np.bincount(np.array([ids[s] for s, _, _ in edges], dtype=np.int64),
                         minlength=len(names))
    return Related(np.append(0, np.cumsum(counts)),
                   np.array([ids[t] for _, t, _ in edges], dtype=np.int64),
                   np.array([w for _, _, w in edges], dtype=np.float64)), names


def adjacency_of(graph: Graph) -> Adjacency:
    """The graph as a dict of rows, parallel edges collapsed to the cheapest."""
    best: dict[Iri, dict[Iri, float]] = {}
    for s, target, w in edges_of(*graph):
        row = best.setdefault(s, {})
        if target not in row or w < row[target]:
            row[target] = w
    return {s: tuple(sorted(row.items(), key=lambda tw: (tw[1], tw[0])))
            for s, row in best.items()}


def expand_iris(graph: Graph, seeds: Iterable[Iri],
                params: ExpansionParams | None = None) -> Neighborhoods:
    """expand_all of the seeds named by IRI, each once, in the order given."""
    rows, entities = graph
    ids = dict(zip(entities, range(len(entities))))
    return expand_all(rows, entities, [ids[seed] for seed in dict.fromkeys(seeds)], params)


def expand(graph: Graph, seed: Iri, params: ExpansionParams | None = None
           ) -> Neighborhood:
    """One seed's neighborhood."""
    return expand_iris(graph, [seed], params)[seed]


def distances(nbh: Neighborhood) -> dict[Iri, float]:
    """A neighborhood as {entity: distance}."""
    return dict(nbh.neighbors)


def _admit(labels: dict[Iri, list[tuple[int, float]]], node: Iri,
           depth: int, dist: float) -> bool:
    """Record (depth, dist) for node unless an existing label dominates it;
    drop labels the new one dominates."""
    existing = labels.get(node)
    if existing is None:
        labels[node] = [(depth, dist)]
        return True
    for d0, w0 in existing:
        if d0 <= depth and w0 <= dist:
            return False
    existing[:] = [(d0, w0) for d0, w0 in existing if not (depth <= d0 and dist <= w0)]
    existing.append((depth, dist))
    return True


def expand_by_labels(edges: Adjacency, seed: Iri,
                     params: ExpansionParams | None = None) -> Neighborhood:
    """expand as a best-first label-setting search from one seed: a Pareto
    frontier of (depth, distance) labels per node, anything dominated on
    both axes pruned. Each adjacency row must be sorted by weight."""
    params = params or ExpansionParams()
    labels: dict[Iri, list[tuple[int, float]]] = {seed: [(0, 0.0)]}
    best: dict[Iri, float] = {}
    heap: list[tuple[float, Iri, int]] = [(0.0, seed, 0)]
    while heap:
        dist, node, depth = heapq.heappop(heap)
        if (depth, dist) not in labels[node]:
            continue  # superseded by a dominating label after being queued
        prev = best.get(node)
        if prev is None or dist < prev:
            best[node] = dist
        if depth == params.max_depth:
            continue
        for target, weight in edges.get(node, ()):
            nd = dist + weight
            if nd > params.max_distance:
                break  # neighbors sorted by weight, the rest are farther
            if _admit(labels, target, depth + 1, nd):
                heapq.heappush(heap, (nd, target, depth + 1))
    neighbors = sorted(best.items(), key=lambda kv: (kv[1], kv[0]))
    return Neighborhood(seed, tuple(neighbors[: params.max_neighbors]))


def neighborhoods_of(entities: list[Iri], given: Mapping[Iri, Neighborhood]) -> Neighborhoods:
    """Hand-written neighborhoods in the array form expand_all returns, over
    the ids of ``entities`` (a KB's, in sorted IRI order)."""
    ids = dict(zip(entities, range(len(entities))))
    rows = [nbh.neighbors for nbh in given.values()]
    return Neighborhoods(
        entities,
        np.array([ids[seed] for seed in given], dtype=np.int64),
        np.cumsum([0] + [len(row) for row in rows], dtype=np.int64),
        np.array([ids[e] for row in rows for e, _ in row], dtype=np.int64),
        np.array([d for row in rows for _, d in row], dtype=np.float64),
    )


def record_hoods(kb: KnowledgeBase, given: Mapping[Iri, Neighborhood] | None = None
                 ) -> Neighborhoods:
    """Neighborhoods of the KB's records (the entities entity_texts lists),
    in record order: the given one, else the record alone."""
    given = given or {}
    records = [kb.entities[i] for i in entity_texts(kb)[0].tolist()]
    return neighborhoods_of(kb.entities, {
        e: given.get(e, Neighborhood(e, ((e, 0.0),))) for e in records})


def text_rows(texts: EntityTexts) -> list[tuple[str, str, float]]:
    """entity_texts' columns as (field name, text, search weight) rows."""
    return [(texts.fields[f], text, w) for f, text, w in zip(
        texts.field_ids.tolist(), texts.texts, texts.weights.tolist())]


def texts_by_iri(kb: KnowledgeBase) -> dict[Iri, list[tuple[str, str, float]]]:
    """entity_texts as {entity IRI: its rows}, in id order."""
    texts = entity_texts(kb)
    rows = text_rows(texts)
    return {kb.entities[e]: rows[lo:hi] for e, lo, hi in zip(
        texts.ids.tolist(), texts.indptr.tolist(), texts.indptr[1:].tolist())}


def parents_by_iri(kb: KnowledgeBase, parents: Related) -> dict[Iri, list[tuple[Iri, float]]]:
    """compute_parents' CSR as {entity IRI: its (parent IRI, weight) pairs},
    in id order, only the entities that have any."""
    named = {}
    for e, (lo, hi) in enumerate(zip(parents.indptr.tolist(), parents.indptr[1:].tolist())):
        if hi > lo:
            named[kb.entities[e]] = [(kb.entities[q], w) for q, w in zip(
                parents.ids[lo:hi].tolist(), parents.distances[lo:hi].tolist())]
    return named


def iri_by_two_steps(value: str) -> bool:
    """The IRI accept set as a scheme regex followed by a scan for the
    characters an IRI may not contain."""
    return bool(re.fullmatch(r"[A-Za-z][A-Za-z0-9+.\-]*:\S+", value)) and not any(
        c in '<>"{}|^`\\' or "\ud800" <= c <= "\udfff" for c in value)


def group_cardinality(kb: TripleKB, s: Iri, p: Iri, d: EdgeDirection) -> int:
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
    kb = KnowledgeBase.intern(raw, registry)
    stats.duplicates = len(raw) - len(kb)
    stats.triples = len(kb)
    stats.entities = len(kb.entities)
    stats.literals = int((kb.object_ids < 0).sum())
    return kb, stats


def triples_by_character_parser(
    path: str | Path, strict: bool = True, stats: LoadStats | None = None
) -> list[Triple]:
    """iter_triple_file with every line through the character parser and no
    whole-line pattern: the reference the pattern is compared against."""
    out: list[Triple] = []
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                triple = parse_triple_line(line, str(path), lineno)
            except TripleParseError:
                if strict:
                    raise
                if stats is not None:
                    stats.skipped_lines += 1
                continue
            lang = triple.obj.lang if isinstance(triple.obj, LiteralValue) else None
            if lang is not None and lang.lower() != "en" and not lang.lower().startswith("en-"):
                if stats is not None:
                    stats.dropped_non_english += 1
                continue
            out.append(triple)
    return out


_ECHAR = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _unescape_by_scan(raw: str, where: tuple[str, int]) -> str:
    out: list[str] = []
    i = 0
    n = len(raw)
    while i < n:
        c = raw[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        if i + 1 >= n:
            raise TripleParseError("dangling escape in literal", *where)
        e = raw[i + 1]
        if e in _ECHAR:
            out.append(_ECHAR[e])
            i += 2
        elif e == "u" or e == "U":
            width = 4 if e == "u" else 8
            hexpart = raw[i + 2 : i + 2 + width]
            if len(hexpart) != width:
                raise TripleParseError("truncated \\u escape in literal", *where)
            try:
                code = int(hexpart, 16)
                char = chr(code)
            except ValueError:
                raise TripleParseError(f"bad \\u escape {hexpart!r} in literal", *where) from None
            if 0xD800 <= code <= 0xDFFF:
                raise TripleParseError(
                    f"\\u escape {hexpart!r} in literal is a surrogate, not a character", *where)
            out.append(char)
            i += 2 + width
        else:
            raise TripleParseError(f"unknown escape \\{e} in literal", *where)
    return "".join(out)


def _iri_by_scan(line: str, pos: int, where: tuple[str, int]) -> tuple[Iri, int]:
    if pos >= len(line) or line[pos] != "<":
        if line[pos : pos + 2] == "_:":
            raise TripleParseError("blank nodes are not supported", *where)
        raise TripleParseError(f"expected IRI at column {pos + 1}", *where)
    end = line.find(">", pos + 1)
    if end < 0:
        raise TripleParseError("unterminated IRI", *where)
    try:
        return Iri(line[pos + 1 : end]), end + 1
    except ValueError as exc:
        raise TripleParseError(str(exc), *where) from None


def _literal_by_scan(line: str, pos: int, where: tuple[str, int]) -> tuple[LiteralValue, int]:
    i = pos + 1
    while i < len(line):
        if line[i] == "\\":
            i += 2
            continue
        if line[i] == '"':
            break
        i += 1
    else:
        raise TripleParseError("unterminated literal", *where)
    text = _unescape_by_scan(line[pos + 1 : i], where)
    i += 1
    lang: str | None = None
    if line[i : i + 1] == "@":
        m = re.match(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*", line[i + 1 :])
        if not m:
            raise TripleParseError("malformed language tag", *where)
        lang = m.group(0)
        i += 1 + len(lang)
    elif line[i : i + 2] == "^^":
        _, i = _iri_by_scan(line, i + 2, where)  # datatype parsed then discarded
    return LiteralValue(text, lang), i


def _skip_ws_by_scan(line: str, pos: int) -> int:
    while pos < len(line) and line[pos] in " \t":
        pos += 1
    return pos


def parse_triple_line_by_scan(line: str, path: str = "", lineno: int = 0) -> Triple:
    """``parse_triple_line`` as index loops over the line's characters: the
    reference the library's compiled patterns are compared against."""
    where = (path, lineno)
    if re.search("[\ud800-\udfff]", line):
        raise TripleParseError("not valid UTF-8", *where)
    pos = _skip_ws_by_scan(line, 0)
    subject, pos = _iri_by_scan(line, pos, where)
    pos = _skip_ws_by_scan(line, pos)
    predicate, pos = _iri_by_scan(line, pos, where)
    pos = _skip_ws_by_scan(line, pos)
    obj: Iri | LiteralValue
    if pos < len(line) and line[pos] == '"':
        obj, pos = _literal_by_scan(line, pos, where)
    else:
        obj, pos = _iri_by_scan(line, pos, where)
    pos = _skip_ws_by_scan(line, pos)
    if line[pos:] != ".":
        raise TripleParseError("missing terminating '.'", *where)
    return Triple(subject, predicate, obj)


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


def similarity_by_pairs(
    candidates: Iterable[Iri], neighborhoods: Mapping[Iri, Neighborhood]
) -> dict[tuple[Iri, Iri], float]:
    """build_similarity's edges by intersecting the candidates' distance
    dicts pair by pair: {(a, b): 1/(1+best)} for a < b with a shared entry."""
    nodes = tuple(sorted(set(candidates)))
    distance_maps = {node: distances(neighborhoods[node]) for node in nodes}
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
    return edges



def prune_by_lists(graph: CoherenceGraph, mention_candidates: Sequence[Iterable[int]],
                   params: CoherenceParams) -> dict[int, float]:
    """greedy_prune over per-mention candidate lists, each node's boost by
    node: the membership matrix filled pair by pair through a node-to-index
    dict, then the same greedy rounds."""
    nodes, sim = graph.nodes, graph.sim
    pos = {e: i for i, e in enumerate(nodes)}
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


def topics_by_lists(ranked: Sequence[Sequence[tuple[int, float]]], boosts: Mapping[int, float],
                    lemmas: Sequence[str], params: SelectionParams) -> list[Topic]:
    """Direct topics from per-mention (entity, score) lists: each score
    times its entity's boost (1 without one), each mention's winner the
    ``min`` by (-effective, entity), winners summed per entity in mention
    order."""
    totals: dict[int, float] = {}
    lemma_sets: dict[int, set[str]] = {}
    for candidates, lemma in zip(ranked, lemmas, strict=True):
        if not candidates:
            continue
        effective = {e: score * boosts.get(e, 1.0) for e, score in candidates}
        winner = min(effective, key=lambda e: (-effective[e], e))
        totals[winner] = totals.get(winner, 0.0) + effective[winner]
        lemma_sets.setdefault(winner, set()).add(lemma)
    topics = [Topic(e, total * (1.0 + params.lambda_diversity * (len(lemma_sets[e]) - 1)),
                    frozenset(lemma_sets[e]), "direct") for e, total in totals.items()]
    return sorted(topics, key=lambda t: (-t.final_score, t.entity))

def record_iris(index: CandidateIndex) -> list[Iri]:
    """The IRIs of the index's records, in position order: the entities
    with a neighborhood."""
    return [Iri(uri) for uri, size in zip(index.names, np.diff(index.related.indptr).tolist())
            if size]


def record_text_ids(index: CandidateIndex, uri: str) -> range:
    """Text ids of a record's texts, in the order of ``record_texts``; empty
    for an entity the index holds no record of."""
    pos = index.position(uri)
    return range(0) if pos is None else range(*index._text_indptr[pos:pos + 2].tolist())


def record_texts(index: CandidateIndex, uri: str) -> tuple[tuple[str, str, float], ...]:
    """A record's texts as (field, text, search weight), read from the
    index's text columns; empty for an entity without a record."""
    return tuple((index._fields[index._text_fields[i]], index._texts[i],
                  float(index._text_weights[i])) for i in record_text_ids(index, uri))


def record_neighborhood(index: CandidateIndex, uri: str) -> Neighborhood | None:
    """A record's neighborhood by IRI, itself first at 0, read from
    ``index.related``; None for an entity without a record."""
    pos = index.position(uri)
    if pos is None:
        return None
    lo, hi = index.related.indptr[pos:pos + 2].tolist()
    return Neighborhood(Iri(uri), tuple(zip(
        (Iri(index.names[i]) for i in index.related.ids[lo:hi].tolist()),
        index.related.distances[lo:hi].tolist())))


def record_parents(index: CandidateIndex, uri: str) -> list[tuple[Iri, float]]:
    """A record's (parent IRI, weight) pairs, read from ``index.parents``;
    empty for an entity without a record."""
    pos = index.position(uri)
    if pos is None:
        return []
    lo, hi = index.parents.indptr[pos:pos + 2].tolist()
    return [(Iri(index.names[q]), w) for q, w in zip(
        index.parents.ids[lo:hi].tolist(), index.parents.distances[lo:hi].tolist())]


def block_by_loop(index: CandidateIndex, uri: Iri) -> CandidateBlock:
    """candidate_blocks of one uri's record by a loop over its neighborhood,
    each related entity's text ids and field weights read by its IRI (none
    for an entity without a record)."""
    text_ids: list[int] = []
    weights: list[float] = []
    distances: list[float] = []
    for entity, dist in record_neighborhood(index, uri).neighbors:
        texts = record_texts(index, entity)
        text_ids.extend(record_text_ids(index, entity))
        weights.extend(w for _, _, w in texts)
        distances.extend([dist] * len(texts))
    return CandidateBlock(
        entity=index.position(uri),
        text_ids=np.array(text_ids, dtype=np.int64),
        field_weights=np.array(weights, dtype=np.float64),
        distances=np.array(distances, dtype=np.float64),
    )


def lexical_cosines_by_rows(query: SparseVector, rows: LexicalRows) -> np.ndarray:
    """Dot product of the query with every CSR row: every element of the rows
    is screened against a table of the query keys' low 12 bits, the
    candidates are matched by binary search and the products summed per row
    in element order."""
    pairs = sorted(query.items())
    q_keys = np.array([k for k, _ in pairs], dtype=np.uint64)
    q_vals = np.array([v for _, v in pairs], dtype=np.float64)
    keys = rows.keys
    low_bits = np.zeros(1 << 12, dtype=bool)
    low_bits[(q_keys & 0xFFF).astype(np.intp)] = True
    cand = low_bits[(keys & 0xFFF).astype(np.intp)].nonzero()[0]
    pos = np.searchsorted(q_keys, keys[cand])
    pos[pos == q_keys.shape[0]] = 0
    match = q_keys[pos] == keys[cand]
    hit, pos = cand[match], pos[match]
    n_rows = len(rows)
    row_ids = np.repeat(np.arange(n_rows), np.diff(rows.indptr))
    return np.bincount(row_ids[hit], weights=rows.values[hit] * q_vals[pos],
                       minlength=n_rows)


def partial_by_rows(lex: SparseVector, sem: np.ndarray, blocks: Sequence[CandidateBlock],
                    vectors: RowTable, params: RankingParams) -> np.ndarray:
    """Stage one's ``partial`` of the blocks' rows for one lemma, by the row
    kernel over rows loaded row by row: ``w_l*a(lex) + w_sm*a(sem)``."""
    ids = np.concatenate([b.text_ids for b in blocks] or [np.zeros(0, dtype=np.intp)])
    lex_rows, sem_matrix = vectors.load_vectors(ids)
    act = activation(np.concatenate([lexical_cosines_by_rows(lex, lex_rows),
                                     (sem_matrix * sem).sum(axis=1)]), params.alpha, params.beta)
    return params.w_l * act[:ids.shape[0]] + params.w_sm * act[ids.shape[0]:]


def block_scores_one_stage(
    mention: MentionVectors, blocks: Sequence[CandidateBlock], vectors: RowTable,
    params: RankingParams,
) -> np.ndarray:
    """Score of every block against one mention, in block order, by one
    kernel over the blocks' rows loaded row by row: all three similarities
    of every row (the lexical one by the row kernel), one activation over
    all of them, then the weighting and a sum per block."""
    sizes = np.array([len(b) for b in blocks], dtype=np.intp)
    n_rows = int(sizes.sum())
    if n_rows == 0:
        return np.zeros(len(blocks))
    starts = np.cumsum(sizes) - sizes

    lex_rows, sem_matrix = vectors.load_vectors(np.concatenate([b.text_ids for b in blocks]))
    lex = lexical_cosines_by_rows(mention.lex, lex_rows)
    sem = (sem_matrix * mention.sem).sum(axis=1)
    ctx = (sem_matrix * mention.ctx).sum(axis=1)
    act = activation(np.concatenate([lex, sem, ctx]), params.alpha, params.beta)
    per_row = (params.w_l * act[:n_rows] + params.w_sm * act[n_rows:2 * n_rows]
               + params.w_sc * act[2 * n_rows:])
    weights = np.concatenate([b.field_weights for b in blocks])
    distances = np.concatenate([b.distances for b in blocks])
    contrib = weights * per_row / (1.0 + distances)

    scores = np.zeros(len(blocks))
    filled = sizes > 0
    scores[filled] = np.add.reduceat(contrib, starts[filled])
    return scores


def text_lengths_by_tokenizing(index: CandidateIndex) -> tuple[list[int], list[int]]:
    """Token and character 3-gram counts of every text, by text id, from
    tokenizing the records' texts again."""
    tokens: list[int] = []
    grams: list[int] = []
    for uri in record_iris(index):
        for _, text, _ in record_texts(index, uri):
            tokens.append(len(tokenize(text)))
            grams.append(len(char_ngrams(text, (3,))))
    return tokens, grams


def query_by_loop(index: CandidateIndex, mention_text: str, k: int = 30
                  ) -> list[tuple[Iri, float]]:
    """CandidateIndex.retrieve with each position's URI, by a dict-of-lists
    loop: postings rebuilt by tokenizing every record's texts, then per query
    term in sorted order and per posting in text-id order, scores accumulated
    per record. Ties break by URI."""
    postings: dict[str, list[tuple[int, int]]] = {}
    owner: list[int] = []
    weight: list[float] = []
    records = record_iris(index)
    for pos, uri in enumerate(records):
        for _, text, w in record_texts(index, uri):
            text_id = len(owner)
            owner.append(pos)
            weight.append(w)
            for prefix, terms in (("t:", tokenize(text)), ("g:", char_ngrams(text, (3,)))):
                for term in sorted(set(terms)):
                    postings.setdefault(prefix + term, []).append((text_id, terms.count(term)))
    token_len, gram_len = text_lengths_by_tokenizing(index)

    def score_terms(terms: list[str], prefix: str, lengths: list[int]) -> dict[int, float]:
        n_texts = max(len(owner), 1)
        scores: dict[int, float] = {}
        for term in sorted(set(terms)):
            plist = postings.get(prefix + term)
            if not plist:
                continue
            idf = 1.0 + math.log(n_texts / (1.0 + len(plist)))
            for text_id, tf in plist:
                gain = weight[text_id] * tf * idf / math.sqrt(max(lengths[text_id], 1))
                scores[owner[text_id]] = scores.get(owner[text_id], 0.0) + gain
        return scores

    tokens = tokenize(mention_text)
    if not tokens:
        return []
    scores = score_terms(tokens, "t:", token_len)
    if not scores:
        scores = score_terms(char_ngrams(mention_text, (3,)), "g:", gram_len)
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], records[kv[0]]))
    return [(records[pos], score) for pos, score in ranked[:k]]
