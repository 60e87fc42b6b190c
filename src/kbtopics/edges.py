"""Traversal edge weighting over the knowledge graph.

Every IRI-object triple produces two directed edges, the original ``spo``
orientation and the inverted ``ops`` one, so the graph can be walked either
way. An edge's weight combines three factors:

    weight = w_p * l(o)^f_l * g(s,p,d)^f_g

where w_p is the predicate's base weight, l(o) the link count of the target
node, and g(s,p,d) the size of the parallel-edge group the edge belongs to.
Lower weight means a closer relation. Within each (s,p,d) group only the
c_max lowest-weight edges survive.

The computation can spill edge records to disk: records are hash-partitioned
by source node, each partition is sorted and grouped independently, and the
resulting edge multiset is identical to the in-memory path.
"""

from __future__ import annotations

import logging
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Literal as TypingLiteral
from zlib import crc32

from .errors import ConfigError, PipelineError
from .kb import Iri, KnowledgeBase

logger = logging.getLogger(__name__)

EdgeDirection = TypingLiteral["spo", "ops"]

MIN_MEMORY_BUDGET = 4096
MAX_PARTITIONS = 256

_DIR_CODE = {"spo": 0, "ops": 1}
_DIR_NAME = {0: "spo", 1: "ops"}
_REC_HEADER = struct.Struct("<HHHB")


@dataclass(frozen=True, slots=True)
class DirectedEdge:
    s: Iri
    p: Iri
    o: Iri
    d: EdgeDirection


@dataclass(frozen=True, slots=True)
class WeightedEdge:
    edge: DirectedEdge
    weight: float


@dataclass(frozen=True)
class EdgeWeightParams:
    f_l: float = 0.5
    f_g: float = 0.5
    c_max: int = 4
    default_base_weight: float = 2.0

    def __post_init__(self) -> None:
        if self.f_l < 0 or self.f_g < 0:
            raise ConfigError("link and group exponents must be nonnegative")
        if self.c_max < 1:
            raise ConfigError(f"c_max must be at least 1, got {self.c_max}")
        if self.default_base_weight <= 0:
            raise ConfigError("default base weight must be positive")


def link_counts(kb: KnowledgeBase) -> dict[Iri, int]:
    """l(x): triples with x as subject plus triples with x as IRI object.

    Literal-object triples count toward their subject but have no countable
    object side.
    """
    counts: dict[Iri, int] = {}
    for t in kb.triples:
        counts[t.subject] = counts.get(t.subject, 0) + 1
        if isinstance(t.obj, Iri):
            counts[t.obj] = counts.get(t.obj, 0) + 1
    return counts


# Records are (source, predicate, direction, target): the natural tuple sort
# then matches the (source, predicate, direction) grouping key exactly.
EdgeRecord = tuple[Iri, Iri, EdgeDirection, Iri]


def _edge_records(kb: KnowledgeBase) -> Iterator[EdgeRecord]:
    """Both orientations of every IRI-object triple."""
    for t in kb.triples:
        if isinstance(t.obj, Iri):
            yield t.subject, t.predicate, "spo", t.obj
            yield t.obj, t.predicate, "ops", t.subject


def _weight_group(
    group: list[EdgeRecord],
    links: dict[Iri, int],
    base_weights: dict[Iri, float],
    params: EdgeWeightParams,
) -> list[WeightedEdge]:
    """Weight one (s,p,d) group and keep the c_max lowest-weight edges."""
    s, p, d = group[0][0], group[0][1], group[0][2]
    w_p = base_weights.get(p, params.default_base_weight)
    g_factor = float(len(group)) ** params.f_g
    weighted = [
        (w_p * float(links[target]) ** params.f_l * g_factor, target)
        for _, _, _, target in group
    ]
    weighted.sort()
    return [
        WeightedEdge(DirectedEdge(s, p, target, d), w)
        for w, target in weighted[: params.c_max]
    ]


def _grouped(records: list[EdgeRecord]) -> Iterator[list[EdgeRecord]]:
    """Yield runs of records sharing (source, predicate, direction).

    Records must already be sorted.
    """
    group: list[EdgeRecord] = []
    key = None
    for rec in records:
        k = rec[:3]
        if k != key:
            if group:
                yield group
            group = []
            key = k
        group.append(rec)
    if group:
        yield group


def _record_size(rec: EdgeRecord) -> int:
    return _REC_HEADER.size + len(rec[0]) + len(rec[1]) + len(rec[3])


def _write_record(handle, rec: EdgeRecord) -> None:
    s, p, o = rec[0].encode(), rec[1].encode(), rec[3].encode()
    handle.write(_REC_HEADER.pack(len(s), len(p), len(o), _DIR_CODE[rec[2]]))
    handle.write(s)
    handle.write(p)
    handle.write(o)


def _read_records(path: Path) -> Iterator[EdgeRecord]:
    with path.open("rb") as handle:
        while True:
            header = handle.read(_REC_HEADER.size)
            if not header:
                return
            ls, lp, lo, code = _REC_HEADER.unpack(header)
            body = handle.read(ls + lp + lo)
            if len(body) != ls + lp + lo:
                raise PipelineError(f"truncated spill record in {path}")
            yield (
                Iri(body[:ls].decode()),
                Iri(body[ls : ls + lp].decode()),
                _DIR_NAME[code],
                Iri(body[ls + lp :].decode()),
            )


def compute_edge_weights(
    kb: KnowledgeBase,
    params: EdgeWeightParams | None = None,
    memory_budget: int | None = None,
    spill_dir: str | Path | None = None,
) -> Iterator[WeightedEdge]:
    """Weight all graph edges, truncating every (s,p,d) group to c_max.

    With ``memory_budget`` unset everything is grouped in memory. With a
    budget (at least MIN_MEMORY_BUDGET bytes) edge records are spilled to
    hash partitions on disk so no single sort exceeds roughly that many
    bytes. Both paths produce the same edge multiset; emission order is not
    part of the contract.
    """
    params = params or EdgeWeightParams()
    if memory_budget is not None and memory_budget < MIN_MEMORY_BUDGET:
        raise ConfigError(
            f"memory budget {memory_budget} below minimum {MIN_MEMORY_BUDGET}"
        )
    links = link_counts(kb)
    base_weights = kb.registry.edge_base_weights

    if memory_budget is None:
        records = sorted(_edge_records(kb))
        for group in _grouped(records):
            yield from _weight_group(group, links, base_weights, params)
        return

    total_bytes = sum(_record_size(r) for r in _edge_records(kb))
    partitions = min(MAX_PARTITIONS, max(1, -(-total_bytes // memory_budget)))
    logger.info("spilling %d bytes of edge records into %d partitions",
                total_bytes, partitions)
    try:
        with tempfile.TemporaryDirectory(
            prefix="kbtopics-edges-", dir=spill_dir
        ) as tmp:
            paths = [Path(tmp) / f"part-{i:03d}.bin" for i in range(partitions)]
            handles = [p.open("wb") for p in paths]
            try:
                for rec in _edge_records(kb):
                    _write_record(handles[crc32(rec[0].encode()) % partitions], rec)
            finally:
                for h in handles:
                    h.close()
            for path in paths:
                part = sorted(_read_records(path))
                for group in _grouped(part):
                    yield from _weight_group(group, links, base_weights, params)
    except OSError as exc:
        raise PipelineError(f"edge spill failed: {exc}") from exc


def build_adjacency(
    edges: Iterable[WeightedEdge],
) -> dict[Iri, tuple[tuple[Iri, float], ...]]:
    """Collapse weighted edges into a traversal map source -> (target, weight).

    Parallel edges between the same pair keep only the lowest weight, which
    preserves minimal traversal distances. Targets are sorted by (weight,
    target) so neighbor iteration can stop early at a distance cap.
    """
    best: dict[Iri, dict[Iri, float]] = {}
    for we in edges:
        row = best.setdefault(we.edge.s, {})
        prev = row.get(we.edge.o)
        if prev is None or we.weight < prev:
            row[we.edge.o] = we.weight
    return {
        s: tuple(sorted(((t, w) for t, w in row.items()), key=lambda x: (x[1], x[0])))
        for s, row in best.items()
    }
