"""Persistent candidate index: retrieval, cached graph context, vectors.

An index directory holds four files:

  manifest.json   format version, counts, config/content hashes, timestamp
  records.jsonl   one record per indexed entity, sorted by URI
  postings.jsonl  inverted index, term -> [(text id, term frequency), ...]
  vectors.bin     precomputed vectors, offset-addressed (see vector_store)

An entity is indexed iff it has at least one registered text field. Each
record carries the entity's texts, its expanded neighborhood (itself first
at distance 0), its parents with weights, and vector handles per text.

Retrieval scoring is deliberately simple and fully documented: per text,
sum over matched query tokens of tf * idf / sqrt(text length), with
idf = 1 + ln(N / (1 + df)); a text's contribution is weighted by its field's
search weight and summed per entity. When no token matches anywhere, the
query falls back to character 3-grams with the same formula. Postings terms
are namespaced "t:" for tokens and "g:" for 3-grams.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, IndexFormatError, IndexIntegrityError
from .expansion import Neighborhood
from .kb import Iri, KnowledgeBase, entity_texts
from .ranking import CandidateBlock, LexicalRows
from .vector_store import VectorStore, VectorStoreWriter
from .vectors import (
    EmbeddingTable,
    NGRAM_SIZES,
    SparseVector,
    char_ngrams,
    lexical_vector,
    semantic_vector,
    tokenize,
)

logger = logging.getLogger(__name__)

FORMAT_VERSION = 1

MANIFEST_FILE = "manifest.json"
RECORDS_FILE = "records.jsonl"
POSTINGS_FILE = "postings.jsonl"
VECTORS_FILE = "vectors.bin"


@dataclass(frozen=True)
class ParentParams:
    alpha: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"parent alpha must be in (0,1), got {self.alpha}")


def compute_parents(
    kb: KnowledgeBase,
    entity: Iri,
    params: ParentParams,
    link_counts: Mapping[Iri, int],
) -> list[tuple[Iri, float]]:
    """One-hop parents along configured properties, weighted l(q)^(-alpha).

    Heavily linked parents are near-universal and get small weights.
    Deduplicated, sorted by IRI. Forward parents come from the entity's
    subject triples, inverse ones from the KB's (predicate, object) index,
    so the cost does not grow with the size of the KB.
    """
    found: set[Iri] = set()
    for pred, direction in kb.registry.parent_properties:
        if direction == "forward":
            found.update(t.obj for t in kb.subject_triples(entity)
                         if t.predicate == pred and isinstance(t.obj, Iri))
        else:
            found.update(kb.subjects_with(pred, entity))
    found.discard(entity)
    return [
        (q, float(max(link_counts.get(q, 1), 1)) ** -params.alpha)
        for q in sorted(found)
    ]


@dataclass(frozen=True)
class IndexRecord:
    uri: Iri
    texts: tuple[tuple[str, str, float], ...]
    related_entities: tuple[Iri, ...]
    related_weights: tuple[float, ...]
    parent_entities: tuple[Iri, ...]
    parent_weights: tuple[float, ...]
    vector_handles: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.related_entities) != len(self.related_weights):
            raise ValueError("related lists must be parallel")
        if len(self.parent_entities) != len(self.parent_weights):
            raise ValueError("parent lists must be parallel")
        if len(self.vector_handles) != len(self.texts):
            raise ValueError("one vector handle pair per text required")
        if not self.related_entities or self.related_entities[0] != self.uri \
                or self.related_weights[0] != 0.0:
            raise ValueError("related list must start with the entity itself at 0")


@dataclass(frozen=True)
class CandidateHit:
    record: IndexRecord
    retrieval_score: float


@dataclass(frozen=True)
class IndexManifest:
    format_version: int
    record_count: int
    text_count: int
    embedding_dim: int
    config_hash: str
    content_hash: str
    created_at: str

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class Encoders:
    """Text-to-vector functions used at build time and query time."""

    table: EmbeddingTable
    ngram_sizes: tuple[int, ...] = NGRAM_SIZES

    def lexical(self, text: str) -> SparseVector:
        return lexical_vector(text, self.ngram_sizes)

    def semantic(self, text: str) -> np.ndarray:
        return semantic_vector(text, self.table)


def _record_to_json(r: IndexRecord) -> str:
    return json.dumps({
        "uri": r.uri,
        "texts": [list(t) for t in r.texts],
        "related": list(r.related_entities),
        "related_weights": list(r.related_weights),
        "parents": list(r.parent_entities),
        "parent_weights": list(r.parent_weights),
        "vector_handles": [list(h) for h in r.vector_handles],
    }, sort_keys=True)


def _record_from_json(line: str) -> IndexRecord:
    d = json.loads(line)
    return IndexRecord(
        uri=Iri(d["uri"]),
        texts=tuple((f, t, w) for f, t, w in d["texts"]),
        related_entities=tuple(Iri(e) for e in d["related"]),
        related_weights=tuple(d["related_weights"]),
        parent_entities=tuple(Iri(e) for e in d["parents"]),
        parent_weights=tuple(d["parent_weights"]),
        vector_handles=tuple((a, b) for a, b in d["vector_handles"]),
    )


def build_index(
    kb: KnowledgeBase,
    neighborhoods: Mapping[Iri, Neighborhood],
    parents: Mapping[Iri, Sequence[tuple[Iri, float]]],
    encoders: Encoders,
    out_dir: str | Path,
    config_hash: str = "",
) -> IndexManifest:
    """Write a complete index directory; returns its manifest.

    Rebuilding from identical inputs reproduces every byte except the
    manifest timestamp (the content hash covers the three data files).
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        uris = sorted(e for e in kb.entities if entity_texts(kb, e))
        if len(set(uris)) != len(uris):
            raise DataError("duplicate entity URI during index build")

        text_count = 0
        records: list[IndexRecord] = []
        with VectorStoreWriter(out / VECTORS_FILE) as store:
            for uri in uris:
                texts = tuple((f, t, w) for f, t, w in entity_texts(kb, uri))
                handles = []
                for _, text, _ in texts:
                    handles.append((
                        store.put_lexical(encoders.lexical(text)),
                        store.put_semantic(encoders.semantic(text)),
                    ))
                nbh = neighborhoods.get(uri)
                related = nbh.neighbors if nbh is not None else ((uri, 0.0),)
                entity_parents = tuple(parents.get(uri, ()))
                records.append(IndexRecord(
                    uri=uri,
                    texts=texts,
                    related_entities=tuple(e for e, _ in related),
                    related_weights=tuple(d for _, d in related),
                    parent_entities=tuple(q for q, _ in entity_parents),
                    parent_weights=tuple(w for _, w in entity_parents),
                    vector_handles=tuple(handles),
                ))
                text_count += len(texts)

        with (out / RECORDS_FILE).open("w", encoding="utf-8") as fh:
            for r in records:
                fh.write(_record_to_json(r) + "\n")

        postings: dict[str, list[tuple[int, int]]] = {}
        text_id = 0
        for r in records:
            for _, text, _ in r.texts:
                token_counts: dict[str, int] = {}
                for tok in tokenize(text):
                    token_counts[tok] = token_counts.get(tok, 0) + 1
                gram_counts: dict[str, int] = {}
                for gram in char_ngrams(text, (3,)):
                    gram_counts[gram] = gram_counts.get(gram, 0) + 1
                for tok, tf in token_counts.items():
                    postings.setdefault("t:" + tok, []).append((text_id, tf))
                for gram, tf in gram_counts.items():
                    postings.setdefault("g:" + gram, []).append((text_id, tf))
                text_id += 1
        with (out / POSTINGS_FILE).open("w", encoding="utf-8") as fh:
            for term in sorted(postings):
                fh.write(json.dumps(
                    {"term": term, "postings": sorted(postings[term])},
                    sort_keys=True) + "\n")

        digest = hashlib.sha256()
        for name in (RECORDS_FILE, POSTINGS_FILE, VECTORS_FILE):
            digest.update((out / name).read_bytes())
        manifest = IndexManifest(
            format_version=FORMAT_VERSION,
            record_count=len(records),
            text_count=text_count,
            embedding_dim=encoders.table.dim,
            config_hash=config_hash,
            content_hash=digest.hexdigest(),
            created_at=datetime.now(timezone.utc).isoformat(),
        )
        (out / MANIFEST_FILE).write_text(manifest.to_json(), encoding="utf-8")
    except OSError as exc:
        raise DataError(f"index build failed in {out}: {exc}") from exc
    logger.info("built index: %d records, %d texts", manifest.record_count, text_count)
    return manifest


class CandidateIndex:
    """Opened index directory: retrieval plus record and vector access."""

    def __init__(self, manifest: IndexManifest, records: list[IndexRecord],
                 postings: dict[str, list[tuple[int, int]]], store: VectorStore):
        self.manifest = manifest
        self._records = records
        self._by_uri = {r.uri: i for i, r in enumerate(records)}
        self._postings = postings
        self._store = store
        # per global text id: owning record position, field weight, and
        # length normalizers for the token and gram scoring paths
        self._text_owner: list[int] = []
        self._text_weight: list[float] = []
        self._token_norm: list[float] = []
        self._gram_norm: list[float] = []
        for pos, r in enumerate(records):
            for _, text, weight in r.texts:
                self._text_owner.append(pos)
                self._text_weight.append(weight)
                self._token_norm.append(math.sqrt(max(len(tokenize(text)), 1)))
                self._gram_norm.append(math.sqrt(max(len(char_ngrams(text, (3,))), 1)))

    @classmethod
    def open(cls, path: str | Path) -> "CandidateIndex":
        path = Path(path)
        try:
            raw = json.loads((path / MANIFEST_FILE).read_text(encoding="utf-8"))
        except OSError as exc:
            raise IndexFormatError(f"cannot open index at {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise IndexFormatError(f"corrupt manifest in {path}: {exc}") from exc
        try:
            manifest = IndexManifest(**raw)
        except TypeError as exc:
            raise IndexFormatError(f"manifest fields wrong in {path}: {exc}") from exc
        if manifest.format_version != FORMAT_VERSION:
            raise IndexFormatError(
                f"index format {manifest.format_version} unsupported "
                f"(this build reads {FORMAT_VERSION})")
        try:
            records = [
                _record_from_json(line)
                for line in (path / RECORDS_FILE).read_text(encoding="utf-8").splitlines()
                if line.strip()
            ]
            postings: dict[str, list[tuple[int, int]]] = {}
            for line in (path / POSTINGS_FILE).read_text(encoding="utf-8").splitlines():
                if line.strip():
                    d = json.loads(line)
                    postings[d["term"]] = [(t, f) for t, f in d["postings"]]
        except OSError as exc:
            raise IndexFormatError(f"missing index file in {path}: {exc}") from exc
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise IndexFormatError(f"corrupt index file in {path}: {exc}") from exc
        if len(records) != manifest.record_count:
            raise IndexIntegrityError(
                f"record count {len(records)} != manifest {manifest.record_count}")
        store = VectorStore(path / VECTORS_FILE)
        return cls(manifest, records, postings, store)

    def close(self) -> None:
        self._store.close()

    def __enter__(self) -> "CandidateIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> tuple[IndexRecord, ...]:
        return tuple(self._records)

    def record(self, uri: Iri) -> IndexRecord | None:
        pos = self._by_uri.get(uri)
        return self._records[pos] if pos is not None else None

    def _score_terms(self, terms: Mapping[str, int], prefix: str,
                     norms: list[float]) -> dict[int, float]:
        """tf-idf accumulation of query terms into per-record scores."""
        n_texts = max(len(self._text_owner), 1)
        scores: dict[int, float] = {}
        for term in sorted(terms):
            plist = self._postings.get(prefix + term)
            if not plist:
                continue
            idf = 1.0 + math.log(n_texts / (1.0 + len(plist)))
            for text_id, tf in plist:
                gain = self._text_weight[text_id] * tf * idf / norms[text_id]
                owner = self._text_owner[text_id]
                scores[owner] = scores.get(owner, 0.0) + gain
        return scores

    def query(self, mention_text: str, k: int = 30) -> list[CandidateHit]:
        """Top-k records by field-weighted token tf-idf; 3-gram fallback
        when no token matches at all. Ties break by URI."""
        if k < 1:
            raise ConfigError(f"k must be positive, got {k}")
        tokens: dict[str, int] = {}
        for tok in tokenize(mention_text):
            tokens[tok] = tokens.get(tok, 0) + 1
        if not tokens:
            return []
        scores = self._score_terms(tokens, "t:", self._token_norm)
        if not scores:
            grams: dict[str, int] = {}
            for gram in char_ngrams(mention_text, (3,)):
                grams[gram] = grams.get(gram, 0) + 1
            scores = self._score_terms(grams, "g:", self._gram_norm)
        ranked = sorted(scores.items(),
                        key=lambda kv: (-kv[1], self._records[kv[0]].uri))
        return [CandidateHit(self._records[pos], score) for pos, score in ranked[:k]]

    def load_vectors(
        self, handles: Sequence[tuple[int, int]]
    ) -> tuple[LexicalRows, np.ndarray]:
        """Fetch the (lexical, semantic) vectors of the handles, one row per
        handle in handle order: CSR lexical rows and an (n, D) matrix."""
        lex = LexicalRows.stack([self._store.read_lexical(h[0]) for h in handles])
        sem = [self._store.read_semantic(h[1]) for h in handles]
        dim = self.manifest.embedding_dim
        return lex, np.vstack(sem) if sem else np.zeros((0, dim))

    def neighborhood(self, uri: Iri) -> Neighborhood | None:
        r = self.record(uri)
        if r is None:
            return None
        return Neighborhood(uri, tuple(zip(r.related_entities, r.related_weights)))

    def candidate_block(self, uri: Iri) -> CandidateBlock:
        """Scoring rows for a candidate: every text of every related entity
        that is itself indexed, tagged with field weight and owner distance."""
        record = self.record(uri)
        if record is None:
            raise IndexIntegrityError(f"no index record for {uri}")
        handles: list[tuple[int, int]] = []
        weights: list[float] = []
        distances: list[float] = []
        for entity, dist in zip(record.related_entities, record.related_weights):
            rec = self.record(entity)
            if rec is None:
                continue
            handles.extend(rec.vector_handles)
            weights.extend(field_weight for _, _, field_weight in rec.texts)
            distances.extend([dist] * len(rec.texts))
        lex_rows, sem_matrix = self.load_vectors(handles)
        return CandidateBlock(
            entity=uri,
            lex_rows=lex_rows,
            sem_matrix=sem_matrix,
            field_weights=np.array(weights, dtype=np.float64),
            distances=np.array(distances, dtype=np.float64),
        )
