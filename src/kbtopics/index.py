"""Persistent candidate index: retrieval, cached graph context, vectors.

An index directory holds four files:

  manifest.json   format version, counts, config/content hashes, timestamp
  records.jsonl   one record per indexed entity, sorted by URI
  postings.jsonl  inverted index, term -> [(text id, term frequency), ...]
  vectors.bin     precomputed vectors, columns addressed by text id (see
                  vector_store)

An entity is indexed iff it has at least one registered text field. Each
record carries the entity's texts, its expanded neighborhood (itself first
at distance 0), and its parents with weights. Texts are numbered in record
order, then text order within a record; that text id addresses both the
postings and the vector columns, so a record's texts are one contiguous
id range and need no stored handles.

Opening an index checks it against its manifest: the format version, the
record, text and embedding-dimension counts, the vector file's own layout
and the content hash (sha256 over records, postings and vectors, in that
order).

Retrieval scoring is deliberately simple and fully documented: per text,
sum over matched query tokens of tf * idf / sqrt(text length), with
idf = 1 + ln(N / (1 + df)); a text's contribution is weighted by its field's
search weight and summed per entity. When no token matches anywhere, the
query falls back to character 3-grams with the same formula. Postings terms
are namespaced "t:" for tokens and "g:" for 3-grams.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

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

FORMAT_VERSION = 2

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

    def __post_init__(self) -> None:
        if len(self.related_entities) != len(self.related_weights):
            raise ValueError("related lists must be parallel")
        if len(self.parent_entities) != len(self.parent_weights):
            raise ValueError("parent lists must be parallel")
        if not self.related_entities or self.related_entities[0] != self.uri \
                or self.related_weights[0] != 0.0:
            raise ValueError("related list must start with the entity itself at 0")


class Related(NamedTuple):
    """Every record's related list as one CSR over entity ids: record p's
    neighbors are ``ids[indptr[p]:indptr[p + 1]]`` at ``distances`` from it.
    An id below the record count is that record's position."""

    indptr: np.ndarray
    ids: np.ndarray
    distances: np.ndarray


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
    }, sort_keys=True)


def _records_from_jsonl(text: str) -> tuple[list[IndexRecord], Related]:
    """Parse records.jsonl into records and their related lists as CSR.

    Every distinct IRI string becomes one ``Iri`` and one entity id: record
    positions first, then the related and parent entities that have no
    record, in order of first appearance. Those stay addressable because
    they can be where two candidates' neighborhoods meet. Lines are parsed
    one at a time, so no parsed line outlives its record.
    """
    ids: dict[str, int] = {}  # in order of first appearance, renumbered below
    iris: list[Iri] = []
    id_of, iri_of = ids.__getitem__, iris.__getitem__
    records: list[IndexRecord] = []
    record_ids: list[int] = []
    related_ids: list[int] = []
    related_dist: list[float] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        d = json.loads(line)
        for name in itertools.chain((d["uri"],), d["related"], d["parents"]):
            if name not in ids:
                ids[name] = len(iris)
                iris.append(Iri(name))
        related = list(map(id_of, d["related"]))
        record_ids.append(id_of(d["uri"]))
        records.append(IndexRecord(
            uri=iris[record_ids[-1]],
            texts=tuple((f, t, w) for f, t, w in d["texts"]),
            related_entities=tuple(map(iri_of, related)),
            related_weights=tuple(d["related_weights"]),
            parent_entities=tuple(map(iri_of, map(id_of, d["parents"]))),
            parent_weights=tuple(d["parent_weights"]),
        ))
        related_ids.extend(related)
        related_dist.extend(d["related_weights"])
    renumber = np.empty(len(iris), dtype=np.int64)
    renumber[record_ids] = np.arange(len(records))
    unrecorded = np.ones(len(iris), dtype=bool)
    unrecorded[record_ids] = False
    renumber[unrecorded] = len(records) + np.arange(np.count_nonzero(unrecorded))
    indptr = np.zeros(len(records) + 1, dtype=np.int64)
    np.cumsum([len(r.related_entities) for r in records], out=indptr[1:])
    return records, Related(
        indptr, renumber[np.array(related_ids, dtype=np.int64)],
        np.array(related_dist, dtype=np.float64))


def _hash_file(path: Path, digest) -> None:
    """Feed a file to the digest through ordinary chunked reads, so that
    verifying an opened index faults none of its pages into the memory map."""
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)


def _read_hashed(path: Path, digest) -> str:
    data = path.read_bytes()
    digest.update(data)
    return data.decode("utf-8")


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
        postings: dict[str, list[tuple[int, int]]] = {}
        with VectorStoreWriter(out / VECTORS_FILE, encoders.table.dim) as store:
            for uri in uris:
                texts = tuple((f, t, w) for f, t, w in entity_texts(kb, uri))
                for _, text, _ in texts:
                    text_id = store.put(encoders.lexical(text), encoders.semantic(text))
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
                ))
                text_count += len(texts)

        with (out / RECORDS_FILE).open("w", encoding="utf-8") as fh:
            for r in records:
                fh.write(_record_to_json(r) + "\n")
        with (out / POSTINGS_FILE).open("w", encoding="utf-8") as fh:
            for term in sorted(postings):
                fh.write(json.dumps(
                    {"term": term, "postings": sorted(postings[term])},
                    sort_keys=True) + "\n")

        digest = hashlib.sha256()
        for name in (RECORDS_FILE, POSTINGS_FILE, VECTORS_FILE):
            _hash_file(out / name, digest)
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
                 related: Related, postings: dict[str, list[tuple[int, int]]],
                 store: VectorStore):
        self.manifest = manifest
        self._records = records
        self._by_uri = {r.uri: i for i, r in enumerate(records)}
        for column in related:
            column.flags.writeable = False
        self._related = related
        self._postings = postings
        self._store = store
        # per global text id: owning record position, field weight, and
        # length normalizers for the token and gram scoring paths (lists,
        # which the per-posting scoring loop indexes fastest)
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
        # the same weights as an array for block gathers, and per record
        # position its first text id (one extra entry for the end)
        self._weights = np.array(self._text_weight, dtype=np.float64)
        self._text_start = np.zeros(len(records) + 1, dtype=np.int64)
        np.cumsum([len(r.texts) for r in records], out=self._text_start[1:])

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
        digest = hashlib.sha256()
        try:
            records, related = _records_from_jsonl(_read_hashed(path / RECORDS_FILE, digest))
            postings: dict[str, list[tuple[int, int]]] = {}
            for line in _read_hashed(path / POSTINGS_FILE, digest).splitlines():
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
        texts = sum(len(r.texts) for r in records)
        problem = ""
        if not texts == store.n_texts == manifest.text_count:
            problem = (f"text count: records {texts}, vectors {store.n_texts}, "
                       f"manifest {manifest.text_count}")
        elif store.dim != manifest.embedding_dim:
            problem = f"embedding dim: vectors {store.dim}, manifest {manifest.embedding_dim}"
        else:
            _hash_file(path / VECTORS_FILE, digest)
            if digest.hexdigest() != manifest.content_hash:
                problem = "content hash does not match the manifest"
        if problem:
            store.close()
            raise IndexIntegrityError(f"index {path}: {problem}")
        return cls(manifest, records, related, postings, store)

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

    def text_ids(self, uri: Iri) -> range:
        """Text ids of a record's texts, in the order of ``record.texts``;
        empty for an entity the index holds no record of."""
        pos = self._by_uri.get(uri)
        if pos is None:
            return range(0)
        return range(int(self._text_start[pos]), int(self._text_start[pos + 1]))

    def load_vectors(self, text_ids: Sequence[int]) -> tuple[LexicalRows, np.ndarray]:
        """Fetch the (lexical, semantic) vectors of the texts, one row per
        id in the given order: CSR lexical rows and an (n, D) matrix. An id
        outside the index raises IndexIntegrityError."""
        return self._store.gather(text_ids)

    def neighborhood(self, uri: Iri) -> Neighborhood | None:
        r = self.record(uri)
        if r is None:
            return None
        return Neighborhood(uri, tuple(zip(r.related_entities, r.related_weights)))

    def related(self, uri: Iri) -> tuple[np.ndarray, np.ndarray] | None:
        """A record's related entity ids and distances, itself first at 0:
        read-only views into the index; None for an entity without one."""
        pos = self._by_uri.get(uri)
        if pos is None:
            return None
        lo, hi = self._related.indptr[pos:pos + 2]
        return self._related.ids[lo:hi], self._related.distances[lo:hi]

    def candidate_block(self, uri: Iri) -> CandidateBlock:
        """Scoring rows for a candidate: every text of every related entity
        that is itself indexed, tagged with field weight and owner distance."""
        related = self.related(uri)
        if related is None:
            raise IndexIntegrityError(f"no index record for {uri}")
        ids, distances = related
        indexed = ids < len(self._records)
        ids, distances = ids[indexed], distances[indexed]
        starts = self._text_start[ids]
        counts = self._text_start[ids + 1] - starts
        ends = np.cumsum(counts)
        text_ids = np.repeat(starts - (ends - counts), counts) + np.arange(ends[-1])
        lex_rows, sem_matrix = self.load_vectors(text_ids)
        return CandidateBlock(
            entity=uri,
            lex_rows=lex_rows,
            sem_matrix=sem_matrix,
            field_weights=self._weights[text_ids],
            distances=np.repeat(distances, counts),
        )
