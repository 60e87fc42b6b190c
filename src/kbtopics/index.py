"""Persistent candidate index: retrieval, cached graph context, vectors.

``build_index`` writes the manifest and two data files:

  manifest.json  format version, counts, the encoders the vectors were
                 made with, config/content hashes, timestamp
  strings.json   string table: entity IRIs, field names, texts, and the
                 token and 3-gram terms of the postings
  columns.bin    records, postings and precomputed vectors as arrays over
                 those strings and text ids

An entity is indexed iff it has at least one registered text field; its
record holds its texts, its expanded neighborhood (itself first at distance
0) and its parents with weights. The index names the records, the entities
of their neighborhoods and their parents; an entity's id is its rank in IRI
order, the KB's own order, so every id orders as its IRI does. Every entity
has a row in each per-entity section; a record's rows are its neighborhood,
parents and texts, and every other entity's rows are empty (those entities
stay addressable because they can be where two neighborhoods meet). A record
is an entity with a neighborhood, and its position is its entity id. Texts
are numbered in record order, then text order within a record; that text id
addresses the texts, the postings and the vectors, so a record's texts are
one contiguous id range.

``columns.bin`` is little-endian: an 8-byte magic, one ``<u8`` element
count per section, then the sections in this order, each zero-padded to a
whole number of 8-byte words:

  related_indptr     <i8  entity e's neighborhood is [indptr[e], indptr[e+1])
  related_ids        <i4    entity ids, the record itself first
  related_distances  <f8    distances, 0 for the record itself
  parent_indptr      <i8  entity e's parents
  parent_ids         <i4    entity ids
  parent_weights     <f8    weights
  text_indptr        <i8  entity e's texts (a text-id range)
  text_fields        <i4    field ids
  text_weights       <f8    the fields' search weights
  posting_indptr     <i8  term t's postings, token terms first, then 3-grams
  posting_texts      <i4    text ids, ascending
  posting_tfs        <i4    term frequencies
  gram_vocab         <u8  lexical vectors by gram: gram hashes, strictly ascending
  gram_indptr        <i8  gram g's postings
  gram_texts         <i4    text ids, ascending within a gram
  gram_values        <f8    the gram's weight in each text's lexical vector
  semantic           <f8  semantic vectors, text_count x embedding_dim
                          elements: one row per text id

A section's count is its number of elements, so the semantic matrix counts
its elements, not its rows.

``strings.json`` holds the lists ``entities`` (by entity id, so sorted),
``fields`` (by field id), ``texts`` (by text id), ``tokens`` and ``grams``
(by term id, each sorted; gram term ids follow the token ones).

Opening an index reads the string table whole, memory-maps the column file
once and views every section over that map with ``np.frombuffer``; it
builds nothing per record. It checks the index against its manifest (format
version, record and text counts, the semantic matrix's size against the
embedding dimension), the sections against each other (sizes, row pointers,
one row per entity in each per-entity section, id ranges, every term having
a posting, the gram vocabulary's order, as many neighborhoods as records,
each starting with its own entity at distance 0, no texts or parents on an
entity without one, the entity IRIs, tokens and grams strictly ascending,
every entity IRI valid) and the content hash (sha256 over strings and
columns, in that order, read in chunks so that it faults none of the map's
pages in). Closing drops the index's views; the map, and its file, go with
the last view, so a view of ``related`` taken before stays readable.

An opened index addresses records by position, and a record's position is
its entity id: retrieval returns positions, ``candidate_blocks`` and
``label`` take them, and ``related`` and ``parents`` have a row for each;
``position`` finds a URI's by binary search over the sorted entity IRIs.
Since entity ids order as IRIs do, ties that break by position break in URI
order. Its texts' vectors are views of the map, read as they are:
``lexical``, the gram sections as ``LexicalColumns`` (whose kernel refuses
a text id outside the index), and ``semantic``, the text count x embedding
dimension matrix.

The manifest names the encoders the vectors were made with: the embedding
dimension, the n-gram sizes and the embedding table's digest.
``IndexManifest.encoder_mismatch`` tells what differs from other encoders.

Retrieval scoring is deliberately simple and fully documented: per text,
sum over matched query tokens of tf * idf / sqrt(text length), with
idf = 1 + ln(N / (1 + df)); a text's contribution is weighted by its field's
search weight and summed per entity, term by term in sorted order and each
term's postings in text-id order. A query none of whose tokens matches
falls back to character 3-grams with the same formula. A text's length in
tokens (or 3-grams) is the sum of its token (or 3-gram) term frequencies.
A batch of queries is scored in one array pass, each query's terms (its
known tokens, or else its known 3-grams) chosen before any is scored.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import logging
import math
import mmap
import operator
import os
import shutil
import struct
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .edges import powers
from .errors import ConfigError, DataError, IndexFormatError, IndexIntegrityError
from .expansion import Neighborhoods
from .kb import EntityTexts, KnowledgeBase, check_iris
from .ranking import CandidateBlocks
from .vectors import (
    EmbeddingTable,
    LexicalColumns,
    NGRAM_SIZES,
    TextBatch,
    char_ngrams,
    ranges,
    tokenize,
)

logger = logging.getLogger(__name__)

FORMAT_VERSION = 6

MANIFEST_FILE = "manifest.json"
STRINGS_FILE = "strings.json"
COLUMNS_FILE = "columns.bin"

COLUMNS_MAGIC = b"KBTCOL06"
COLUMNS = (  # the sections of columns.bin, in file order
    ("related_indptr", "<i8"),
    ("related_ids", "<i4"),
    ("related_distances", "<f8"),
    ("parent_indptr", "<i8"),
    ("parent_ids", "<i4"),
    ("parent_weights", "<f8"),
    ("text_indptr", "<i8"),
    ("text_fields", "<i4"),
    ("text_weights", "<f8"),
    ("posting_indptr", "<i8"),
    ("posting_texts", "<i4"),
    ("posting_tfs", "<i4"),
    ("gram_vocab", "<u8"),
    ("gram_indptr", "<i8"),
    ("gram_texts", "<i4"),
    ("gram_values", "<f8"),
    ("semantic", "<f8"),
)
_COLUMNS_HEAD = struct.Struct(f"<8s{len(COLUMNS)}Q")  # magic, section lengths
STRING_LISTS = ("entities", "fields", "texts", "tokens", "grams")


@dataclass(frozen=True)
class ParentParams:
    alpha: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"parent alpha must be in (0,1), got {self.alpha}")


class Related(NamedTuple):
    """Related (or parent) lists as one CSR over entity ids: row e's entries
    are ``ids[indptr[e]:indptr[e + 1]]`` with those ``distances`` (or
    weights). In an index every entity has a row, empty unless the entity
    is a record."""

    indptr: np.ndarray
    ids: np.ndarray
    distances: np.ndarray


def compute_parents(kb: KnowledgeBase, params: ParentParams, link_counts: np.ndarray) -> Related:
    """One-hop parents along configured properties (forward: subject to IRI
    object; inverse: back), weighted l(q)^(-alpha) so that heavily linked,
    near-universal parents weigh little. Row e of the CSR over KB ids holds
    entity e's parents, deduplicated, without e itself, ascending."""
    n = len(kb.entities)
    keys = [np.zeros(0, dtype=np.int64)]  # child * n + parent
    for pred, direction in kb.registry.parent_properties:
        on = kb.with_predicate((pred,)) & (kb.object_ids >= 0) & (kb.subject_ids != kb.object_ids)
        s, o = kb.subject_ids[on], kb.object_ids[on]
        keys.append(s * n + o if direction == "forward" else o * n + s)
    child, parent = np.divmod(np.unique(np.concatenate(keys)), n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(child, minlength=n), out=indptr[1:])
    return Related(indptr, parent, powers(np.maximum(link_counts[parent], 1), -params.alpha))


@dataclass(frozen=True)
class IndexManifest:
    format_version: int
    record_count: int
    text_count: int
    embedding_dim: int
    embedding_sha256: str
    ngram_sizes: list[int]
    config_hash: str
    content_hash: str
    created_at: str

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True, indent=2) + "\n"

    def encoder_mismatch(self, encoders: Encoders) -> str:
        """What differs between the encoders the index was built with and
        the given ones; "" if nothing."""
        table, sizes = encoders.table, list(encoders.ngram_sizes)
        if table.dim != self.embedding_dim:
            return (f"embedding dimension {table.dim}, "
                    f"but the index was built with {self.embedding_dim}")
        if sizes != self.ngram_sizes:
            return f"n-gram sizes {sizes}, but the index was built with {self.ngram_sizes}"
        if table.digest != self.embedding_sha256:
            return "embedding table differs from the one the index was built with"
        return ""


def _is_a(value: object, annotation: str) -> bool:
    """Whether a manifest's JSON value has its field's annotated type:
    ``int`` (not ``bool``), ``str`` or ``list[...]`` of one of those."""
    if annotation.startswith("list["):
        return isinstance(value, list) and all(_is_a(v, annotation[5:-1]) for v in value)
    return isinstance(value, {"int": int, "str": str}[annotation]) and not isinstance(value, bool)


@dataclass(frozen=True)
class Encoders:
    """What a build encodes texts with: the embedding table and the n-gram
    sizes of the lexical vectors."""

    table: EmbeddingTable
    ngram_sizes: tuple[int, ...] = NGRAM_SIZES


def write_columns(path: Path, columns: Mapping[str, Iterable]) -> None:
    """Write columns.bin from one array or sequence of values per section."""
    arrays = [np.ascontiguousarray(columns[name], dtype=dtype) for name, dtype in COLUMNS]
    with path.open("wb") as fh:
        fh.write(_COLUMNS_HEAD.pack(COLUMNS_MAGIC, *(array.size for array in arrays)))
        # arrays are written through their buffers, without a bytes copy
        for array in arrays:
            fh.write(array)
            fh.write(bytes(-array.nbytes % 8))


def read_columns(data: bytes | mmap.mmap) -> dict[str, np.ndarray]:
    """The sections of a columns.bin image (its bytes, or a map of the
    file), as read-only views over it."""
    if len(data) < _COLUMNS_HEAD.size or data[:len(COLUMNS_MAGIC)] != COLUMNS_MAGIC:
        raise IndexFormatError(f"{COLUMNS_FILE} is not an index column file (bad magic)")
    lengths = _COLUMNS_HEAD.unpack_from(data)[1:]
    padded = [-(-n * np.dtype(dtype).itemsize // 8) * 8
              for n, (_, dtype) in zip(lengths, COLUMNS)]
    expected = _COLUMNS_HEAD.size + sum(padded)
    if len(data) != expected:
        raise IndexIntegrityError(
            f"{COLUMNS_FILE} is {len(data)} bytes, its header implies {expected}")
    columns, offset = {}, _COLUMNS_HEAD.size
    for (name, dtype), n, size in zip(COLUMNS, lengths, padded):
        columns[name] = np.frombuffer(data, dtype, n, offset)
        offset += size
    return columns


def _read_strings(data: bytes) -> dict[str, list[str]]:
    """The string table; ValueError unless it holds every list, all strings."""
    strings = json.loads(data)
    if not isinstance(strings, dict) or not all(
            isinstance(strings.get(key), list) for key in STRING_LISTS):
        raise ValueError(f"{STRINGS_FILE} must hold the lists {', '.join(STRING_LISTS)}")
    for key in STRING_LISTS:
        try:
            "".join(strings[key])
        except TypeError:
            raise ValueError(f"{STRINGS_FILE}: {key} holds a non-string") from None
    return strings


def _layout_problem(columns: Mapping[str, np.ndarray], strings: Mapping[str, list[str]],
                    manifest: IndexManifest) -> str:
    """What disagrees between the sections, the string table and the
    manifest; "" if nothing."""
    n_entities = len(strings["entities"])
    n_texts = len(strings["texts"])
    if not n_texts == len(columns["text_fields"]) == manifest.text_count:
        return (f"text count: strings {n_texts}, columns {len(columns['text_fields'])}, "
                f"manifest {manifest.text_count}")
    n_terms = len(strings["tokens"]) + len(strings["grams"])
    for indptr, rows, values in (
        ("related_indptr", n_entities, ("related_ids", "related_distances")),
        ("parent_indptr", n_entities, ("parent_ids", "parent_weights")),
        ("text_indptr", n_entities, ("text_fields", "text_weights")),
        ("posting_indptr", n_terms, ("posting_texts", "posting_tfs")),
        ("gram_indptr", len(columns["gram_vocab"]), ("gram_texts", "gram_values")),
    ):
        ptr, size = columns[indptr], len(columns[values[0]])
        if len(ptr) != rows + 1 or len(columns[values[1]]) != size \
                or ptr[0] != 0 or ptr[-1] != size or np.any(ptr[1:] < ptr[:-1]):
            return f"{indptr} does not fit its sections"
    if np.any(columns["posting_indptr"][1:] == columns["posting_indptr"][:-1]):
        return "a term without postings"
    for name, bound in (("related_ids", n_entities),
                        ("parent_ids", n_entities),
                        ("text_fields", len(strings["fields"])),
                        ("posting_texts", n_texts),
                        ("gram_texts", n_texts)):
        ids = columns[name]
        if ids.size and (ids.min() < 0 or ids.max() >= bound):
            return f"{name} out of range [0, {bound})"
    records = np.diff(columns["related_indptr"]) > 0
    if np.count_nonzero(records) != manifest.record_count:
        return f"record count {np.count_nonzero(records)} != manifest {manifest.record_count}"
    starts = columns["related_indptr"][:-1][records]
    if np.any(columns["related_ids"][starts] != np.flatnonzero(records)) \
            or np.any(columns["related_distances"][starts] != 0.0):
        return "a neighborhood does not start with its record at distance 0"
    for indptr in ("parent_indptr", "text_indptr"):
        if np.any(np.diff(columns[indptr])[~records]):
            return f"{indptr} gives a row to an entity without a record"
    vocab = columns["gram_vocab"]
    if np.any(vocab[1:] <= vocab[:-1]):
        return "gram vocabulary not ascending"
    if len(columns["semantic"]) != n_texts * manifest.embedding_dim:
        return (f"semantic size {len(columns['semantic'])} != text count {n_texts} "
                f"x embedding dim {manifest.embedding_dim}")
    if columns["posting_tfs"].size and columns["posting_tfs"].min() < 1:
        return "a term frequency below 1"
    # the lists written sorted are checked to ascend, which also rules out
    # duplicates
    for key, names in (("entity IRIs", strings["entities"]),
                       ("tokens", strings["tokens"]), ("grams", strings["grams"])):
        if not all(map(operator.lt, names, names[1:])):
            return f"{key} not strictly ascending"
    return ""


def _hash_file(path: Path, digest) -> None:
    """Feed a file to the digest through ordinary chunked reads, so that
    verifying an opened index faults none of its pages into the memory map."""
    with path.open("rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)


def _read_hashed(path: Path, digest) -> bytes:
    data = path.read_bytes()
    digest.update(data)
    return data


def _length_norms(split: int, text_ids: np.ndarray, tfs: np.ndarray, n_texts: int) -> np.ndarray:
    """sqrt(max(length, 1)) by term kind and text id, a text's length summing
    its token postings' (``[:split]``, row 0) or gram postings' (row 1) tfs."""
    lengths = [np.bincount(text_ids[part], weights=tfs[part], minlength=n_texts)
               for part in (slice(None, split), slice(split, None))]
    return np.sqrt(np.maximum(lengths, 1.0))


class Hits(NamedTuple):
    """Hits by query: query j's are the next ``counts[j]`` positions and scores, best first."""

    positions: np.ndarray
    scores: np.ndarray
    counts: np.ndarray


def build_index(
    texts: EntityTexts,
    neighborhoods: Neighborhoods,
    parents: Related,
    encoders: Encoders,
    out_dir: str | Path,
    config_hash: str = "",
) -> IndexManifest:
    """Write a complete index directory; returns its manifest.

    ``texts`` are the records' texts as ``entity_texts`` gives them: every
    entity it lists becomes a record, and their ids must strictly ascend.
    The neighborhoods' seeds must be those ids, in the same order (otherwise
    ValueError), and ``parents`` a CSR over the same KB ids, as
    ``compute_parents`` gives it; IRIs come from ``neighborhoods.entities``.
    Rebuilding from identical inputs reproduces every byte except the
    manifest timestamp (the content hash covers the two data files).
    """
    if np.any(texts.ids[1:] <= texts.ids[:-1]):
        raise ValueError("the records' ids do not strictly ascend")
    if not np.array_equal(neighborhoods.seeds, texts.ids):
        raise ValueError("the neighborhoods' seeds are not the records in record order")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        columns, entities = _graph_columns(neighborhoods, parents, texts.indptr)
        columns.update(text_fields=texts.field_ids, text_weights=texts.weights)

        batch = TextBatch(texts.texts)
        lexical = batch.lexical_columns(encoders.ngram_sizes)
        columns.update(gram_vocab=lexical.vocab, gram_indptr=lexical.indptr,
                       gram_texts=lexical.texts, gram_values=lexical.values,
                       semantic=batch.semantic_matrix(encoders.table))
        tokens, grams = batch.token_postings(), batch.gram_postings(3)
        columns["posting_indptr"] = np.concatenate(
            (tokens.indptr, grams.indptr[1:] + tokens.indptr[-1]))
        columns["posting_texts"] = np.concatenate((tokens.texts, grams.texts))
        columns["posting_tfs"] = np.concatenate((tokens.counts, grams.counts))
        write_columns(out / COLUMNS_FILE, columns)
        strings = {"entities": entities, "fields": texts.fields,
                   "texts": texts.texts, "tokens": tokens.terms, "grams": grams.terms}
        (out / STRINGS_FILE).write_text(
            json.dumps(strings, separators=(",", ":")) + "\n", encoding="utf-8")

        digest = hashlib.sha256()
        for name in (STRINGS_FILE, COLUMNS_FILE):
            _hash_file(out / name, digest)
        manifest = IndexManifest(
            format_version=FORMAT_VERSION,
            record_count=len(texts.ids),
            text_count=len(texts.texts),
            embedding_dim=encoders.table.dim,
            embedding_sha256=encoders.table.digest,
            ngram_sizes=list(encoders.ngram_sizes),
            config_hash=config_hash,
            content_hash=digest.hexdigest(),
            created_at=datetime.now(timezone.utc).isoformat(),
        )
        (out / MANIFEST_FILE).write_text(manifest.to_json(), encoding="utf-8")
    except OSError as exc:
        raise DataError(f"index build failed in {out}: {exc}") from exc
    logger.info("built index: %d records, %d texts", manifest.record_count, manifest.text_count)
    return manifest


def _graph_columns(hoods: Neighborhoods, parents: Related, text_indptr: np.ndarray
                   ) -> tuple[dict[str, np.ndarray], list[Iri]]:
    """The per-entity sections and the entity IRIs by entity id. The
    records are the neighborhoods' seeds, ascending, and ``text_indptr``
    their texts' row pointer; ``parents`` is a CSR over the same KB ids.
    The entities are the ids in the neighborhoods and the records' parents,
    each numbered by its rank, so in the KB's order. A record's rows are its
    neighborhood, its row of ``parents`` and its texts; every other
    entity's rows are empty."""
    records = hoods.seeds
    lo = parents.indptr[records]
    parent_counts = parents.indptr[records + 1] - lo
    parent_rows = ranges(lo, parent_counts)
    parent_nodes = parents.ids[parent_rows]
    named = np.unique(np.concatenate((hoods.ids, parent_nodes)))
    ends = np.searchsorted(named, records) + 1  # where each record's row ends

    def indptr(counts: np.ndarray) -> np.ndarray:
        ptr = np.zeros(named.shape[0] + 1, dtype=np.int64)
        ptr[ends] = counts
        return np.cumsum(ptr, out=ptr)

    columns = {
        "related_indptr": indptr(np.diff(hoods.indptr)),
        "related_ids": np.searchsorted(named, hoods.ids),
        "related_distances": hoods.distances,
        "parent_indptr": indptr(parent_counts),
        "parent_ids": np.searchsorted(named, parent_nodes),
        "parent_weights": parents.distances[parent_rows],
        "text_indptr": indptr(np.diff(text_indptr)),
    }
    return columns, [hoods.entities[i] for i in named.tolist()]


@contextmanager
def replacing_dir(out_dir: str | Path) -> Iterator[Path]:
    """Yield a new empty directory to build an index in; when the block
    completes, rename it to ``out_dir``, replacing an index there whole.

    ``out_dir`` is resolved through symbolic links and the directory is made
    beside it, so its parent must be writable. An existing ``out_dir`` must
    be an empty directory or hold an index (a manifest), and must not be a
    mount point; otherwise ``ConfigError``, before anything is written. If
    the block or the rename fails, ``out_dir`` is left as it was.
    """
    out = Path(os.path.realpath(out_dir))
    if out.exists():
        if not out.is_dir():
            raise ConfigError(f"output {out_dir} is not a directory")
        if any(out.iterdir()) and not (out / MANIFEST_FILE).is_file():
            raise ConfigError(
                f"output directory {out_dir} holds no index; only an index is replaced")
        if os.path.ismount(out):
            raise ConfigError(
                f"output directory {out_dir} is a mount point and cannot be replaced; "
                "build into a directory inside it")
    tmp = out.with_name(f".{out.name}.tmp-{os.getpid()}-{os.urandom(4).hex()}")
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        tmp.mkdir()
        yield tmp
        old = None
        if out.exists():
            old = tmp.with_name(tmp.name + ".old")
            out.rename(old)
        try:
            tmp.rename(out)
        except OSError:
            if old is not None:
                old.rename(out)
            raise
        if old is not None:
            shutil.rmtree(old, ignore_errors=True)
    except OSError as exc:
        raise DataError(f"index build failed in {out}: {exc}") from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


class CandidateIndex:
    """Opened index directory: retrieval plus record and vector access.
    ``names`` holds the entity IRIs by entity id, as strings; ``related``
    and ``parents`` every entity's neighborhood and parents; ``lexical`` and
    ``semantic`` the texts' vectors by text id."""

    def __init__(self, manifest: IndexManifest, strings: Mapping[str, list[str]],
                 columns: Mapping[str, np.ndarray], data: mmap.mmap):
        self.manifest = manifest
        self._map = data  # the column file, which every section views
        self.names = strings["entities"]
        self._fields = strings["fields"]
        self._texts = strings["texts"]
        n = self._n = len(self.names)
        self.related = Related(
            columns["related_indptr"], columns["related_ids"], columns["related_distances"])
        self.parents = Related(
            columns["parent_indptr"], columns["parent_ids"], columns["parent_weights"])
        # per entity id its first text id (one extra entry for the end), and
        # per text id its field, weight and owning record position
        self._text_indptr = columns["text_indptr"]
        self._text_fields = columns["text_fields"]
        self._text_weights = columns["text_weights"]
        self._text_owner = np.repeat(np.arange(n), np.diff(self._text_indptr))
        self._field_ids = {name: i for i, name in enumerate(self._fields)}
        # postings: term -> term id -> [ptr[id], ptr[id + 1]) of the columns;
        # the length normalizers by term kind (token, gram) and text id
        n_tokens = self._n_tokens = len(strings["tokens"])
        self._token_terms = dict(zip(strings["tokens"], range(n_tokens)))
        self._gram_terms = dict(zip(strings["grams"], itertools.count(n_tokens)))
        self._posting_indptr = columns["posting_indptr"]
        self._posting_texts = columns["posting_texts"]
        self._posting_tfs = columns["posting_tfs"]
        n_texts = self.text_count = len(self._texts)
        self._norms = _length_norms(self._posting_indptr[n_tokens], self._posting_texts,
                                    self._posting_tfs, n_texts)
        self.lexical = LexicalColumns(columns["gram_vocab"], columns["gram_indptr"],
                                      columns["gram_texts"], columns["gram_values"], n_texts)
        self.semantic = columns["semantic"].reshape(n_texts, manifest.embedding_dim)

    @classmethod
    def open(cls, path: str | Path) -> "CandidateIndex":
        path = Path(path)
        try:
            raw = json.loads((path / MANIFEST_FILE).read_text(encoding="utf-8"))
        except OSError as exc:
            raise IndexFormatError(f"cannot open index at {path}: {exc}") from exc
        except ValueError as exc:  # bad JSON or UTF-8, an integer too long to convert
            raise IndexFormatError(f"corrupt manifest in {path}: {exc}") from exc
        if isinstance(raw, dict) and raw.get("format_version") != FORMAT_VERSION:
            raise IndexFormatError(
                f"index format {raw.get('format_version')} unsupported "
                f"(this build reads {FORMAT_VERSION}; rebuild the index)")
        try:
            manifest = IndexManifest(**raw)
        except TypeError as exc:
            raise IndexFormatError(f"manifest fields wrong in {path}: {exc}") from exc
        for f in fields(IndexManifest):
            value = getattr(manifest, f.name)
            if not _is_a(value, f.type):
                raise IndexFormatError(
                    f"manifest fields wrong in {path}: {f.name} is not {f.type}: {value!r}")
        digest = hashlib.sha256()
        try:
            strings = _read_strings(_read_hashed(path / STRINGS_FILE, digest))
            with (path / COLUMNS_FILE).open("rb") as fh:
                data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            columns = read_columns(data)
            _hash_file(path / COLUMNS_FILE, digest)
            check_iris(strings["entities"])
        except OSError as exc:
            raise IndexFormatError(f"missing index file in {path}: {exc}") from exc
        except ValueError as exc:
            # bad JSON or UTF-8, a malformed table, an empty column file
            # (which cannot be mapped), an invalid IRI
            raise IndexFormatError(f"corrupt index file in {path}: {exc}") from exc
        problem = _layout_problem(columns, strings, manifest)
        if not problem and digest.hexdigest() != manifest.content_hash:
            problem = "content hash does not match the manifest"
        if problem:
            raise IndexIntegrityError(f"index {path}: {problem}")
        return cls(manifest, strings, columns, data)

    def close(self) -> None:
        """Drop all the index holds; any later read raises ValueError. The map
        goes with its last view, so views handed out before stay readable."""
        self.__dict__.clear()
        self.__class__ = _ClosedIndex

    def __enter__(self) -> "CandidateIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return self.manifest.record_count

    def position(self, uri: str) -> int | None:
        """The record position of a URI; None for an entity without a record."""
        pos = bisect.bisect_left(self.names, uri)
        named = pos < self._n and self.names[pos] == uri
        return pos if named and self.related.indptr[pos + 1] > self.related.indptr[pos] else None

    def label(self, entity: int, field: str) -> str | None:
        """The first text in the field of the record at an entity id; None if
        it has none, or the entity no record."""
        field_id = self._field_ids.get(field)
        if field_id is None:
            return None
        lo, hi = self._text_indptr[entity:entity + 2].tolist()
        fields = self._text_fields[lo:hi].tolist()
        return self._texts[lo + fields.index(field_id)] if field_id in fields else None

    def retrieve(self, queries: Sequence[str], k: int = 30) -> Hits:
        """Each query's top-k records by field-weighted token tf-idf, or by
        3-grams if none of its tokens matches (none if it has no tokens);
        ties break by position, that is by URI. A known token always gives a
        hit, as every term has a posting and every text an owner."""
        if k < 1:
            raise ConfigError(f"k must be positive, got {k}")
        terms = []
        for query in queries:
            tokens = tokenize(query)
            ids, known = self._token_terms, self._token_terms.keys() & tokens
            if tokens and not known:
                ids, known = self._gram_terms, self._gram_terms.keys() & char_ngrams(query, (3,))
            terms.append(sorted(map(ids.get, known)))
        return self._top_k(terms, k)

    def _top_k(self, queries: Sequence[Sequence[int]], k: int) -> Hits:
        """Each query's top k records by tf-idf over its terms' postings (term
        ids, ascending): each (query, record) sum adds its gains term by term,
        each term's postings in text-id order."""
        terms = np.fromiter(itertools.chain.from_iterable(queries), np.intp)
        lo = self._posting_indptr[terms]
        df = self._posting_indptr[terms + 1] - lo
        idf = [1.0 + math.log(max(self.text_count, 1) / (1.0 + d)) for d in df.tolist()]
        postings = ranges(lo, df)
        texts = self._posting_texts[postings]
        kind = np.repeat(terms >= self._n_tokens, df).astype(np.intp)  # 0 token, 1 gram
        gains = (self._text_weights[texts] * self._posting_tfs[postings]
                 * np.repeat(idf, df) / self._norms[kind, texts])
        query = np.repeat(np.arange(len(queries)), [len(words) for words in queries])
        keys = np.repeat(query * self._n, df) + self._text_owner[texts]
        by = keys.argsort(kind="stable")  # a key's gains stay in input order
        keys = keys[by]
        new = np.ones(keys.shape[0], dtype=bool)  # where each key's run starts
        new[1:] = keys[1:] != keys[:-1]
        # one sum per (query, record) key; an empty bincount is int64
        scores = np.bincount(np.cumsum(new) - 1, weights=gains[by]).astype(np.float64)
        query, positions = np.divmod(keys[new], self._n)
        order = np.lexsort((-scores, query))  # stable: ties stay in position order
        top = order[np.arange(order.shape[0]) - np.searchsorted(query, query) < k]
        counts = np.minimum(np.bincount(query, minlength=len(queries)), k)
        return Hits(positions[top], scores[top], counts)

    def candidate_blocks(self, positions: Sequence[int]) -> CandidateBlocks:
        """Scoring rows of the records at the positions, by address and
        stacked in their order: every text of every related entity (only a
        record has any), tagged with field weight and owner distance. One
        gather serves all candidates."""
        pos = np.array(positions, dtype=np.intp)
        lo = self.related.indptr[pos]
        n_related = self.related.indptr[pos + 1] - lo
        related = ranges(lo, n_related)
        ids, distances = self.related.ids[related], self.related.distances[related]
        candidate = np.repeat(np.arange(len(pos)), n_related)
        starts = self._text_indptr[ids]
        counts = self._text_indptr[ids + 1] - starts
        text_ids = ranges(starts, counts)
        return CandidateBlocks(
            entities=pos,
            sizes=np.bincount(candidate, weights=counts, minlength=len(pos)).astype(np.intp),
            text_ids=text_ids,
            field_weights=self._text_weights[text_ids],
            distances=np.repeat(distances, counts),
        )


class _ClosedIndex(CandidateIndex):
    """A closed index: it holds nothing, and reading what it held raises.
    (An open one has no ``__getattr__``, which would slow every attribute
    read.)"""

    def __getattr__(self, name: str):
        raise AttributeError(name) if name.startswith("__") else ValueError("the index is closed")
