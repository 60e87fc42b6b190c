"""Vector file: lexical vectors column-major by gram, semantic rows by text id.

Layout, all little-endian, every section a whole number of 8-byte words:

  magic     8 bytes                b"KBTVEC04"
  header    <u8 x 4                n_texts, dim, n_grams, nnz
  vocab     <u8 x n_grams          gram hashes, strictly ascending
  indptr    <i8 x (n_grams + 1)    gram g's postings: [indptr[g], indptr[g+1])
  texts     <i4 x nnz              text ids, ascending within each gram,
                                   zero-padded to a whole 8-byte word
  values    <f8 x nnz              the gram's weight in each text's vector
  semantic  <f8 x (n_texts, dim)   one row per text

Text ids are 0..n_texts-1, the rows of the semantic matrix. The reader
maps the file once, checks the header against the file size, the
vocabulary's order, the gram pointers and the posting text ids' range, and
exposes the sections as zero-copy views over the map.

A query's lexical cosines (``LexicalColumns.cosines``) read only the
postings of the grams the query holds: one ``searchsorted`` of its sorted
keys in the vocabulary, their postings concatenated in ascending key order
and summed per text with ``bincount``. Each text's terms are therefore added
in ascending key order, as a row-major dot product over sorted keys would
add them. Results are copies and never pin the map.
"""

from __future__ import annotations

import mmap
import struct
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import IndexFormatError, IndexIntegrityError

if TYPE_CHECKING:
    from .vectors import SparseVector

MAGIC = b"KBTVEC04"

_HEADER = struct.Struct("<8s4Q")  # magic, n_texts, dim, n_grams, nnz


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The integers [starts[i], starts[i] + counts[i]) for every i, in order."""
    ends = np.cumsum(counts)
    total = ends[-1] if ends.size else 0
    return np.repeat(starts - (ends - counts), counts) + np.arange(total)


class LexicalColumns(NamedTuple):
    """Lexical vectors of ``n_texts`` texts stored by gram: ``vocab[g]``'s
    postings are ``texts[indptr[g]:indptr[g + 1]]`` with those ``values``."""

    vocab: np.ndarray                 # (n_grams,) uint64, strictly ascending
    indptr: np.ndarray                # (n_grams + 1,)
    texts: np.ndarray                 # (nnz,) text ids
    values: np.ndarray                # (nnz,) float64
    n_texts: int

    def cosines(self, query: SparseVector, text_ids: np.ndarray) -> np.ndarray:
        """Dot product of the query with each text's vector, one per id in
        the given order."""
        pairs = sorted(query.items())
        keys = np.array([k for k, _ in pairs], dtype=np.uint64)
        q_values = np.array([v for _, v in pairs], dtype=np.float64)
        pos = np.searchsorted(self.vocab, keys)
        found = pos < self.vocab.shape[0]
        found[found] = self.vocab[pos[found]] == keys[found]
        grams = pos[found]
        starts = self.indptr[grams]
        counts = self.indptr[grams + 1] - starts
        take = ranges(starts, counts)
        per_text = np.bincount(
            self.texts[take], weights=self.values[take] * np.repeat(q_values[found], counts),
            minlength=self.n_texts)
        return per_text[text_ids]


def write_vector_store(path: str | Path, lexical: LexicalColumns,
                       semantic: np.ndarray) -> None:
    """Write a vector file from the lexical columns and one semantic row per
    text."""
    if semantic.ndim != 2 or semantic.shape[0] != lexical.n_texts:
        raise ValueError(f"semantic matrix of shape {semantic.shape} for "
                         f"{lexical.n_texts} texts")
    with Path(path).open("wb") as fh:
        fh.write(_HEADER.pack(MAGIC, lexical.n_texts, semantic.shape[1],
                              lexical.vocab.shape[0], lexical.texts.shape[0]))
        # arrays are written through their buffers, without a bytes copy
        for array, dtype in ((lexical.vocab, "<u8"), (lexical.indptr, "<i8"),
                             (lexical.texts, "<i4"), (lexical.values, "<f8"),
                             (semantic, "<f8")):
            array = np.ascontiguousarray(array, dtype=dtype)
            fh.write(array)
            fh.write(bytes(-array.nbytes % 8))


class VectorStore:
    """Read side: lexical columns by gram and semantic rows by text id, over
    one shared memory map."""

    def __init__(self, path: str | Path):
        path = Path(path)
        try:
            self._file = path.open("rb")
        except OSError as exc:
            raise IndexFormatError(f"cannot open vector store {path}: {exc}") from exc
        try:
            self._map = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:
            self._file.close()
            raise IndexFormatError(f"vector store {path} is empty") from exc
        self.lexical = self._semantic = None
        try:
            self._map_columns(path)
        except (IndexFormatError, IndexIntegrityError):
            self.close()
            raise

    def _map_columns(self, path: Path) -> None:
        # The views live only in attributes, never in locals of a frame that
        # raises: a traceback keeping one alive would make close() fail.
        size = len(self._map)
        if size < _HEADER.size or self._map[: len(MAGIC)] != MAGIC:
            raise IndexFormatError(f"{path} is not a vector store (bad magic)")
        _, n, dim, n_grams, nnz = _HEADER.unpack_from(self._map)
        text_bytes = -(-4 * nnz // 8) * 8
        expected = _HEADER.size + 8 * (2 * n_grams + 1 + nnz + n * dim) + text_bytes
        if size != expected:
            raise IndexIntegrityError(
                f"vector store {path} is {size} bytes, its header implies {expected}")
        self.n_texts, self.dim = n, dim
        indptr_at = _HEADER.size + 8 * n_grams
        texts_at = indptr_at + 8 * (n_grams + 1)
        values_at = texts_at + text_bytes
        self.lexical = LexicalColumns(
            np.frombuffer(self._map, "<u8", n_grams, _HEADER.size),
            np.frombuffer(self._map, "<i8", n_grams + 1, indptr_at),
            np.frombuffer(self._map, "<i4", nnz, texts_at),
            np.frombuffer(self._map, "<f8", nnz, values_at), n)
        self._semantic = np.frombuffer(
            self._map, "<f8", n * dim, values_at + 8 * nnz).reshape(n, dim)
        if np.any(self.lexical.vocab[1:] <= self.lexical.vocab[:-1]):
            raise IndexIntegrityError(f"vector store {path}: gram vocabulary not ascending")
        if self.lexical.indptr[0] != 0 or self.lexical.indptr[-1] != nnz \
                or np.any(self.lexical.indptr[1:] < self.lexical.indptr[:-1]):
            raise IndexIntegrityError(f"vector store {path}: gram pointers corrupt")
        if nnz and (self.lexical.texts.min() < 0 or self.lexical.texts.max() >= n):
            raise IndexIntegrityError(
                f"vector store {path}: posting text id out of range [0, {n})")

    def _ids(self, text_ids: Sequence[int]) -> np.ndarray:
        ids = np.asarray(text_ids, dtype=np.intp)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_texts):
            raise IndexIntegrityError(
                f"text id out of range [0, {self.n_texts}): "
                f"{int(ids.min())}..{int(ids.max())}")
        return ids

    def lexical_cosines(self, query: SparseVector, text_ids: Sequence[int]) -> np.ndarray:
        """The query's lexical cosine with each text, one per id in the given
        order."""
        return self.lexical.cosines(query, self._ids(text_ids))

    def semantic(self, text_ids: Sequence[int]) -> np.ndarray:
        """The texts' semantic vectors, one row per id in the given order: an
        (n, dim) copy."""
        return self._semantic[self._ids(text_ids)]

    def close(self) -> None:
        self.lexical = self._semantic = None
        self._map.close()
        self._file.close()

    def __enter__(self) -> "VectorStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
