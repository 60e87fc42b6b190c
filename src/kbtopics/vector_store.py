"""Columnar vector file addressed by text id.

Layout, all little-endian, every section a whole number of 8-byte words:

  magic     8 bytes               b"KBTVEC02"
  header    <u8 x 3               n_texts, dim, nnz
  indptr    <i8 x (n_texts + 1)   text i's lexical elements: [indptr[i], indptr[i+1])
  keys      <u8 x nnz             gram hashes, ascending within each text
  values    <f8 x nnz             their weights
  semantic  <f8 x (n_texts, dim)  one row per text

Text ids are 0..n_texts-1 in the order the writer received the vectors. The
reader maps the file once, checks that the header, the file size and the row
pointers agree, and exposes the columns as zero-copy views over the map; a
batch of text ids is gathered with one fancy index per column, so the
returned arrays are copies and never pin the map. ``semantic`` gathers the
semantic rows alone.
"""

from __future__ import annotations

import mmap
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import IndexFormatError, IndexIntegrityError
from .ranking import LexicalRows
from .vectors import SparseVector

MAGIC = b"KBTVEC02"

_HEADER = struct.Struct("<8s3Q")  # magic, n_texts, dim, nnz


class VectorStoreWriter:
    """Write side, one writer per file: buffers the vectors, writes the columns on close."""

    def __init__(self, path: str | Path, dim: int):
        self._path = Path(path)
        self._dim = dim
        # each column grows as one buffer: a few large blocks rather than
        # three small arrays per text
        self._row_nnz: list[int] = []
        self._keys = bytearray()
        self._values = bytearray()
        self._semantic = bytearray()

    def put(self, lex: SparseVector, sem: np.ndarray) -> int:
        """Store one text's vectors; returns its text id."""
        sem = np.asarray(sem, dtype="<f8")
        if sem.shape != (self._dim,):
            raise ValueError(f"semantic vector shape {sem.shape}, expected ({self._dim},)")
        keys = np.fromiter(lex, "<u8", len(lex))
        order = np.argsort(keys)
        self._keys += keys[order].tobytes()
        self._values += np.fromiter(lex.values(), "<f8", len(lex))[order].tobytes()
        self._semantic += sem.tobytes()
        self._row_nnz.append(len(lex))
        return len(self._row_nnz) - 1

    def close(self) -> None:
        n = len(self._row_nnz)
        indptr = np.zeros(n + 1, dtype="<i8")
        np.cumsum(self._row_nnz, out=indptr[1:])
        with self._path.open("wb") as fh:
            fh.write(_HEADER.pack(MAGIC, n, self._dim, int(indptr[-1])))
            for column in (indptr.tobytes(), self._keys, self._values, self._semantic):
                fh.write(column)

    def __enter__(self) -> "VectorStoreWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class VectorStore:
    """Read side: text-id-addressed columns over one shared memory map."""

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
        self._indptr = self._keys = self._values = self._semantic = None
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
        _, n, dim, nnz = _HEADER.unpack_from(self._map)
        expected = _HEADER.size + 8 * (n + 1 + 2 * nnz + n * dim)
        if size != expected:
            raise IndexIntegrityError(
                f"vector store {path} is {size} bytes, its header implies {expected}")
        self.n_texts, self.dim = n, dim
        offset = _HEADER.size
        self._indptr = np.frombuffer(self._map, "<i8", n + 1, offset)
        offset += 8 * (n + 1)
        self._keys = np.frombuffer(self._map, "<u8", nnz, offset)
        self._values = np.frombuffer(self._map, "<f8", nnz, offset + 8 * nnz)
        offset += 16 * nnz
        self._semantic = np.frombuffer(self._map, "<f8", n * dim, offset).reshape(n, dim)
        if self._indptr[0] != 0 or self._indptr[-1] != nnz \
                or np.any(self._indptr[1:] < self._indptr[:-1]):
            raise IndexIntegrityError(f"vector store {path}: row pointers corrupt")

    def _ids(self, text_ids: Sequence[int]) -> np.ndarray:
        ids = np.asarray(text_ids, dtype=np.intp)
        if ids.size and (ids.min() < 0 or ids.max() >= self.n_texts):
            raise IndexIntegrityError(
                f"text id out of range [0, {self.n_texts}): "
                f"{int(ids.min())}..{int(ids.max())}")
        return ids

    def gather(self, text_ids: Sequence[int]) -> tuple[LexicalRows, np.ndarray]:
        """(lexical, semantic) vectors of the texts, one row per id in the
        given order: CSR lexical rows and an (n, dim) matrix, both copies."""
        ids = self._ids(text_ids)
        starts = self._indptr[ids]
        lengths = self._indptr[ids + 1] - starts
        indptr = np.zeros(ids.shape[0] + 1, dtype=np.intp)
        np.cumsum(lengths, out=indptr[1:])
        take = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        lex = LexicalRows(keys=self._keys[take], values=self._values[take], indptr=indptr)
        return lex, self._semantic[ids]

    def semantic(self, text_ids: Sequence[int]) -> np.ndarray:
        """The texts' semantic vectors, one row per id in the given order: an
        (n, dim) copy."""
        return self._semantic[self._ids(text_ids)]

    def close(self) -> None:
        self._indptr = self._keys = self._values = self._semantic = None
        self._map.close()
        self._file.close()

    def __enter__(self) -> "VectorStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
