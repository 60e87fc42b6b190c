"""Append-only vector file with offset-addressed random reads.

Layout: an 8-byte magic header, then back-to-back vector blocks. Each block
is a 1-byte kind tag, a u32 element count, and the payload: sparse lexical
vectors store (u64 key, f64 value) pairs sorted by key; dense semantic
vectors store f64 components. Offsets handed out by the writer are the only
way to address a block.

Reads go through one shared mmap, so concurrent readers need no
coordination and no lookup ever scans the file.
"""

from __future__ import annotations

import mmap
import struct
from pathlib import Path

import numpy as np

from .errors import IndexFormatError, IndexIntegrityError
from .vectors import SparseVector

MAGIC = b"KBTVEC01"
KIND_LEXICAL = 1
KIND_SEMANTIC = 2

_HEAD = struct.Struct("<BI")  # kind, element count
_LEXICAL_ITEM = np.dtype([("k", "<u8"), ("v", "<f8")])


class VectorStoreWriter:
    """Single-writer builder for the vector file."""

    def __init__(self, path: str | Path):
        self._handle = Path(path).open("wb")
        self._handle.write(MAGIC)
        self._offset = len(MAGIC)

    def put_lexical(self, vec: SparseVector) -> int:
        offset = self._offset
        items = sorted(vec.items())
        payload = b"".join(struct.pack("<Qd", k, v) for k, v in items)
        self._write(_HEAD.pack(KIND_LEXICAL, len(items)) + payload)
        return offset

    def put_semantic(self, vec: np.ndarray) -> int:
        offset = self._offset
        data = np.ascontiguousarray(vec, dtype="<f8")
        self._write(_HEAD.pack(KIND_SEMANTIC, data.shape[0]) + data.tobytes())
        return offset

    def _write(self, blob: bytes) -> None:
        self._handle.write(blob)
        self._offset += len(blob)

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "VectorStoreWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class VectorStore:
    """Read side: offset-addressed access over one shared memory map."""

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
        if self._map[: len(MAGIC)] != MAGIC:
            self.close()
            raise IndexFormatError(f"{path} is not a vector store (bad magic)")

    def _header(self, offset: int, want_kind: int) -> int:
        if offset < len(MAGIC) or offset + _HEAD.size > len(self._map):
            raise IndexIntegrityError(f"vector handle {offset} out of range")
        kind, count = _HEAD.unpack_from(self._map, offset)
        if kind != want_kind:
            raise IndexIntegrityError(
                f"vector handle {offset}: kind {kind}, expected {want_kind}")
        return count

    def read_lexical(self, offset: int) -> tuple[np.ndarray, np.ndarray]:
        """(keys, values) of one sparse vector: uint64 gram hashes in
        ascending order and their float64 weights, copied out of the map."""
        count = self._header(offset, KIND_LEXICAL)
        start = offset + _HEAD.size
        end = start + count * _LEXICAL_ITEM.itemsize
        if end > len(self._map):
            raise IndexIntegrityError(f"vector handle {offset} truncated")
        items = np.frombuffer(self._map, dtype=_LEXICAL_ITEM, count=count, offset=start)
        return items["k"].astype(np.uint64), items["v"].astype(np.float64)

    def read_semantic(self, offset: int) -> np.ndarray:
        count = self._header(offset, KIND_SEMANTIC)
        start = offset + _HEAD.size
        end = start + count * 8
        if end > len(self._map):
            raise IndexIntegrityError(f"vector handle {offset} truncated")
        return np.frombuffer(self._map, dtype="<f8", count=count, offset=start).copy()

    def close(self) -> None:
        self._map.close()
        self._file.close()

    def __enter__(self) -> "VectorStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
