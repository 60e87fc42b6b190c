"""Text representations: hashed character n-gram vectors and embedding means.

Lexical vectors hash counted character 3- and 4-grams of the normalized
string (spaces included) into a sparse 64-bit key space and L2-normalize.
The hash is keyed blake2b with a constant key committed here, so vectors are
identical across processes and do not depend on PYTHONHASHSEED.

Semantic vectors are the L2-normalized arithmetic mean of known token
embeddings; a text with no known tokens maps to the zero vector, which has
cosine 0 against everything.
"""

from __future__ import annotations

import logging
import re
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b
from math import sqrt
from pathlib import Path

import numpy as np

from .errors import DataError

logger = logging.getLogger(__name__)

NGRAM_SIZES = (3, 4)
_HASH_KEY = b"kbtopics.lexical.v1"

_WS_RE = re.compile(r"\s+")
_TOKEN_RE = re.compile(r"[^\W_]+")

SparseVector = dict[int, float]


def normalize_text(text: str) -> str:
    """NFKC-fold, lowercase, and collapse whitespace runs to single spaces."""
    return _WS_RE.sub(" ", unicodedata.normalize("NFKC", text).lower()).strip()


def tokenize(text: str) -> list[str]:
    """Alphanumeric token runs of the normalized text, in order."""
    return _TOKEN_RE.findall(normalize_text(text))


def char_ngrams(text: str, sizes: tuple[int, ...] = NGRAM_SIZES) -> list[str]:
    """Character n-grams over the whole normalized string, spaces included.

    A string shorter than every requested size has no n-grams and yields [].
    """
    s = normalize_text(text)
    grams: list[str] = []
    for size in sizes:
        grams.extend(s[i : i + size] for i in range(len(s) - size + 1))
    return grams


# Bounded so that a long-running classifier keeps bounded memory; n-gram
# vocabularies are small enough that most lookups hit.
@lru_cache(maxsize=1 << 16)
def hash_gram(gram: str) -> int:
    return int.from_bytes(
        blake2b(gram.encode("utf-8"), digest_size=8, key=_HASH_KEY).digest(), "big"
    )


def lexical_vector(text: str, sizes: tuple[int, ...] = NGRAM_SIZES) -> SparseVector:
    """L2-normalized counted n-gram vector keyed by 64-bit gram hashes."""
    counts: dict[int, float] = {}
    for gram in char_ngrams(text, sizes):
        key = hash_gram(gram)
        counts[key] = counts.get(key, 0.0) + 1.0
    norm = sqrt(sum(v * v for v in counts.values()))
    if norm == 0.0:
        return {}
    return {k: v / norm for k, v in counts.items()}


@dataclass(frozen=True)
class EmbeddingTable:
    """Word-embedding lookup loaded from a whitespace-separated text file.

    Each line is ``token v1 ... vD``; an optional two-integer first line
    (vocabulary size and dimension) is accepted and skipped. Duplicate tokens
    keep the first occurrence.
    """

    dim: int
    _vectors: dict[str, np.ndarray]

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingTable":
        path = Path(path)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise DataError(f"cannot read embeddings {path}: {exc}") from exc
        vectors: dict[str, np.ndarray] = {}
        dim = 0
        duplicates = 0
        for lineno, line in enumerate(lines, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and all(p.isdigit() for p in parts):
                continue
            token, values = parts[0], parts[1:]
            if not values:
                raise DataError(f"{path}:{lineno}: embedding line has no values")
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric embedding value") from None
            if dim == 0:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise DataError(
                    f"{path}:{lineno}: dimension {vec.shape[0]} != expected {dim}"
                )
            if token in vectors:
                duplicates += 1
                continue
            vec.setflags(write=False)
            vectors[token] = vec
        if not vectors:
            raise DataError(f"{path}: no embeddings found")
        if duplicates:
            logger.warning("%s: ignored %d duplicate embedding tokens", path, duplicates)
        logger.info("loaded %d embeddings of dimension %d from %s", len(vectors), dim, path)
        return cls(dim, vectors)

    def get(self, token: str) -> np.ndarray | None:
        return self._vectors.get(token)

    def __contains__(self, token: str) -> bool:
        return token in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)


def semantic_vector(text: str, table: EmbeddingTable) -> np.ndarray:
    """Unit-normalized mean embedding of the known tokens.

    A text with no known tokens (or a mean that cancels to zero) maps to the
    exact zero vector.
    """
    rows = [v for v in (table.get(t) for t in tokenize(text)) if v is not None]
    if not rows:
        return np.zeros(table.dim, dtype=np.float64)
    mean = np.mean(rows, axis=0)
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        return np.zeros(table.dim, dtype=np.float64)
    return mean / norm
