"""Text representations: hashed character n-gram vectors and embedding means.

Lexical vectors hash counted character 3- and 4-grams of the normalized
string (spaces included) into a sparse 64-bit key space and L2-normalize.
The hash is keyed blake2b with a constant key committed here, so vectors are
identical across processes and do not depend on PYTHONHASHSEED.

Semantic vectors are the L2-normalized arithmetic mean of known token
embeddings; a text with no known tokens maps to the zero vector, which has
cosine 0 against everything.

``lexical_vector``, ``tokenize`` and ``char_ngrams`` encode one text, as a
query is encoded. ``TextBatch`` encodes the texts of an index together, to
the same values: each text is normalized once, and its n-grams are cut once
over one array of the code points of all texts, as integer gram codes. It
stores the lexical vectors column-major by gram (``LexicalColumns``).

Lexical cosines (``LexicalColumns.cosines``) are computed for chunks of
queries and read only the postings of the grams the queries hold: one
``searchsorted`` of each query's sorted keys in the vocabulary, their
postings concatenated query after query, each in ascending key order, and
summed per (query, text) with one ``bincount`` over ``query * n_texts +
text`` keys (at most ``BATCH_VALUES``, or one query's ``n_texts``). Each
text's terms with a query are therefore added in ascending key order, as a
row-major dot product over sorted keys would add them, however many queries
share a chunk. Results are new arrays, which never pin the columns' memory.
"""

from __future__ import annotations

import hashlib
import logging
import re
import struct
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b
from math import sqrt
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError, IndexIntegrityError

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


class Postings(NamedTuple):
    """Terms with the texts that hold them: term t, ``terms[t]``, occurs
    ``counts[i]`` times in text ``texts[i]`` for i in ``[indptr[t],
    indptr[t + 1])``. Terms ascend, and texts ascend within a term."""

    terms: list[str]
    indptr: np.ndarray
    texts: np.ndarray
    counts: np.ndarray


def check_text_ids(text_ids: np.ndarray, n_texts: int) -> None:
    """IndexIntegrityError unless every text id is in ``[0, n_texts)``."""
    if text_ids.size and (text_ids.min() < 0 or text_ids.max() >= n_texts):
        raise IndexIntegrityError(f"text id out of range [0, {n_texts}): "
                                  f"{int(text_ids.min())}..{int(text_ids.max())}")


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The integers [starts[i], starts[i] + counts[i]) for every i, in order."""
    ends = np.cumsum(counts)
    total = ends[-1] if ends.size else 0
    return np.repeat(starts - (ends - counts), counts) + np.arange(total)


# the most values (8 bytes each) one batch temporary holds: the lexical
# accumulator, or ranking's gathered semantic rows. 1 MB stays in a core's L2 cache:
# at 128k texts, an accumulator of six queries (6 MB) read 10-20% slower than one
BATCH_VALUES = 2**17


class LexicalColumns(NamedTuple):
    """Lexical vectors of ``n_texts`` texts stored by gram: ``vocab[g]``'s
    postings are ``texts[indptr[g]:indptr[g + 1]]`` with those ``values``."""

    vocab: np.ndarray                 # (n_grams,) uint64, strictly ascending
    indptr: np.ndarray                # (n_grams + 1,)
    texts: np.ndarray                 # (nnz,) text ids, ascending within a gram
    values: np.ndarray                # (nnz,) float64
    n_texts: int

    def cosines(self, queries: Sequence[SparseVector], slots: np.ndarray,
                text_ids: np.ndarray) -> np.ndarray:
        """Row i's dot product of ``queries[slots[i]]`` with text ``text_ids[i]``'s
        vector, slots in any order (IndexError outside the queries; a text id
        outside ``[0, n_texts)`` raises IndexIntegrityError, as the ids come from
        an index). Queries go in chunks keeping the accumulator, queries ×
        ``n_texts``, within ``BATCH_VALUES`` values, at least one query to a chunk."""
        if slots.size and (slots.min() < 0 or slots.max() >= len(queries)):
            raise IndexError(f"slot out of range [0, {len(queries)})")
        check_text_ids(text_ids, self.n_texts)
        step = max(1, BATCH_VALUES // max(self.n_texts, 1))
        out = np.empty(slots.shape[0])
        for lo in range(0, len(queries), step):
            pairs = [sorted(query.items()) for query in queries[lo:lo + step]]
            keys = np.array([k for p in pairs for k, _ in p], dtype=np.uint64)
            q_values = np.array([v for p in pairs for _, v in p], dtype=np.float64)
            owner = np.repeat(np.arange(len(pairs)) * self.n_texts, [len(p) for p in pairs])
            pos = np.searchsorted(self.vocab, keys)
            found = pos < self.vocab.shape[0]
            found[found] = self.vocab[pos[found]] == keys[found]
            grams = pos[found]
            starts = self.indptr[grams]
            counts = self.indptr[grams + 1] - starts
            take = ranges(starts, counts)
            sums = np.bincount(
                np.repeat(owner[found], counts) + self.texts[take],
                weights=self.values[take] * np.repeat(q_values[found], counts),
                minlength=len(pairs) * self.n_texts)
            rows = slice(None) if len(queries) <= step else (slots >= lo) & (slots < lo + step)
            out[rows] = sums[(slots[rows] - lo) * self.n_texts + text_ids[rows]]
        return out


def _postings(keys: np.ndarray, n_terms: int, n_texts: int,
              counts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Entries keyed ``term id * n_texts + text id``, gathered by term: the
    term pointers, and per distinct pair its text id, ascending within each
    term, and its count (the entries' summed ``counts``, or their number).
    Sorts ``keys`` in place when there are no counts."""
    if counts is None:
        keys.sort()
    else:
        order = np.argsort(keys)
        keys, counts = keys[order], counts[order]
        del order
    first = np.ones(keys.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    if counts is None:
        summed = np.diff(np.append(starts, keys.shape[0]))
    else:
        summed = np.add.reduceat(counts, starts) if starts.size else counts
    pair_terms, pair_texts = np.divmod(keys[starts], n_texts)
    return (np.searchsorted(pair_terms, np.arange(n_terms + 1)), pair_texts.astype(np.int32),
            summed.astype(np.int32))


# the largest gram code built before codes are ranked again
_CODE_LIMIT = 2**62
_MEAN_VALUES = 2**20  # the most stacked values (8 bytes each) one semantic np.mean copies


class TextBatch:
    """Texts encoded together, to the values the one-text functions give.

    Each text is normalized once. Its n-grams are cut from one code-point
    array of all normalized texts, each gram as an integer code that sorts
    as the gram's string does; each distinct gram is sliced out once, and
    hashed once.
    """

    def __init__(self, texts: Sequence[str]):
        normalized = [normalize_text(t) for t in texts]
        self._tokens = [_TOKEN_RE.findall(s) for s in normalized]
        self._joined = "".join(normalized)
        self._lengths = np.fromiter(map(len, normalized), np.int64, len(normalized))
        self._starts = np.cumsum(self._lengths) - self._lengths
        chars = np.frombuffer(self._joined.encode("utf-32-le", "surrogatepass"), "<u4")
        # code points ranked in their sorted order: a gram's code over these
        # ranks sorts as its string does
        self._alphabet, self._ranks = np.unique(chars, return_inverse=True)
        self._grams: dict[int, Postings] = {}

    def __len__(self) -> int:
        return len(self._tokens)

    def gram_postings(self, n: int) -> Postings:
        """The texts' n-grams (``char_ngrams(text, (n,))``) as postings, cut
        once per size."""
        if n not in self._grams:
            per_text = np.maximum(self._lengths - n + 1, 0)
            positions = ranges(self._starts, per_text)
            codes = self._ranks[positions].astype(np.int64)
            base = max(len(self._alphabet), 1)
            for k in range(1, n):
                if codes.size and (int(codes.max()) + 1) * base > _CODE_LIMIT:
                    codes = np.unique(codes, return_inverse=True)[1]
                codes *= base
                codes += self._ranks[positions + k]
            distinct, keys = np.unique(codes, return_inverse=True)
            del codes
            at = np.empty(distinct.shape[0], dtype=np.int64)
            at[keys] = positions  # where each gram occurs, once
            del positions
            keys *= len(self)
            keys += np.repeat(np.arange(len(self)), per_text)
            self._grams[n] = Postings([self._joined[p:p + n] for p in at.tolist()],
                                      *_postings(keys, distinct.shape[0], len(self)))
        return self._grams[n]

    def token_postings(self) -> Postings:
        """The texts' tokens (``tokenize``) as postings."""
        ids: dict[str, int] = {}
        flat = [ids.setdefault(tok, len(ids)) for toks in self._tokens for tok in toks]
        terms = sorted(ids)
        rank = np.empty(len(terms), dtype=np.int64)
        rank[[ids[t] for t in terms]] = np.arange(len(terms))
        keys = rank[np.array(flat, dtype=np.int64)] * len(self)
        keys += np.repeat(np.arange(len(self)), list(map(len, self._tokens)))
        return Postings(terms, *_postings(keys, len(terms), len(self)))

    def lexical_columns(self, sizes: tuple[int, ...] = NGRAM_SIZES) -> LexicalColumns:
        """Every text's ``lexical_vector``, stored by gram hash."""
        hashes, lengths, texts, counts = [], [], [], []
        for n in sizes:
            postings = self.gram_postings(n)
            hashes.append(np.fromiter(map(hash_gram, postings.terms), np.uint64,
                                      len(postings.terms)))
            lengths.append(np.diff(postings.indptr))
            texts.append(postings.texts)
            counts.append(postings.counts)
        # grams whose hashes collide are one key, as in lexical_vector
        vocab, key_of = np.unique(np.concatenate(hashes), return_inverse=True)
        keys = np.repeat(key_of, np.concatenate(lengths))
        keys *= len(self)
        keys += np.concatenate(texts)
        indptr, texts, counts = _postings(keys, vocab.shape[0], len(self),
                                          np.concatenate(counts))
        del keys
        counts = counts.astype(np.float64)
        # sums of squared whole counts are exact, so in any order
        norms = np.sqrt(np.bincount(texts, weights=counts * counts, minlength=len(self)))
        return LexicalColumns(vocab, indptr, texts, counts / norms[texts], len(self))

    def semantic_matrix(self, table: EmbeddingTable) -> np.ndarray:
        """Every text's ``semantic_vector`` bit for bit, one row per text. The
        texts with k known tokens share ``np.mean``s, which add each text's rows
        in order, over at most ``_MEAN_VALUES`` values or one text's rows each."""
        out = np.zeros((len(self), table.dim), dtype=np.float64)
        by_count: dict[int, list[tuple[int, list[np.ndarray]]]] = {}
        for i, tokens in enumerate(self._tokens):
            if rows := [v for v in map(table.get, tokens) if v is not None]:
                by_count.setdefault(len(rows), []).append((i, rows))
        for count, texts in by_count.items():
            step = max(1, _MEAN_VALUES // (count * table.dim))
            for at in range(0, len(texts), step):
                ids, stack = zip(*texts[at:at + step])
                means = np.mean(stack, axis=1)
                norms = np.array([np.linalg.norm(mean) for mean in means])
                nonzero = norms != 0.0
                out[np.array(ids)[nonzero]] = means[nonzero] / norms[nonzero, None]
        return out


@dataclass(frozen=True)
class EmbeddingTable:
    """Word-embedding lookup loaded from a whitespace-separated text file.

    Each line is ``token v1 ... vD``; an optional two-integer first line
    (vocabulary size and dimension) is accepted, and its dimension must be
    the rows'. Duplicate tokens keep the first occurrence. ``digest`` is a
    sha256 of the table as loaded: its dimension, then each token and its
    values in load order.
    """

    dim: int
    _vectors: dict[str, np.ndarray]
    digest: str

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingTable":
        path = Path(path)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise DataError(f"cannot read embeddings {path}: {exc}") from exc
        vectors: dict[str, np.ndarray] = {}
        dim = 0
        header_dim = None
        duplicates = 0
        for lineno, line in enumerate(lines, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and all(p.isdigit() for p in parts):
                header_dim = int(parts[1])
                continue
            token, values = parts[0], parts[1:]
            if not values:
                raise DataError(f"{path}:{lineno}: embedding line has no values")
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric embedding value") from None
            if not np.isfinite(vec).all():
                raise DataError(f"{path}:{lineno}: non-finite embedding value")
            if dim == 0:
                dim = vec.shape[0]
                if header_dim is not None and dim != header_dim:
                    raise DataError(
                        f"{path}:{lineno}: dimension {dim} != header dimension {header_dim}")
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
        digest = hashlib.sha256(struct.pack("<Q", dim))
        for token, vec in vectors.items():
            word = token.encode("utf-8")
            digest.update(struct.pack("<Q", len(word)) + word + vec.astype("<f8").tobytes())
        return cls(dim, vectors, digest.hexdigest())

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
    rows = [v for v in map(table.get, tokenize(text)) if v is not None]
    if not rows:
        return np.zeros(table.dim, dtype=np.float64)
    mean = np.mean(rows, axis=0)
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        return np.zeros(table.dim, dtype=np.float64)
    return mean / norm
