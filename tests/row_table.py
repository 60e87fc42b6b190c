"""Lexical vectors row by row, and candidates scored one block at a time,
for tests.

The library stores lexical vectors by gram (``LexicalColumns``) and scores a
query from its grams' postings. Tests describe rows as ``SparseVector``
dicts; this module turns rows into columns and back, keeps the row-major
CSR form (``LexicalRows``) that the oracles score, and holds rows in a
``RowTable`` that scores like an opened index. ``score_candidate``,
``rank_candidates`` and ``block_scores`` run both scoring stages
(``score_lemmas`` and ``rank_mentions``) for one mention, a batch of one,
over ``CandidateBlock``s, one candidate's rows each.
"""

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from kbtopics.ranking import (
    CandidateBlocks, CandidateRows, RankingParams, ScoredCandidate, VectorSource, rank_mentions,
    score_lemmas,
)
from kbtopics.vectors import LexicalColumns, SparseVector


@dataclass(frozen=True)
class MentionVectors:
    """The three query vectors of one mention: lexical surface, semantic
    surface, semantic sentence context."""

    lex: SparseVector
    sem: np.ndarray
    ctx: np.ndarray


@dataclass(frozen=True)
class CandidateBlock:
    """All scoring rows of one candidate, by address: the text ids of its
    own texts and of its neighborhood's, with per-row field weights and
    owner distances."""

    entity: int                       # record position
    text_ids: np.ndarray              # (n,) integer text ids
    field_weights: np.ndarray         # (n,)
    distances: np.ndarray             # (n,), w_e of each row's owner

    def __post_init__(self) -> None:
        if not (self.text_ids.shape[0] == self.field_weights.shape[0]
                == self.distances.shape[0]):
            raise ValueError("candidate block row counts disagree")

    def __len__(self) -> int:
        return self.text_ids.shape[0]


def stack(blocks: Sequence[CandidateBlock]) -> CandidateBlocks:
    """The blocks stacked in their order, as an index gathers them."""
    def column(name: str, dtype) -> np.ndarray:
        return np.concatenate([getattr(b, name) for b in blocks] or [np.zeros(0, dtype)])

    return CandidateBlocks(np.array([b.entity for b in blocks], dtype=np.intp),
                           np.array([len(b) for b in blocks], dtype=np.intp),
                           column("text_ids", np.intp), column("field_weights", np.float64),
                           column("distances", np.float64))


def lemma_rows(mention: MentionVectors, blocks: Sequence[CandidateBlock], vectors: VectorSource,
               params: RankingParams) -> CandidateRows:
    """Stage one for the mention's lemma alone."""
    [rows] = score_lemmas([mention.lex], mention.sem[None], stack(blocks), [len(blocks)],
                          vectors, params)
    return rows


def rank_candidates(mention: MentionVectors, blocks: Sequence[CandidateBlock],
                    vectors: VectorSource, params: RankingParams) -> list[ScoredCandidate]:
    """Score every block; descending by score, ties broken by position."""
    [ranked] = rank_mentions([lemma_rows(mention, blocks, vectors, params)], mention.ctx[None],
                             [0], vectors, params, max(len(blocks), 1))
    return ranked


def block_scores(mention: MentionVectors, blocks: Sequence[CandidateBlock],
                 vectors: VectorSource, params: RankingParams) -> np.ndarray:
    """Every block's score, in block order (their positions are distinct)."""
    scores = {c.entity: c.score for c in rank_candidates(mention, blocks, vectors, params)}
    return np.array([scores[b.entity] for b in blocks], dtype=np.float64)


def score_candidate(mention: MentionVectors, block: CandidateBlock, vectors: VectorSource,
                    params: RankingParams) -> float:
    """Total activated, field-weighted, distance-attenuated similarity."""
    return float(block_scores(mention, [block], vectors, params)[0])


@dataclass(frozen=True)
class LexicalRows:
    """Sparse unit rows in CSR form.

    Row i holds ``keys[indptr[i]:indptr[i+1]]`` (uint64 gram hashes) and the
    matching ``values``. Keys must be uint64: gram hashes use all 64 bits, and
    any other integer or float dtype would mis-compare keys at or above 2**63.
    Iterating yields each row as a ``SparseVector`` dict.
    """

    keys: np.ndarray                  # (nnz,) uint64
    values: np.ndarray                # (nnz,) float64
    indptr: np.ndarray                # (n + 1,) row starts, indptr[0] == 0

    def __post_init__(self) -> None:
        if self.keys.dtype != np.uint64:
            raise ValueError(f"lexical keys must be uint64, got {self.keys.dtype}")
        if self.indptr[-1] != self.keys.shape[0] or self.values.shape != self.keys.shape:
            raise ValueError("lexical rows: indptr, keys and values disagree")

    def __len__(self) -> int:
        return self.indptr.shape[0] - 1

    def __iter__(self) -> Iterator[SparseVector]:
        keys, values, bounds = self.keys.tolist(), self.values.tolist(), self.indptr.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            yield dict(zip(keys[lo:hi], values[lo:hi]))


def lexical_rows(rows: Sequence[SparseVector]) -> LexicalRows:
    """The dict rows as CSR rows, keys ascending within each row."""
    pairs = [sorted(row.items()) for row in rows]
    indptr = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum([len(p) for p in pairs], out=indptr[1:])
    return LexicalRows(
        keys=np.array([k for p in pairs for k, _ in p], dtype=np.uint64),
        values=np.array([v for p in pairs for _, v in p], dtype=np.float64),
        indptr=indptr,
    )


def columns_of(rows: Sequence[SparseVector]) -> LexicalColumns:
    """The dict rows stored by gram, text ids in row order: one sort of
    every (key, text id, value) entry."""
    entries = sorted((k, text, v) for text, row in enumerate(rows) for k, v in row.items())
    vocab, counts = np.unique(np.array([e[0] for e in entries], dtype=np.uint64),
                              return_counts=True)
    indptr = np.zeros(vocab.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return LexicalColumns(vocab, indptr, np.array([e[1] for e in entries], dtype=np.int32),
                          np.array([e[2] for e in entries], dtype=np.float64), len(rows))


def rows_of(columns: LexicalColumns, text_ids) -> LexicalRows:
    """The texts' vectors read back from the columns as CSR rows, one per id
    in the given order, by a loop over every gram's postings; a text twice
    in one gram's postings is an error. Copies: they outlive a closed index."""
    rows: list[SparseVector] = [{} for _ in range(columns.n_texts)]
    ptr, texts, values = columns.indptr.tolist(), columns.texts.tolist(), columns.values.tolist()
    for g, key in enumerate(columns.vocab.tolist()):
        for i in range(ptr[g], ptr[g + 1]):
            if key in rows[texts[i]]:
                raise ValueError(f"text {texts[i]} twice in the postings of gram {key}")
            rows[texts[i]][key] = values[i]
    return lexical_rows([rows[i] for i in np.asarray(text_ids, dtype=np.intp).tolist()])


class RowTable:
    """Rows' vectors in memory, addressed by text id in the order they were
    added: a ``VectorSource`` like an opened index, whose lexical cosines
    come from the library's column kernel over the rows stored by gram."""

    def __init__(self, dim: int):
        self.lex: list[SparseVector] = []
        self.sem = np.zeros((0, dim))
        self._columns: LexicalColumns | None = None

    def add(self, rows: Sequence[SparseVector], sem_matrix) -> np.ndarray:
        """Store the rows; returns their text ids."""
        sem_matrix = np.asarray(sem_matrix, dtype=np.float64)
        sem_matrix = sem_matrix.reshape(len(rows), self.sem.shape[1])
        first = len(self.lex)
        self.lex.extend(rows)
        self.sem = np.concatenate([self.sem, sem_matrix])
        self._columns = None
        return np.arange(first, len(self.lex), dtype=np.intp)

    def block(self, entity: int, rows: Sequence[SparseVector], sem_matrix,
              field_weights, distances) -> CandidateBlock:
        """A block over newly stored rows."""
        return CandidateBlock(
            entity=entity,
            text_ids=self.add(rows, sem_matrix),
            field_weights=np.asarray(field_weights, dtype=np.float64),
            distances=np.asarray(distances, dtype=np.float64),
        )

    @property
    def text_count(self) -> int:
        return len(self.lex)

    def lexical_cosines(self, queries: Sequence[SparseVector], slots, text_ids) -> np.ndarray:
        if self._columns is None:
            self._columns = columns_of(self.lex)
        return self._columns.cosines(queries, np.asarray(slots, dtype=np.intp),
                                     np.asarray(text_ids, dtype=np.intp))

    def load_vectors(self, text_ids) -> tuple[LexicalRows, np.ndarray]:
        """The texts' (lexical, semantic) vectors, row by row: CSR rows and
        an (n, dim) matrix."""
        rows = [self.lex[i] for i in np.asarray(text_ids, dtype=np.intp).tolist()]
        return lexical_rows(rows), self.semantic_rows(text_ids)

    def semantic_rows(self, text_ids) -> np.ndarray:
        return self.sem[np.asarray(text_ids, dtype=np.intp)]
