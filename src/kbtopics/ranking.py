"""Candidate scoring against a mention.

Each candidate contributes one row per text property of itself and of every
entity in its cached neighborhood. Three similarities are computed per row
(lexical n-gram, mention embedding, sentence embedding), squashed through a
generalized-logistic activation

    a(x) = (1 + exp(alpha - beta*x)) ** -2

and combined:

    d_i = w_f,i * (w_l*a(lex_i) + w_sm*a(sem_i) + w_sc*a(ctx_i)) / (1 + w_e,i)

where w_f,i is the row's text-field search weight and w_e,i the graph
distance of the row's owning entity from the candidate (0 for the candidate
itself). The candidate's score is the sum over rows. The activation floor
a(0) > 0 means unrelated rows leak a little mass; that is intentional, the
function's range is (0, 1).

Scoring splits along that formula. Everything in d_i except a(ctx_i)
depends only on the mention's lemma and the row, so it runs in two stages
over the rows of all candidates of a mention, stacked in candidate order
(``CandidateBlocks``, as an index gathers them):

1. ``CandidateRows.for_lemma`` gathers the rows' vectors from a
   ``VectorSource`` and computes ``partial = w_l*a(lex) + w_sm*a(sem)`` per
   row. The lexical rows are CSR arrays: the query's keys are sorted once,
   every element is matched against them with ``searchsorted`` and the
   products are summed per row with ``bincount``; the semantic cosine is a
   row-wise sum over the stacked rows.
2. ``CandidateRows.scores`` gathers the rows' semantic vectors again, adds
   ``w_sc*a(ctx)`` for the mention's sentence, weights each row and sums
   each block's rows with ``np.add.reduceat``.

A ``CandidateBlock`` holds only its rows' addresses (text ids) with their
field weights and distances; the vectors stay in the index's memory map.
So a classifier can keep the first stage per lemma for a few dozen bytes a
row. ``rank_candidates`` and ``score_candidate`` stack blocks and run both
stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Protocol, Sequence

import numpy as np

from .errors import ConfigError
from .kb import Iri
from .vectors import SparseVector


@dataclass(frozen=True)
class RankingParams:
    w_l: float = 1.0
    w_sm: float = 1.0
    w_sc: float = 0.5
    alpha: float = 4.0
    beta: float = 8.0

    def __post_init__(self) -> None:
        if min(self.w_l, self.w_sm, self.w_sc) < 0:
            raise ConfigError("similarity component weights must be nonnegative")
        if self.w_l + self.w_sm + self.w_sc <= 0:
            raise ConfigError("at least one similarity component weight must be positive")
        if self.beta <= 0:
            raise ConfigError(f"beta must be positive, got {self.beta}")


def activation(x, alpha: float = 4.0, beta: float = 8.0):
    """a(x) = (1 + exp(alpha - beta*x))^-2, strictly increasing, range (0,1).

    Accepts scalars or arrays; a(alpha/beta) = 0.25 exactly.
    """
    return (1.0 + np.exp(alpha - beta * np.asarray(x, dtype=np.float64))) ** -2.0


@dataclass(frozen=True)
class MentionVectors:
    """The three query vectors of one mention: lexical surface, semantic
    surface, semantic sentence context."""

    lex: SparseVector
    sem: np.ndarray
    ctx: np.ndarray


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


class VectorSource(Protocol):
    """Vectors of texts by text id, one row per id in the given order (an
    opened ``CandidateIndex``)."""

    def load_vectors(self, text_ids: np.ndarray) -> tuple[LexicalRows, np.ndarray]: ...

    def semantic_rows(self, text_ids: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class CandidateBlock:
    """All scoring rows of one candidate, by address: the text ids of its
    own texts and of its neighborhood's, with per-row field weights and
    owner distances."""

    entity: Iri
    text_ids: np.ndarray              # (n,) integer text ids
    field_weights: np.ndarray         # (n,)
    distances: np.ndarray             # (n,), w_e of each row's owner

    def __post_init__(self) -> None:
        if not (self.text_ids.shape[0] == self.field_weights.shape[0]
                == self.distances.shape[0]):
            raise ValueError("candidate block row counts disagree")

    def __len__(self) -> int:
        return self.text_ids.shape[0]


@dataclass(frozen=True)
class CandidateBlocks:
    """The blocks of several candidates stacked in candidate order:
    candidate i owns the next ``sizes[i]`` rows."""

    entities: tuple[Iri, ...]
    sizes: np.ndarray                 # (candidates,) rows per candidate
    text_ids: np.ndarray              # (rows,)
    field_weights: np.ndarray         # (rows,)
    distances: np.ndarray             # (rows,)

    @classmethod
    def stack(cls, blocks: Sequence[CandidateBlock]) -> "CandidateBlocks":
        def column(name: str, dtype) -> np.ndarray:
            return np.concatenate([getattr(b, name) for b in blocks] or [np.zeros(0, dtype)])

        return cls(tuple(b.entity for b in blocks),
                   np.array([len(b) for b in blocks], dtype=np.intp),
                   column("text_ids", np.intp), column("field_weights", np.float64),
                   column("distances", np.float64))


@dataclass(frozen=True)
class ScoredCandidate:
    entity: Iri
    mention_index: int
    score: float
    boost: float = 1.0

    @property
    def effective(self) -> float:
        return self.score * self.boost


def _lexical_cosines(query: SparseVector, rows: LexicalRows) -> np.ndarray:
    """Dot product of the query with every row."""
    pairs = sorted(query.items())
    q_keys = np.array([k for k, _ in pairs], dtype=np.uint64)
    q_vals = np.array([v for _, v in pairs], dtype=np.float64)
    keys = rows.keys
    # Most elements match no query key; a table of the query keys' low 12
    # bits screens them out before the exact (and slower) binary search.
    low_bits = np.zeros(1 << 12, dtype=bool)
    low_bits[(q_keys & 0xFFF).astype(np.intp)] = True
    cand = low_bits[(keys & 0xFFF).astype(np.intp)].nonzero()[0]
    pos = np.searchsorted(q_keys, keys[cand])
    pos[pos == q_keys.shape[0]] = 0
    match = q_keys[pos] == keys[cand]
    hit, pos = cand[match], pos[match]
    n_rows = len(rows)
    row_ids = np.repeat(np.arange(n_rows), np.diff(rows.indptr))
    return np.bincount(row_ids[hit], weights=rows.values[hit] * q_vals[pos],
                       minlength=n_rows)


@dataclass(frozen=True)
class CandidateRows:
    """A mention's candidate blocks with the part of their rows' score that
    does not depend on the sentence: ``partial = w_l*a(lex) + w_sm*a(sem)``
    per row. Built by ``for_lemma`` (stage one); ``scores`` and ``rank``
    finish it for a sentence."""

    blocks: CandidateBlocks
    starts: np.ndarray                # first row of each block that has rows
    filled: np.ndarray                # (candidates,) bool, which blocks have rows
    partial: np.ndarray

    @classmethod
    def for_lemma(cls, lex: SparseVector, sem: np.ndarray, blocks: CandidateBlocks,
                  vectors: VectorSource, params: RankingParams) -> "CandidateRows":
        """Stage one, for the lexical and semantic vectors of a mention's lemma."""
        lex_rows, sem_matrix = vectors.load_vectors(blocks.text_ids)
        n = blocks.text_ids.shape[0]
        # row-wise sums rather than a BLAS product, whose rounding can depend
        # on a row's position in the stack: a block scores the same wherever
        # it sits
        act = activation(np.concatenate([_lexical_cosines(lex, lex_rows),
                                         (sem_matrix * sem).sum(axis=1)]),
                         params.alpha, params.beta)
        filled = blocks.sizes > 0
        return cls(
            blocks=blocks,
            starts=(np.cumsum(blocks.sizes) - blocks.sizes)[filled],
            filled=filled,
            partial=params.w_l * act[:n] + params.w_sm * act[n:],
        )

    def scores(self, ctx: np.ndarray, vectors: VectorSource,
               params: RankingParams) -> np.ndarray:
        """Every block's score for a sentence with context vector ``ctx``,
        in block order (stage two)."""
        blocks = self.blocks
        ctx_cos = (vectors.semantic_rows(blocks.text_ids) * ctx).sum(axis=1)
        per_row = self.partial + params.w_sc * activation(ctx_cos, params.alpha, params.beta)
        contrib = blocks.field_weights * per_row / (1.0 + blocks.distances)
        scores = np.zeros(len(blocks.entities))
        scores[self.filled] = np.add.reduceat(contrib, self.starts)
        return scores

    def rank(self, ctx: np.ndarray, vectors: VectorSource, params: RankingParams,
             mention_index: int = 0) -> list[ScoredCandidate]:
        """Scored blocks, descending by score, ties broken by entity IRI."""
        scored = [ScoredCandidate(e, mention_index, s) for e, s in
                  zip(self.blocks.entities, self.scores(ctx, vectors, params).tolist())]
        scored.sort(key=lambda c: (-c.score, c.entity))
        return scored


def score_candidate(
    mention: MentionVectors, block: CandidateBlock, vectors: VectorSource,
    params: RankingParams,
) -> float:
    """Total activated, field-weighted, distance-attenuated similarity."""
    rows = CandidateRows.for_lemma(
        mention.lex, mention.sem, CandidateBlocks.stack([block]), vectors, params)
    return float(rows.scores(mention.ctx, vectors, params)[0])


def rank_candidates(
    mention: MentionVectors,
    blocks: Sequence[CandidateBlock],
    vectors: VectorSource,
    params: RankingParams,
    mention_index: int = 0,
) -> list[ScoredCandidate]:
    """Score every block; descending by score, ties broken by entity IRI."""
    rows = CandidateRows.for_lemma(
        mention.lex, mention.sem, CandidateBlocks.stack(blocks), vectors, params)
    return rows.rank(mention.ctx, vectors, params, mention_index)
