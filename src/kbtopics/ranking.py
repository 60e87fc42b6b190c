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

1. ``CandidateRows.for_lemma`` asks a ``VectorSource`` for the rows'
   lexical cosines with the lemma's vector (an index reads only the
   postings of the lemma's grams) and their semantic vectors, and computes
   ``partial = w_l*a(lex) + w_sm*a(sem)`` per row; the semantic cosine is a
   row-wise sum over the stacked rows.
2. ``CandidateRows.scores`` gathers the rows' semantic vectors again, adds
   ``w_sc*a(ctx)`` for the mention's sentence, weights each row and sums
   each block's rows with ``np.add.reduceat``.

``CandidateBlocks`` name their candidates by record position and hold only
their rows' addresses (text ids) with their field weights and distances;
the vectors stay in the index's memory map. So a classifier can keep the
first stage per lemma for a few dozen bytes a row. Ranked candidates stay
record positions too, and positions order as the records' IRIs do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import ConfigError
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
        for name in ("w_l", "w_sm", "w_sc", "alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"ranking {name} must be finite, got {getattr(self, name)}")


def activation(x, alpha: float = 4.0, beta: float = 8.0):
    """a(x) = (1 + exp(alpha - beta*x))^-2, strictly increasing, range (0,1).

    Accepts scalars or arrays; a(alpha/beta) = 0.25 exactly.
    """
    return (1.0 + np.exp(alpha - beta * np.asarray(x, dtype=np.float64))) ** -2.0


class VectorSource(Protocol):
    """Similarities and vectors of texts by text id, one row per id in the
    given order (an opened ``CandidateIndex``)."""

    def lexical_cosines(self, query: SparseVector, text_ids: np.ndarray) -> np.ndarray: ...

    def semantic_rows(self, text_ids: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class CandidateBlocks:
    """All scoring rows of several candidates, by address, stacked in
    candidate order: candidate i, the record at position ``entities[i]``,
    owns the next ``sizes[i]`` rows, the texts of itself and of its
    neighborhood, with per-row field weights and owner distances."""

    entities: tuple[int, ...]
    sizes: np.ndarray                 # (candidates,) rows per candidate
    text_ids: np.ndarray              # (rows,)
    field_weights: np.ndarray         # (rows,)
    distances: np.ndarray             # (rows,), w_e of each row's owner


@dataclass(frozen=True)
class ScoredCandidate:
    entity: int                       # record position
    mention_index: int
    score: float
    boost: float = 1.0

    @property
    def effective(self) -> float:
        return self.score * self.boost


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
        n = blocks.text_ids.shape[0]
        sem_matrix = vectors.semantic_rows(blocks.text_ids)
        # row-wise sums rather than a BLAS product, whose rounding can depend
        # on a row's position in the stack: a block scores the same wherever
        # it sits
        act = activation(np.concatenate([vectors.lexical_cosines(lex, blocks.text_ids),
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
        """Scored blocks, descending by score, ties broken by position."""
        scored = [ScoredCandidate(e, mention_index, s) for e, s in
                  zip(self.blocks.entities, self.scores(ctx, vectors, params).tolist())]
        scored.sort(key=lambda c: (-c.score, c.entity))
        return scored
