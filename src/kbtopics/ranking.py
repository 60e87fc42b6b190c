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

A block keeps its lexical rows in CSR form (uint64 gram keys, float64
values, row pointers), so one kernel scores all candidates of a
mention at once: the query's keys are sorted once, the elements of all
blocks are matched against them with ``searchsorted`` and the products are
summed per row with ``bincount``; both semantic cosines are row-wise
sums over the stacked rows; one activation runs over all rows,
and ``np.add.reduceat`` sums each block's rows into its score.
``score_candidate`` is the same kernel over a single block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

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


@dataclass(frozen=True)
class CandidateBlock:
    """All scoring rows of one candidate: its own texts plus the texts of
    its neighborhood, with per-row field weights and owner distances."""

    entity: Iri
    lex_rows: LexicalRows
    sem_matrix: np.ndarray            # (n, D), rows unit-length or zero
    field_weights: np.ndarray         # (n,)
    distances: np.ndarray             # (n,), w_e of each row's owner

    def __post_init__(self) -> None:
        n = len(self.lex_rows)
        if not (self.sem_matrix.shape[0] == self.field_weights.shape[0]
                == self.distances.shape[0] == n):
            raise ValueError("candidate block row counts disagree")

    def __len__(self) -> int:
        return len(self.lex_rows)


@dataclass(frozen=True)
class ScoredCandidate:
    entity: Iri
    mention_index: int
    score: float
    boost: float = 1.0

    @property
    def effective(self) -> float:
        return self.score * self.boost


def _block_scores(
    mention: MentionVectors, blocks: Sequence[CandidateBlock], params: RankingParams,
) -> np.ndarray:
    """Score of every block against one mention, in block order."""
    sizes = np.array([len(b) for b in blocks], dtype=np.intp)
    n_rows = int(sizes.sum())
    if n_rows == 0:
        return np.zeros(len(blocks))
    starts = np.cumsum(sizes) - sizes

    query = sorted(mention.lex.items())
    q_keys = np.array([k for k, _ in query], dtype=np.uint64)
    q_vals = np.array([v for _, v in query], dtype=np.float64)
    keys = np.concatenate([b.lex_rows.keys for b in blocks])
    # Most elements match no query key; a table of the query keys' low 12
    # bits screens them out before the exact (and slower) binary search.
    low_bits = np.zeros(1 << 12, dtype=bool)
    low_bits[(q_keys & 0xFFF).astype(np.intp)] = True
    cand = low_bits[(keys & 0xFFF).astype(np.intp)].nonzero()[0]
    pos = np.searchsorted(q_keys, keys[cand])
    pos[pos == q_keys.shape[0]] = 0
    match = q_keys[pos] == keys[cand]
    hit, pos = cand[match], pos[match]
    row_nnz = np.concatenate([b.lex_rows.indptr[1:] - b.lex_rows.indptr[:-1] for b in blocks])
    row_ids = np.repeat(np.arange(n_rows), row_nnz)
    values = np.concatenate([b.lex_rows.values for b in blocks])
    lex = np.bincount(row_ids[hit], weights=values[hit] * q_vals[pos], minlength=n_rows)

    sem_matrix = np.concatenate([b.sem_matrix for b in blocks])
    # row-wise sums rather than a BLAS product, whose rounding can depend on
    # a row's position in the stack: a block scores the same wherever it sits
    sem = (sem_matrix * mention.sem).sum(axis=1)
    ctx = (sem_matrix * mention.ctx).sum(axis=1)
    act = activation(np.concatenate([lex, sem, ctx]), params.alpha, params.beta)
    per_row = (params.w_l * act[:n_rows] + params.w_sm * act[n_rows:2 * n_rows]
               + params.w_sc * act[2 * n_rows:])
    weights = np.concatenate([b.field_weights for b in blocks])
    distances = np.concatenate([b.distances for b in blocks])
    contrib = weights * per_row / (1.0 + distances)

    scores = np.zeros(len(blocks))
    filled = sizes > 0
    scores[filled] = np.add.reduceat(contrib, starts[filled])
    return scores


def score_candidate(
    mention: MentionVectors, block: CandidateBlock, params: RankingParams,
) -> float:
    """Total activated, field-weighted, distance-attenuated similarity."""
    return float(_block_scores(mention, [block], params)[0])


def rank_candidates(
    mention: MentionVectors,
    blocks: Sequence[CandidateBlock],
    params: RankingParams,
    mention_index: int = 0,
) -> list[ScoredCandidate]:
    """Score every block; descending by score, ties broken by entity IRI."""
    scores = _block_scores(mention, blocks, params).tolist()
    scored = [ScoredCandidate(b.entity, mention_index, s) for b, s in zip(blocks, scores)]
    scored.sort(key=lambda c: (-c.score, c.entity))
    return scored
