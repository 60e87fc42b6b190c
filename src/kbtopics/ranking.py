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
depends only on the mention's lemma and the row, so it runs in two stages,
each one array pass over the rows of many candidates stacked in candidate
order (``CandidateBlocks``, as an index gathers them):

1. ``score_lemmas``, for several lemmas: one ``LexicalColumns.cosines``
   pass for all their queries (it reads only the postings of their grams,
   and refuses a text id outside its texts), one gather of the rows'
   semantic vectors, each row summed with its own lemma's vector,
   and one activation give ``partial = w_l*a(lex) + w_sm*a(sem)`` per row,
   split into one ``CandidateRows`` per lemma with arrays of its own.
2. ``rank_mentions``, for several mentions, given one context vector per
   distinct sentence: the rows' semantic vectors gathered again (their text
   ids checked against the matrix) and summed with their sentence's
   context, ``w_sc * a(ctx)`` added, each row weighted, each block's rows
   summed with one ``np.add.reduceat``, and one lexsort keeping each
   mention's best. Where the rows are dense in the document's (sentence,
   text) pairs, the context term is computed once per distinct pair and
   read by every row holding it.

A single lemma or mention is a batch of one, and every row's arithmetic is
the same in any batch, so scores are bit for bit those of a batch of one.
The temporaries that grow with a batch (the lexical accumulator, lemmas ×
texts, and the gathered rows, rows × dimension) hold at most
``vectors.BATCH_VALUES`` values each, in chunks: the lexical kernel takes
at least one lemma to a chunk. Stage two finds its distinct pairs through a
scatter table of sentences × texts slots, without sorting the rows, and
only when that is at most ``_PAIR_SLOTS_PER_ROW`` slots per row, so the
table grows with the document, not with the knowledge base.

``CandidateBlocks`` name their candidates by record position and hold only
their rows' addresses (text ids) with their field weights and distances;
the vectors stay in the index's memory map, which scoring reads as the
opened index's ``lexical`` columns and ``semantic`` matrix (rows gathered
with ``np.take``, a new array each). So a classifier can keep the first
stage per lemma for a few dozen bytes a row. Ranked candidates stay
record positions, and positions order as the records' IRIs do: stage two
returns every mention's kept candidates as three aligned arrays
(``Ranked``), which coherence and aggregation read as they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import vectors as _vectors
from .errors import ConfigError
from .vectors import LexicalColumns, SparseVector, check_text_ids


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


# stage two finds the rows that repeat a (sentence, text) pair through a
# table of sentences × texts slots only when there is a row for at most
# this many slots. Sparser rows repeat too few pairs to pay for the table:
# on the benchmark workloads' seed-1 documents (one 2-vCPU Xeon host),
# deduplicating took 1.3 times the per-row pass where 3% of the rows
# repeat a pair (about 1% of the slots filled), 1.2 times at 13% (0.1) and
# 0.8 times at 50% (0.5)
_PAIR_SLOTS_PER_ROW = 4


@dataclass(frozen=True)
class CandidateBlocks:
    """All scoring rows of several candidates, by address, stacked in
    candidate order: candidate i, the record at position ``entities[i]``,
    owns the next ``sizes[i]`` rows, the texts of itself and of its
    neighborhood, with per-row field weights and owner distances."""

    entities: np.ndarray              # (candidates,) record positions
    sizes: np.ndarray                 # (candidates,) rows per candidate
    text_ids: np.ndarray              # (rows,)
    field_weights: np.ndarray         # (rows,)
    distances: np.ndarray             # (rows,), w_e of each row's owner


class Ranked(NamedTuple):
    """Kept candidates of several mentions as three aligned arrays, by
    mention, then descending score, then position."""

    mention: np.ndarray               # (kept,) mention index
    entity: np.ndarray                # (kept,) record position
    score: np.ndarray                 # (kept,)


@dataclass(frozen=True)
class CandidateRows:
    """A lemma's candidate blocks with the part of their rows' score that
    does not depend on the sentence: ``partial = w_l*a(lex) + w_sm*a(sem)``
    per row. Made by ``score_lemmas`` (stage one) and finished by
    ``rank_mentions`` (stage two); its arrays are its own."""

    blocks: CandidateBlocks
    partial: np.ndarray


def _row_sums(semantic: np.ndarray, text_ids: np.ndarray, queries: np.ndarray,
              query_of: np.ndarray) -> np.ndarray:
    """Row i's dot product of ``semantic[text_ids[i]]`` with
    ``queries[query_of[i]]``, gathering at most ``BATCH_VALUES`` (of
    ``kbtopics.vectors``) values of rows at a time, each gather a new array."""
    out = np.empty(text_ids.shape[0])
    step = max(1, _vectors.BATCH_VALUES // max(queries.shape[1], 1))
    for lo in range(0, text_ids.shape[0], step):
        rows = np.take(semantic, text_ids[lo:lo + step], axis=0)
        rows *= np.take(queries, query_of[lo:lo + step], axis=0)
        # row-wise sums rather than a BLAS product, whose rounding can depend
        # on a row's position in the stack: a row scores the same wherever
        # it sits
        out[lo:lo + step] = rows.sum(axis=1)
    return out


def score_lemmas(lemma_lex: Sequence[SparseVector], lemma_sem: np.ndarray,
                 blocks: CandidateBlocks, candidates: Sequence[int], lexical: LexicalColumns,
                 semantic: np.ndarray, params: RankingParams) -> list[CandidateRows]:
    """Stage one for several lemmas: lemma j, with lexical vector
    ``lemma_lex[j]`` and semantic vector ``lemma_sem[j]``, has the next
    ``candidates[j]`` blocks of ``blocks``. The texts' vectors are
    ``lexical``'s and the rows of ``semantic``, by text id; the lexical
    kernel refuses a text id outside its texts."""
    n_lemmas = len(candidates)
    block_ptr = np.zeros(n_lemmas + 1, dtype=np.intp)
    np.cumsum(candidates, out=block_ptr[1:])
    row_ptr = np.zeros(blocks.sizes.shape[0] + 1, dtype=np.intp)
    np.cumsum(blocks.sizes, out=row_ptr[1:])
    row_ptr = row_ptr[block_ptr]  # lemma j's rows are [row_ptr[j], row_ptr[j + 1])
    slots = np.repeat(np.arange(n_lemmas), np.diff(row_ptr))
    n = row_ptr[-1]
    lex = lexical.cosines(lemma_lex, slots, blocks.text_ids)
    act = activation(np.concatenate([lex, _row_sums(semantic, blocks.text_ids, lemma_sem, slots)]),
                     params.alpha, params.beta)
    partial = params.w_l * act[:n] + params.w_sm * act[n:]
    out = []
    for b0, b1, r0, r1 in zip(block_ptr.tolist(), block_ptr[1:].tolist(),
                              row_ptr.tolist(), row_ptr[1:].tolist()):
        out.append(CandidateRows(
            CandidateBlocks(blocks.entities[b0:b1].copy(), blocks.sizes[b0:b1].copy(),
                            blocks.text_ids[r0:r1].copy(), blocks.field_weights[r0:r1].copy(),
                            blocks.distances[r0:r1].copy()),
            partial[r0:r1].copy()))
    return out


def _pair_heads(keys: np.ndarray, size: int) -> np.ndarray:
    """For keys each below ``size``, the index of one element holding each
    element's key, the same for all elements that hold it (its head): one
    scatter of the indices through a table of ``size`` slots and one gather
    back. One of the writes to a slot stays (NumPy leaves which
    unspecified); any one serves as the head."""
    table = np.empty(size, dtype=np.intp)
    table[keys] = np.arange(keys.shape[0])
    return table[keys]


def _context_terms(sentence: np.ndarray, text_ids: np.ndarray, contexts: np.ndarray,
                   semantic: np.ndarray, params: RankingParams) -> np.ndarray:
    """Row i's ``w_sc * a(ctx)``, ctx the dot product of
    ``semantic[text_ids[i]]`` with ``contexts[sentence[i]]``. When there is
    a row for at most ``_PAIR_SLOTS_PER_ROW`` of the sentences × texts
    slots, each distinct pair's term is computed once, at the head row of
    its key ``sentence * texts + text`` (``_pair_heads``), and read by
    every row holding the pair; sparser rows repeat too few pairs to pay
    for the table, and each row's term is computed."""

    def terms(text_ids, sentence):
        return params.w_sc * activation(_row_sums(semantic, text_ids, contexts, sentence),
                                        params.alpha, params.beta)

    texts = semantic.shape[0]
    slots = contexts.shape[0] * texts
    if text_ids.shape[0] * _PAIR_SLOTS_PER_ROW < slots:
        return terms(text_ids, sentence)
    head = _pair_heads(sentence * texts + text_ids, slots)
    distinct = np.flatnonzero(head == np.arange(head.shape[0]))
    term = np.empty(head.shape[0])
    term[distinct] = terms(text_ids[distinct], sentence[distinct])
    return term[head]


def rank_mentions(rows: Sequence[CandidateRows], contexts: np.ndarray, sentence_of: Sequence[int],
                  semantic: np.ndarray, params: RankingParams, top_m: int) -> Ranked:
    """Stage two for several mentions: mention i's candidates ``rows[i]``, as
    ``score_lemmas`` made them, scored against its sentence's context vector
    ``contexts[sentence_of[i]]``, ``contexts`` holding one vector per
    distinct sentence, and the texts' semantic vectors the rows of
    ``semantic`` (a text id outside them raises IndexIntegrityError). A
    row's context term depends only on its (sentence, text) pair
    (``_context_terms``). Each mention keeps its best ``top_m``, descending
    by score, ties broken by position."""
    if not rows:
        return Ranked(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))

    def stacked(column):
        return np.concatenate([column(r) for r in rows])

    sizes = stacked(lambda r: r.blocks.sizes)
    n_blocks = np.array([r.blocks.sizes.shape[0] for r in rows], dtype=np.intp)
    sentence = np.repeat(np.asarray(sentence_of, dtype=np.intp),
                         [r.partial.shape[0] for r in rows])
    text_ids = stacked(lambda r: r.blocks.text_ids)
    check_text_ids(text_ids, semantic.shape[0])
    per_row = stacked(lambda r: r.partial) + _context_terms(
        sentence, text_ids, contexts, semantic, params)
    contrib = stacked(lambda r: r.blocks.field_weights) * per_row / (
        1.0 + stacked(lambda r: r.blocks.distances))
    scores = np.zeros(sizes.shape[0])
    filled = sizes > 0
    scores[filled] = np.add.reduceat(contrib, (np.cumsum(sizes) - sizes)[filled])
    # by mention, then descending score, then position; each mention's first
    # top_m of that order are kept
    entities = stacked(lambda r: r.blocks.entities)
    mention = np.repeat(np.arange(len(rows)), n_blocks)
    order = np.lexsort((entities, -scores, mention))
    keep = order[np.arange(order.shape[0]) - np.repeat(np.cumsum(n_blocks) - n_blocks, n_blocks)
                 < top_m]
    return Ranked(mention[keep], entities[keep], scores[keep])
