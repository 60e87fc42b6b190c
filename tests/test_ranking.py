"""Activation function and the bulk candidate scoring kernel."""

import math

import numpy as np
import pytest

from kbtopics.errors import ConfigError
from kbtopics.kb import Iri
from kbtopics.ranking import (
    LexicalRows,
    MentionVectors,
    RankingParams,
    ScoredCandidate,
    activation,
    rank_candidates,
    score_candidate,
)
from kbtopics.vectors import cosine_sparse, lexical_vector

from csr_blocks import block_from_rows

EX = "http://example.org/"


def iri(name):
    return Iri(EX + name)


def naive_score(mention, block, params):
    """Per-row reference implementation: explicit cosines, scalar math."""
    total = 0.0
    for i, lex_row in enumerate(block.lex_rows):
        lex = cosine_sparse(lex_row, mention.lex)
        sem = float(np.dot(block.sem_matrix[i], mention.sem))
        ctx = float(np.dot(block.sem_matrix[i], mention.ctx))
        a = lambda x: (1.0 + math.exp(params.alpha - params.beta * x)) ** -2
        d = (params.w_l * a(lex) + params.w_sm * a(sem) + params.w_sc * a(ctx))
        total += block.field_weights[i] * d / (1.0 + block.distances[i])
    return total


def random_block(rng, entity="cand", n_rows=5, dim=8):
    lex_rows = []
    for _ in range(n_rows):
        n_keys = int(rng.integers(1, 6))
        keys = rng.integers(0, 50, size=n_keys)
        vals = rng.uniform(0.1, 1.0, size=n_keys)
        vals /= np.linalg.norm(vals)
        lex_rows.append({int(k): float(v) for k, v in zip(keys, vals)})
    sem = rng.normal(size=(n_rows, dim))
    sem /= np.linalg.norm(sem, axis=1, keepdims=True)
    if n_rows > 1:
        sem[1] = 0.0  # exercise the zero-row exemption
    return block_from_rows(
        iri(entity),
        lex_rows,
        sem,
        field_weights=rng.uniform(0.5, 3.0, size=n_rows),
        distances=rng.uniform(0.0, 4.0, size=n_rows),
    )


def random_mention(rng, dim=8) -> MentionVectors:
    keys = rng.integers(0, 50, size=4)
    vals = rng.uniform(0.1, 1.0, size=4)
    vals /= np.linalg.norm(vals)
    sem = rng.normal(size=dim)
    sem /= np.linalg.norm(sem)
    ctx = rng.normal(size=dim)
    ctx /= np.linalg.norm(ctx)
    return MentionVectors(
        lex={int(k): float(v) for k, v in zip(keys, vals)}, sem=sem, ctx=ctx)


class TestActivation:
    def test_quarter_point_exact(self):
        assert activation(0.5, 4.0, 8.0) == 0.25
        assert activation(1.0, 3.0, 3.0) == 0.25

    def test_direct_evaluation_at_one(self):
        assert activation(1.0) == pytest.approx(0.9643510838246172, abs=1e-12)

    def test_floor_at_zero(self):
        assert activation(0.0) == pytest.approx((1 + math.exp(4)) ** -2, abs=1e-15)
        assert activation(0.0) == pytest.approx(3.235037488004416e-4, rel=1e-9)

    def test_strictly_monotone_on_grid(self):
        xs = np.linspace(-1.0, 1.0, 10_000)
        ys = activation(xs)
        assert np.all(np.diff(ys) > 0)

    def test_range_open_unit_interval(self):
        ys = activation(np.linspace(-1.0, 1.0, 10_000))
        assert np.all(ys > 0.0) and np.all(ys < 1.0)

    def test_scalar_and_array_agree(self):
        xs = np.array([-0.3, 0.0, 0.7])
        np.testing.assert_allclose([activation(float(x)) for x in xs], activation(xs))


class TestRankingParams:
    @pytest.mark.parametrize("kwargs", [
        dict(w_l=-0.1), dict(w_l=0.0, w_sm=0.0, w_sc=0.0),
        dict(beta=0.0), dict(beta=-2.0), dict(w_sc=-0.5),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            RankingParams(**kwargs)


def single_row_block(text, field_weight=1.0, distance=0.0, sem_row=None, dim=4):
    sem = np.zeros((1, dim)) if sem_row is None else np.asarray([sem_row], dtype=float)
    return block_from_rows(iri("cand"), [lexical_vector(text)], sem,
                           [field_weight], [distance])


class TestScoreCandidate:
    def test_identical_text_lexical_only(self):
        params = RankingParams(w_l=1.0, w_sm=0.0, w_sc=0.5)
        mention = MentionVectors(lexical_vector("polar bear"), np.zeros(4), np.zeros(4))
        block = single_row_block("polar bear")
        # lexical cosine 1 -> a(1); zero semantic rows add w_sc*a(0)
        want = activation(1.0) + 0.5 * activation(0.0)
        assert score_candidate(mention, block, params) == pytest.approx(float(want), abs=1e-9)

    def test_empty_block_scores_zero(self):
        params = RankingParams()
        block = block_from_rows(iri("cand"), [], np.zeros((0, 4)), [], [])
        mention = MentionVectors(lexical_vector("x y z"), np.zeros(4), np.zeros(4))
        assert score_candidate(mention, block, params) == 0.0

    def test_zero_mention_vectors_closed_form(self):
        params = RankingParams()
        rng = np.random.default_rng(0)
        block = random_block(rng, n_rows=6)
        mention = MentionVectors({}, np.zeros(8), np.zeros(8))
        floor = float(activation(0.0, params.alpha, params.beta))
        want = float(np.sum(
            block.field_weights
            * (params.w_l + params.w_sm + params.w_sc) * floor
            / (1.0 + block.distances)))
        assert score_candidate(mention, block, params) == pytest.approx(want, rel=1e-12)

    def test_distance_one_halves_contribution(self):
        params = RankingParams()
        mention = MentionVectors(lexical_vector("tuna"), np.zeros(4), np.zeros(4))
        near = single_row_block("tuna", distance=0.0)
        far = single_row_block("tuna", distance=1.0)
        assert score_candidate(mention, far, params) == pytest.approx(
            score_candidate(mention, near, params) / 2.0, rel=1e-12)

    def test_bulk_equals_naive_loop(self):
        params = RankingParams(w_l=1.0, w_sm=0.8, w_sc=0.3)
        rng = np.random.default_rng(1234)
        for _ in range(300):
            mention = random_mention(rng)
            block = random_block(rng, n_rows=int(rng.integers(1, 8)))
            got = score_candidate(mention, block, params)
            want = naive_score(mention, block, params)
            assert got == pytest.approx(want, abs=1e-6)

    def test_monotone_in_semantic_cosine(self):
        params = RankingParams()
        mention = MentionVectors({}, np.array([1.0, 0.0]), np.zeros(2))
        scores = []
        for cos in np.linspace(-1, 1, 9):
            row = np.array([cos, math.sqrt(1 - cos**2)])
            block = single_row_block("abc", sem_row=row, dim=2)
            scores.append(score_candidate(mention, block, params))
        assert all(a < b for a, b in zip(scores, scores[1:]))


TOP = 2**64 - 1  # gram hashes use all 64 bits
EDGE_CASES = {
    # keys that a float64 cast would merge (TOP and TOP - 1, 2**63 + 5 and
    # + 6) and that a signed cast would wrap; TOP - 2**16 shares TOP's low
    # bits, so it passes the kernel's low-bit screen and only the exact
    # comparison tells them apart
    "keys_at_or_above_2_63": (
        {2**63 + 5: 0.6, TOP: 0.8},
        [[{TOP: 1.0}, {2**63 + 5: 0.6, TOP: 0.8}, {TOP - 1: 1.0}],
         [{2**63 + 6: 0.6, 5: 0.8}, {2**63: 1.0}, {TOP - 2**16: 1.0}]],
    ),
    "rows_without_grams": (
        lexical_vector("tuna"),
        [[lexical_vector("ab"), lexical_vector("tuna"), lexical_vector("")],
         [{}, {}]],
    ),
    "empty_query": (
        {},
        [[lexical_vector("tuna"), lexical_vector("polar bear")]],
    ),
    "zero_row_blocks": (
        lexical_vector("tuna"),
        [[], [lexical_vector("tuna")], [], [lexical_vector("tuna salad")], []],
    ),
    "duplicate_keys_across_rows": (
        {7: 0.6, 9: 0.8},
        [[{7: 0.6, 9: 0.8}, {7: 1.0}, {9: 0.6, 7: 0.8}, {9: 1.0}],
         [{7: 1.0}, {7: 1.0}]],
    ),
}


class TestKernelEdgeCases:
    """The CSR kernel against the per-row oracle on inputs random blocks miss."""

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_matches_per_row_oracle(self, case):
        query, blocks_rows = EDGE_CASES[case]
        rng = np.random.default_rng(5)
        params = RankingParams(w_l=1.0, w_sm=0.8, w_sc=0.3)
        mention = random_mention(rng, dim=4)
        mention = MentionVectors(query, mention.sem, mention.ctx)
        blocks = []
        for b, rows in enumerate(blocks_rows):
            sem = rng.normal(size=(len(rows), 4))
            blocks.append(block_from_rows(
                iri(f"c{b}"), rows, sem, rng.uniform(0.5, 3.0, size=len(rows)),
                rng.uniform(0.0, 4.0, size=len(rows))))
        scores = {c.entity: c.score for c in rank_candidates(mention, blocks, params)}
        for block in blocks:
            want = naive_score(mention, block, params)
            assert scores[block.entity] == pytest.approx(want, abs=1e-6)
            assert score_candidate(mention, block, params) == pytest.approx(want, abs=1e-6)

    def test_signed_keys_rejected(self):
        with pytest.raises(ValueError):
            LexicalRows(np.array([1], dtype=np.int64), np.array([1.0]),
                        np.array([0, 1]))


class TestRankCandidates:
    def test_exact_match_ranks_first(self):
        mention = MentionVectors(lexical_vector("polar bear"), np.zeros(4), np.zeros(4))
        blocks = [
            block_from_rows(iri("exact"), [lexical_vector("polar bear")],
                            np.zeros((1, 4)), [1.0], [0.0]),
            block_from_rows(iri("near"), [lexical_vector("polar bears")],
                            np.zeros((1, 4)), [1.0], [0.0]),
            block_from_rows(iri("far"), [lexical_vector("sea otter")],
                            np.zeros((1, 4)), [1.0], [0.0]),
        ]
        ranked = rank_candidates(mention, blocks, RankingParams())
        assert [c.entity for c in ranked] == [iri("exact"), iri("near"), iri("far")]
        assert ranked[0].score > ranked[1].score > ranked[2].score

    def test_empty(self):
        mention = MentionVectors({}, np.zeros(4), np.zeros(4))
        assert rank_candidates(mention, [], RankingParams()) == []

    def test_ties_break_by_iri(self):
        mention = MentionVectors(lexical_vector("tuna"), np.zeros(4), np.zeros(4))
        blocks = [
            block_from_rows(iri(n), [lexical_vector("tuna")], np.zeros((1, 4)),
                            [1.0], [0.0])
            for n in ("zeta", "alpha", "mid")
        ]
        ranked = rank_candidates(mention, blocks, RankingParams())
        assert [c.entity for c in ranked] == [iri("alpha"), iri("mid"), iri("zeta")]

    def test_permutation_invariant(self):
        rng = np.random.default_rng(21)
        mention = random_mention(rng)
        blocks = [random_block(rng, entity=f"c{i}") for i in range(6)]
        base = rank_candidates(mention, blocks, RankingParams())
        assert rank_candidates(mention, blocks[::-1], RankingParams()) == base

    def test_mention_index_recorded(self):
        mention = MentionVectors({}, np.zeros(4), np.zeros(4))
        block = single_row_block("abc")
        ranked = rank_candidates(mention, [block], RankingParams(), mention_index=7)
        assert ranked[0].mention_index == 7


class TestScoredCandidate:
    def test_effective_score(self):
        c = ScoredCandidate(iri("e"), 0, score=2.0, boost=1.25)
        assert c.effective == 2.5
        assert ScoredCandidate(iri("e"), 0, 2.0).effective == 2.0
