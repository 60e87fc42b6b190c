"""Activation function and the two-stage candidate scoring kernel."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kbtopics import ranking
from kbtopics.errors import ConfigError
from kbtopics.ranking import (
    RankingParams, ScoredCandidate, activation, rank_mentions, score_lemmas,
)
from kbtopics.vectors import lexical_vector

from row_table import (
    CandidateBlock, LexicalRows, MentionVectors, RowTable, block_scores, lemma_rows,
    rank_candidates, score_candidate, stack,
)
from oracles import block_scores_one_stage, cosine_sparse, partial_by_rows


def naive_score(mention, block, params, vectors):
    """Per-row reference implementation: explicit cosines, scalar math."""
    total = 0.0
    lex_rows, sem_matrix = vectors.load_vectors(block.text_ids)
    for i, lex_row in enumerate(lex_rows):
        lex = cosine_sparse(lex_row, mention.lex)
        sem = float(np.dot(sem_matrix[i], mention.sem))
        ctx = float(np.dot(sem_matrix[i], mention.ctx))
        a = lambda x: (1.0 + math.exp(params.alpha - params.beta * x)) ** -2
        d = (params.w_l * a(lex) + params.w_sm * a(sem) + params.w_sc * a(ctx))
        total += block.field_weights[i] * d / (1.0 + block.distances[i])
    return total


def random_block(rng, table, entity=0, n_rows=5, dim=8):
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
    return table.block(
        entity,
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


def single_row_block(table, text, field_weight=1.0, distance=0.0, sem_row=None, dim=4):
    sem = np.zeros((1, dim)) if sem_row is None else np.asarray([sem_row], dtype=float)
    return table.block(0, [lexical_vector(text)], sem, [field_weight], [distance])


class TestScoreCandidate:
    def test_identical_text_lexical_only(self):
        params = RankingParams(w_l=1.0, w_sm=0.0, w_sc=0.5)
        mention = MentionVectors(lexical_vector("polar bear"), np.zeros(4), np.zeros(4))
        table = RowTable(4)
        block = single_row_block(table, "polar bear")
        # lexical cosine 1 -> a(1); zero semantic rows add w_sc*a(0)
        want = activation(1.0) + 0.5 * activation(0.0)
        assert score_candidate(mention, block, table, params) == pytest.approx(
            float(want), abs=1e-9)

    def test_empty_block_scores_zero(self):
        params = RankingParams()
        table = RowTable(4)
        block = table.block(0, [], np.zeros((0, 4)), [], [])
        mention = MentionVectors(lexical_vector("x y z"), np.zeros(4), np.zeros(4))
        assert score_candidate(mention, block, table, params) == 0.0

    def test_zero_mention_vectors_closed_form(self):
        params = RankingParams()
        rng = np.random.default_rng(0)
        table = RowTable(8)
        block = random_block(rng, table, n_rows=6)
        mention = MentionVectors({}, np.zeros(8), np.zeros(8))
        floor = float(activation(0.0, params.alpha, params.beta))
        want = float(np.sum(
            block.field_weights
            * (params.w_l + params.w_sm + params.w_sc) * floor
            / (1.0 + block.distances)))
        assert score_candidate(mention, block, table, params) == pytest.approx(want, rel=1e-12)

    def test_distance_one_halves_contribution(self):
        params = RankingParams()
        mention = MentionVectors(lexical_vector("tuna"), np.zeros(4), np.zeros(4))
        table = RowTable(4)
        near = single_row_block(table, "tuna", distance=0.0)
        far = single_row_block(table, "tuna", distance=1.0)
        assert score_candidate(mention, far, table, params) == pytest.approx(
            score_candidate(mention, near, table, params) / 2.0, rel=1e-12)

    def test_bulk_equals_naive_loop(self):
        params = RankingParams(w_l=1.0, w_sm=0.8, w_sc=0.3)
        rng = np.random.default_rng(1234)
        table = RowTable(8)
        for _ in range(300):
            mention = random_mention(rng)
            block = random_block(rng, table, n_rows=int(rng.integers(1, 8)))
            got = score_candidate(mention, block, table, params)
            want = naive_score(mention, block, params, table)
            assert got == pytest.approx(want, abs=1e-6)

    def test_monotone_in_semantic_cosine(self):
        params = RankingParams()
        mention = MentionVectors({}, np.array([1.0, 0.0]), np.zeros(2))
        table = RowTable(2)
        scores = []
        for cos in np.linspace(-1, 1, 9):
            row = np.array([cos, math.sqrt(1 - cos**2)])
            block = single_row_block(table, "abc", sem_row=row, dim=2)
            scores.append(score_candidate(mention, block, table, params))
        assert all(a < b for a, b in zip(scores, scores[1:]))


TOP = 2**64 - 1  # gram hashes use all 64 bits
EDGE_CASES = {
    # keys that a float64 cast would merge (TOP and TOP - 1, 2**63 + 5 and
    # + 6) and that a signed cast would wrap: near misses of a query key
    # that sort next to it in the gram vocabulary; TOP - 2**16 shares TOP's
    # low bits, so it also passes the row oracle's low-bit screen and only
    # the exact comparison tells them apart
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


def edge_case(case):
    """The case's mention, blocks and row table."""
    query, blocks_rows = EDGE_CASES[case]
    rng = np.random.default_rng(5)
    mention = random_mention(rng, dim=4)
    mention = MentionVectors(query, mention.sem, mention.ctx)
    table = RowTable(4)
    blocks = []
    for b, rows in enumerate(blocks_rows):
        sem = rng.normal(size=(len(rows), 4))
        blocks.append(table.block(
            b, rows, sem, rng.uniform(0.5, 3.0, size=len(rows)),
            rng.uniform(0.0, 4.0, size=len(rows))))
    return mention, blocks, table


class TestKernelEdgeCases:
    """The column kernel against the per-row oracle on inputs random blocks miss."""

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_matches_per_row_oracle(self, case):
        mention, blocks, table = edge_case(case)
        params = RankingParams(w_l=1.0, w_sm=0.8, w_sc=0.3)
        scores = {c.entity: c.score for c in rank_candidates(mention, blocks, table, params)}
        for block in blocks:
            want = naive_score(mention, block, params, table)
            assert scores[block.entity] == pytest.approx(want, abs=1e-6)
            assert score_candidate(mention, block, table, params) == pytest.approx(
                want, abs=1e-6)

    def test_signed_keys_rejected(self):
        with pytest.raises(ValueError):
            LexicalRows(np.array([1], dtype=np.int64), np.array([1.0]),
                        np.array([0, 1]))


KEYS = st.one_of(st.integers(0, 40), st.integers(2**63 - 2, 2**63 + 2),
                st.integers(TOP - 2, TOP), st.just(TOP - 2**16))
ROWS = st.dictionaries(KEYS, st.floats(0.01, 1.0), max_size=5)
COORDS = st.floats(-1.0, 1.0, allow_subnormal=False)


@st.composite
def scoring_inputs(draw):
    """A row table and blocks over it: rows without grams, keys at or above
    2**63, duplicate keys across rows, zero-row blocks, texts in several
    blocks; a query (maybe empty), two sentence contexts and a permutation
    of the blocks."""
    dim = draw(st.integers(1, 4))
    vec = st.lists(COORDS, min_size=dim, max_size=dim).map(np.array)
    n_texts = draw(st.integers(0, 8))
    table = RowTable(dim)
    ids = table.add(draw(st.lists(ROWS, min_size=n_texts, max_size=n_texts)),
                    np.array(draw(st.lists(vec, min_size=n_texts, max_size=n_texts)))
                    .reshape(n_texts, dim))
    texts = st.lists(st.sampled_from(ids.tolist()), max_size=6) if n_texts else st.just([])
    text_lists = draw(st.lists(texts, max_size=5))
    blocks = [CandidateBlock(
        b, np.array(texts, dtype=np.intp),
        np.array(draw(st.lists(st.floats(0.5, 3.0), min_size=len(texts),
                               max_size=len(texts)))),
        np.array(draw(st.lists(st.floats(0.0, 4.0), min_size=len(texts),
                               max_size=len(texts)))))
        for b, texts in enumerate(text_lists)]
    params = RankingParams(
        w_l=draw(st.floats(0.0, 2.0)), w_sm=draw(st.floats(0.1, 2.0)),
        w_sc=draw(st.floats(0.0, 2.0)), alpha=draw(st.floats(2.0, 6.0)),
        beta=draw(st.floats(4.0, 12.0)))
    return (table, blocks, draw(ROWS), draw(vec), [draw(vec), draw(vec)], params,
            draw(st.permutations(range(len(blocks)))))


def assert_bitwise(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestTwoStages:
    """Stage one once per lemma (lexical cosines from the column kernel),
    stage two per sentence, against the one-stage kernel over rows
    (``oracles.block_scores_one_stage``), bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(scoring_inputs())
    def test_equal_one_stage_bitwise(self, inputs):
        table, blocks, lex, sem, contexts, params, perm = inputs
        permuted = [blocks[i] for i in perm]
        for ctx in contexts:  # one stage one serves every sentence
            mention = MentionVectors(lex, sem, ctx)
            want = block_scores_one_stage(mention, blocks, table, params)
            assert_bitwise(block_scores(mention, blocks, table, params), want)
            assert_bitwise(block_scores(mention, permuted, table, params), want[list(perm)])
            ranked = rank_candidates(mention, blocks, table, params)
            assert rank_candidates(mention, permuted, table, params) == ranked
            assert sorted(c.score for c in ranked) == sorted(want.tolist())

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases_equal_one_stage_bitwise(self, case):
        mention, blocks, table = edge_case(case)
        params = RankingParams(w_l=1.0, w_sm=0.8, w_sc=0.3)
        want = block_scores_one_stage(mention, blocks, table, params)
        assert_bitwise(block_scores(mention, blocks, table, params), want)
        for block, score in zip(blocks, want.tolist()):
            assert score_candidate(mention, block, table, params) == score

    def test_rows_hold_addresses_only(self):
        rng = np.random.default_rng(3)
        table = RowTable(8)
        blocks = [random_block(rng, table, entity=i) for i in range(3)]
        rows = lemma_rows(MentionVectors({}, np.zeros(8), np.zeros(8)), blocks, table,
                          RankingParams())
        assert rows.blocks.entities.tolist() == [0, 1, 2]
        assert rows.blocks.text_ids.tolist() == [i for b in blocks for i in b.text_ids.tolist()]
        assert not any(isinstance(v, LexicalRows) or (isinstance(v, np.ndarray) and v.ndim > 1)
                       for v in [*vars(rows).values(), *vars(rows.blocks).values()])


WORDS = ["", "a", "ab", "tuna", "polar bear", "seal"]  # some shorter than a 3-gram
QUERIES = st.one_of(ROWS, st.sampled_from(WORDS).map(lexical_vector))


@st.composite
def lemma_batches(draw):
    """A row table, lemmas over it (a query, maybe empty, a semantic vector
    and blocks, maybe none) and sentence contexts, a ``_BATCH_VALUES`` small
    enough to split a batch into chunks or not, and ranking parameters."""
    table, blocks, _, _, _, params, _ = draw(scoring_inputs())
    dim = table.sem.shape[1]
    vec = st.lists(COORDS, min_size=dim, max_size=dim).map(np.array)
    lemmas = []
    for _ in range(draw(st.integers(1, 5))):
        picked = draw(st.lists(st.sampled_from(blocks), max_size=4, unique_by=lambda b: b.entity)
                      if blocks else st.just([]))
        lemmas.append((draw(QUERIES), draw(vec), picked))
    contexts = draw(st.lists(vec, min_size=1, max_size=3))
    batch_values = draw(st.sampled_from([1, 7, 40, 2 * table.text_count or 1, 2**20]))
    return table, lemmas, contexts, batch_values, params


def scored_together(table, lemmas, order, params):
    """Stage one of the lemmas in the given order, repeats included, as one
    batch over one stack of all their blocks."""
    picked = [lemmas[j] for j in order]
    return score_lemmas([lex for lex, _, _ in picked],
                        np.array([sem for _, sem, _ in picked]).reshape(len(picked), -1),
                        stack([b for _, _, blocks in picked for b in blocks]),
                        [len(blocks) for _, _, blocks in picked], table, params)


class TestBatches:
    """Many lemmas in one stage-one pass, and many mentions in one stage-two
    pass, each bit for bit a batch of one and the row oracles, in one chunk
    or several."""

    @settings(max_examples=200, deadline=None)
    @given(lemma_batches(), st.data())
    def test_lemma_batch_equals_each_lemma_alone(self, batch, data):
        table, lemmas, _, batch_values, params = batch
        order = data.draw(st.lists(st.integers(0, len(lemmas) - 1), min_size=1, max_size=8))
        with mock.patch.object(ranking, "_BATCH_VALUES", batch_values):
            together = scored_together(table, lemmas, order, params)
        assert len(together) == len(order)
        for j, rows in zip(order, together):
            lex, sem, blocks = lemmas[j]
            [alone] = scored_together(table, lemmas, [j], params)
            assert_bitwise(rows.partial, alone.partial)
            assert_bitwise(rows.partial, partial_by_rows(lex, sem, blocks, table, params))
            for name in ("entities", "sizes", "text_ids", "field_weights", "distances"):
                assert_bitwise(getattr(rows.blocks, name), getattr(alone.blocks, name))
            # the rows own their arrays, none a view of the batch's
            assert all(a.base is None for a in (rows.partial, *vars(rows.blocks).values()))

    @settings(max_examples=200, deadline=None)
    @given(lemma_batches(), st.data())
    def test_mention_batch_equals_each_mention_alone(self, batch, data):
        table, lemmas, contexts, batch_values, params = batch
        # mentions as (lemma, sentence), sharing either or not; lemmas share
        # blocks and blocks share texts, so rows repeat (sentence, text) pairs
        mentions = data.draw(st.lists(st.tuples(st.integers(0, len(lemmas) - 1),
                                                st.integers(0, len(contexts) - 1)),
                                      min_size=1, max_size=12))
        top_m = data.draw(st.integers(1, 5))
        # context terms per row (0), per distinct pair (2**40) or as the
        # density of the rows decides
        slots_per_row = data.draw(st.sampled_from([0, ranking._PAIR_SLOTS_PER_ROW, 2**40]))
        rows = scored_together(table, lemmas, range(len(lemmas)), params)
        with mock.patch.object(ranking, "_BATCH_VALUES", batch_values), \
                mock.patch.object(ranking, "_PAIR_SLOTS_PER_ROW", slots_per_row):
            ranked = rank_mentions([rows[j] for j, _ in mentions], np.array(contexts),
                                   [c for _, c in mentions], table, params, top_m)
        assert len(ranked) == len(mentions)
        for i, ((j, c), got) in enumerate(zip(mentions, ranked)):
            [alone] = rank_mentions([rows[j]], contexts[c][None], [0], table, params, top_m)
            assert [s.mention_index for s in got] == [i] * len(got)
            assert [(s.entity, s.score) for s in got] == [(s.entity, s.score) for s in alone]
            lex, sem, blocks = lemmas[j]
            want = block_scores_one_stage(MentionVectors(lex, sem, contexts[c]), blocks, table,
                                          params)
            best = sorted(zip((-want).tolist(), [b.entity for b in blocks]))[:top_m]
            assert [(s.entity, s.score) for s in got] == [(e, -s) for s, e in best]

    def test_empty_batches(self):
        table, params = RowTable(4), RankingParams()
        assert score_lemmas([], np.zeros((0, 4)), stack([]), [], table, params) == []
        assert rank_mentions([], np.zeros((0, 4)), [], table, params, 3) == []


class TestRankCandidates:
    def test_exact_match_ranks_first(self):
        mention = MentionVectors(lexical_vector("polar bear"), np.zeros(4), np.zeros(4))
        table = RowTable(4)
        blocks = [
            table.block(pos, [lexical_vector(text)], np.zeros((1, 4)), [1.0], [0.0])
            for pos, text in ((2, "polar bear"), (0, "polar bears"), (1, "sea otter"))
        ]
        ranked = rank_candidates(mention, blocks, table, RankingParams())
        assert [c.entity for c in ranked] == [2, 0, 1]
        assert ranked[0].score > ranked[1].score > ranked[2].score

    def test_empty(self):
        mention = MentionVectors({}, np.zeros(4), np.zeros(4))
        assert rank_candidates(mention, [], RowTable(4), RankingParams()) == []

    def test_ties_break_by_iri(self):
        # by position, which orders as the records' IRIs do
        mention = MentionVectors(lexical_vector("tuna"), np.zeros(4), np.zeros(4))
        table = RowTable(4)
        blocks = [
            table.block(pos, [lexical_vector("tuna")], np.zeros((1, 4)), [1.0], [0.0])
            for pos in (9, 0, 4)
        ]
        ranked = rank_candidates(mention, blocks, table, RankingParams())
        assert [c.entity for c in ranked] == [0, 4, 9]
        assert len({c.score for c in ranked}) == 1

    def test_permutation_invariant(self):
        rng = np.random.default_rng(21)
        mention = random_mention(rng)
        table = RowTable(8)
        blocks = [random_block(rng, table, entity=i) for i in range(6)]
        base = rank_candidates(mention, blocks, table, RankingParams())
        assert rank_candidates(mention, blocks[::-1], table, RankingParams()) == base

    def test_mention_index_recorded(self):
        mention = MentionVectors({}, np.zeros(4), np.zeros(4))
        table = RowTable(4)
        rows = lemma_rows(mention, [single_row_block(table, "abc")], table, RankingParams())
        ranked = rank_mentions([rows] * 8, np.zeros((1, 4)), [0] * 8, table, RankingParams(), 3)
        assert [[c.mention_index for c in r] for r in ranked] == [[i] for i in range(8)]

    def test_keeps_top_m_per_mention(self):
        rng = np.random.default_rng(8)
        table = RowTable(8)
        blocks = [random_block(rng, table, entity=i) for i in range(6)]
        mention = random_mention(rng)
        everything = rank_candidates(mention, blocks, table, RankingParams())
        rows = lemma_rows(mention, blocks, table, RankingParams())
        for top_m in (1, 2, 6, 7):
            [ranked] = rank_mentions([rows], mention.ctx[None], [0], table, RankingParams(),
                                     top_m)
            assert ranked == everything[:top_m]


class TestScoredCandidate:
    def test_effective_score(self):
        c = ScoredCandidate(0, 0, score=2.0, boost=1.25)
        assert c.effective == 2.5
        assert ScoredCandidate(0, 0, 2.0).effective == 2.0
