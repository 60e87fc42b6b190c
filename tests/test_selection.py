"""Tests for topic aggregation, parent enhancement, and the knee cutoff."""

import random

import numpy as np
import pytest

from kbtopics.errors import ConfigError
from kbtopics.index import Related
from kbtopics.kb import Iri
from kbtopics.selection import (
    SelectionParams,
    Topic,
    TopicResult,
    aggregate,
    enhance_with_parents,
    kneedle_cutoff,
)


def iri(name: str) -> Iri:
    return Iri(f"http://example.org/{name}")


# entity ids, which order as the names (their IRIs) do
POSITION = {name: i for i, name in enumerate(sorted(
    [*"abcdefgh", "c1", "c2", "p", "p0", "p1", *(f"t{i}" for i in range(6))]))}


def ranking(*mentions: list[tuple[str, float]]):
    """Per-mention lists of (name, boosted score) as aggregate's aligned
    (mention, entity, effective) arrays."""
    rows = [(m, POSITION[name], value) for m, candidates in enumerate(mentions)
            for name, value in candidates]
    return (np.array([m for m, _, _ in rows], dtype=np.intp),
            np.array([e for _, e, _ in rows], dtype=np.intp),
            np.array([value for _, _, value in rows], dtype=np.float64))


def topic(name: str, score: float, lemmas=("x",), origin="direct") -> Topic:
    return Topic(POSITION[name], score, frozenset(lemmas), origin)


def parent_rows(parents: dict[str, list[tuple[str, float]]]) -> Related:
    """{child: its (parent, weight) pairs} as a CSR over the entity ids."""
    rows = [parents.get(name, []) for name in POSITION]
    return Related(np.cumsum([0] + [len(row) for row in rows]),
                   np.array([POSITION[p] for row in rows for p, _ in row], dtype=np.intp),
                   np.array([w for row in rows for _, w in row], dtype=np.float64))


def by_name(topics: list[Topic]) -> dict[str, Topic]:
    names = {i: name for name, i in POSITION.items()}
    return {names[t.entity]: t for t in topics}


class TestParams:
    def test_defaults(self):
        p = SelectionParams()
        assert p.lambda_diversity == 0.2
        assert p.kneedle_sensitivity == 1.0
        assert p.min_topics == 3
        assert p.include_parents is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda_diversity": -0.1},
            {"lambda_diversity": float("inf")},
            {"kneedle_sensitivity": 0.0},
            {"min_topics": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SelectionParams(**kwargs)


class TestTopicResult:
    def test_direct_requires_lemmas(self):
        with pytest.raises(ValueError):
            TopicResult(iri("a"), "a", 1.0, frozenset(), "direct")


class TestAggregate:
    def test_single_mention_single_lemma(self):
        out = aggregate(*ranking([("a", 4.0)]), ["bear"], SelectionParams())
        assert len(out) == 1
        assert out[0].entity == POSITION["a"]
        assert out[0].final_score == pytest.approx(4.0)
        assert out[0].supporting_lemmas == frozenset({"bear"})
        assert out[0].origin == "direct"

    def test_two_mentions_distinct_lemmas(self):
        rows = ranking([("a", 3.0)], [("a", 2.0)])
        out = aggregate(*rows, ["bear", "polar bear"], SelectionParams())
        assert out[0].final_score == pytest.approx((3 + 2) * 1.2)
        assert out[0].supporting_lemmas == frozenset({"bear", "polar bear"})

    def test_repeated_lemma_no_diversity_bonus(self):
        out = aggregate(*ranking([("a", 3.0)], [("a", 2.0)]), ["bear", "bear"],
                        SelectionParams())
        assert out[0].final_score == pytest.approx(5.0)

    def test_equal_scores_tie_by_iri(self):
        out = aggregate(*ranking([("b", 2.0)], [("a", 2.0)]), ["x", "y"], SelectionParams())
        assert [t.entity for t in out] == [POSITION["a"], POSITION["b"]]

    def test_empty_mentions_skipped(self):
        out = aggregate(*ranking([], [("a", 1.0)]), ["x", "y"], SelectionParams())
        assert len(out) == 1 and out[0].supporting_lemmas == frozenset({"y"})
        assert aggregate(*ranking([], []), ["x", "y"], SelectionParams()) == []

    def test_winner_uses_boosted_score(self):
        out = aggregate(*ranking([("a", 5.0), ("b", 4.5 * 1.2)]), ["x"], SelectionParams())
        assert out[0].entity == POSITION["b"]
        assert out[0].final_score == pytest.approx(5.4)

    def test_winner_tie_breaks_by_iri(self):
        out = aggregate(*ranking([("b", 2.0), ("a", 2.0)]), ["x"], SelectionParams())
        assert out[0].entity == POSITION["a"]

    def test_requires_one_lemma_per_mention(self):
        with pytest.raises(ValueError):
            aggregate(*ranking([("a", 1.0)]), [], SelectionParams())

    def test_mention_order_irrelevant(self):
        ranked = [[("a", 3.0)], [("b", 7.0)], [("a", 2.0)]]
        lemmas = ["l1", "l2", "l3"]
        base = aggregate(*ranking(*ranked), lemmas, SelectionParams())
        perm = [2, 0, 1]
        again = aggregate(*ranking(*[ranked[i] for i in perm]), [lemmas[i] for i in perm],
                          SelectionParams())
        assert base == again

    def test_monotone_in_contribution_and_diversity(self):
        rows = ranking([("a", 3.0)], [("a", 2.0)])
        base = aggregate(*rows, ["x", "x"], SelectionParams())
        bumped = aggregate(*ranking([("a", 3.5)], [("a", 2.0)]), ["x", "x"], SelectionParams())
        diverse = aggregate(*rows, ["x", "y"], SelectionParams())
        assert bumped[0].final_score > base[0].final_score
        assert diverse[0].final_score > base[0].final_score


class TestEnhanceWithParents:
    def test_disabled_returns_input(self):
        topics = [topic("a", 10.0)]
        params = SelectionParams(include_parents=False)
        assert enhance_with_parents(topics, parent_rows({"a": [("p", 1.0)]}), params) == topics

    def test_unit_weight_parent(self):
        topics = [topic("a", 10.0, lemmas=("bear",))]
        parents = {"a": [("p", 1.0)]}
        out = enhance_with_parents(topics, parent_rows(parents), SelectionParams())
        by_entity = by_name(out)
        assert by_entity["p"].final_score == pytest.approx(10.0)
        assert by_entity["p"].origin == "parent"
        assert by_entity["p"].supporting_lemmas == frozenset({"bear"})

    def test_heavily_linked_parent_weight(self):
        # parent weight for 1000 incoming links at alpha 0.3
        weight = 1000.0 ** -0.3
        topics = [topic("a", 10.0)]
        parents = {"a": [("p", weight)]}
        out = enhance_with_parents(topics, parent_rows(parents), SelectionParams())
        by_entity = by_name(out)
        assert by_entity["p"].final_score == pytest.approx(1.2589254117941673)

    def test_parent_already_direct_accumulates(self):
        topics = [topic("c", 10.0, lemmas=("cub",)), topic("p", 4.0, lemmas=("pa",))]
        parents = {"c": [("p", 0.5)]}
        out = enhance_with_parents(topics, parent_rows(parents), SelectionParams())
        by_entity = by_name(out)
        assert by_entity["p"].final_score == pytest.approx(9.0)
        assert by_entity["p"].origin == "direct"
        assert by_entity["p"].supporting_lemmas == frozenset({"pa"})

    def test_accumulates_over_children(self):
        topics = [topic("c1", 10.0, lemmas=("x",)), topic("c2", 6.0, lemmas=("y",))]
        parents = {
            "c1": [("p", 0.5)],
            "c2": [("p", 0.5)],
        }
        out = enhance_with_parents(topics, parent_rows(parents), SelectionParams())
        by_entity = by_name(out)
        assert by_entity["p"].final_score == pytest.approx(8.0)
        assert by_entity["p"].supporting_lemmas == frozenset({"x", "y"})

    def test_no_transitive_chasing(self):
        topics = [topic("c", 10.0)]
        parents = {
            "c": [("p", 1.0)],
            "p": [("g", 1.0)],
        }
        out = enhance_with_parents(topics, parent_rows(parents), SelectionParams())
        assert set(by_name(out)) == {"c", "p"}

    def test_never_decreases_direct_scores(self):
        rng = random.Random(5)
        names = [f"t{i}" for i in range(6)]
        topics = [topic(n, rng.uniform(1, 10), lemmas=(n,)) for n in names]
        parents = {
            n: [(f"p{i % 2}", rng.uniform(0.1, 1.0))]
            for i, n in enumerate(names)
        }
        out = enhance_with_parents(topics, parent_rows(parents), SelectionParams())
        before = {t.entity: t.final_score for t in topics}
        after = {t.entity: t.final_score for t in out}
        for entity, score in before.items():
            assert after[entity] >= score

    def test_output_sorted(self):
        topics = [topic("c1", 10.0), topic("c2", 6.0)]
        parents = {
            "c1": [("p", 1.0)],
            "c2": [("p", 1.0)],
        }
        out = enhance_with_parents(topics, parent_rows(parents), SelectionParams())
        scores = [t.final_score for t in out]
        assert scores == sorted(scores, reverse=True)
        assert out[0].entity == POSITION["p"]

    def test_equal_scores_tie_by_entity_id(self):
        # two parents credited alike, the later IRI first in the child's row
        topics = [topic("c", 10.0)]
        out = enhance_with_parents(
            topics, parent_rows({"c": [("p1", 0.5), ("p0", 0.5)]}), SelectionParams())
        assert [t.entity for t in out] == [POSITION["c"], POSITION["p0"], POSITION["p1"]]
        assert out[1].final_score == out[2].final_score


def kneedle_oracle(scores, sensitivity=1.0):
    """Offline knee finder: local maxima of the difference curve with the
    published drop-below-threshold acceptance rule. Returns the knee index
    or None."""
    n = len(scores)
    if n < 2:
        return None
    span = scores[0] - scores[-1]
    if span <= 0:
        return None
    y = (np.asarray(scores, dtype=np.float64) - scores[-1]) / span
    x = np.linspace(0.0, 1.0, n)
    d = y - (1.0 - x)
    maxima = [
        i for i in range(1, n - 1) if d[i] > d[i - 1] and d[i] >= d[i + 1]
    ]
    for pos, lmx in enumerate(maxima):
        threshold = d[lmx] - sensitivity / (n - 1)
        end = maxima[pos + 1] if pos + 1 < len(maxima) else n
        for j in range(lmx + 1, end):
            if d[j] < threshold:
                return lmx
    return None


def planted_knee_curve(rng, n, knee):
    """Plateau with a gentle slope, then a cliff, as a descending list."""
    gentle = rng.uniform(0.01, 0.1)
    steep = rng.uniform(1.0, 3.0)
    scores = [100.0]
    for i in range(1, n):
        slope = gentle if i <= knee else steep
        scores.append(scores[-1] - slope)
    return scores


class TestKneedleCutoff:
    def test_frozen_example(self):
        assert kneedle_cutoff([5, 4.8, 4.6, 1.0, 0.5], SelectionParams()) == 3

    def test_linear_keeps_floor(self):
        assert kneedle_cutoff([5, 4, 3, 2, 1], SelectionParams()) == 3

    def test_single_element(self):
        assert kneedle_cutoff([7.0], SelectionParams()) == 1

    def test_empty(self):
        assert kneedle_cutoff([], SelectionParams()) == 0

    def test_two_elements_keep_all(self):
        assert kneedle_cutoff([5.0, 1.0], SelectionParams()) == 2

    def test_flat_curve_keeps_floor(self):
        assert kneedle_cutoff([2.0, 2.0, 2.0, 2.0], SelectionParams()) == 3
        assert kneedle_cutoff([2.0, 2.0], SelectionParams(min_topics=1)) == 1

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            kneedle_cutoff([1.0, 2.0], SelectionParams())

    def test_floor_is_never_zero(self):
        assert kneedle_cutoff([3.0, 3.0, 3.0], SelectionParams(min_topics=0)) == 1

    def test_bounds_and_floor_invariant(self):
        rng = random.Random(17)
        params = SelectionParams()
        for _ in range(50):
            n = rng.randint(1, 40)
            scores = sorted((rng.uniform(0, 10) for _ in range(n)), reverse=True)
            keep = kneedle_cutoff(scores, params)
            assert 1 <= keep <= n
            if n >= params.min_topics:
                assert keep >= params.min_topics

    def test_affine_invariance(self):
        rng = random.Random(23)
        params = SelectionParams()
        for _ in range(20):
            n = rng.randint(4, 25)
            scores = sorted((rng.uniform(0, 10) for _ in range(n)), reverse=True)
            keep = kneedle_cutoff(scores, params)
            scaled = [3.5 * s + 11.0 for s in scores]
            assert kneedle_cutoff(scaled, params) == keep

    def test_recovers_planted_knees(self):
        rng = random.Random(41)
        params = SelectionParams()
        for _ in range(50):
            n = rng.randint(8, 30)
            knee = rng.randint(3, n - 3)
            scores = planted_knee_curve(rng, n, knee)
            keep = kneedle_cutoff(scores, params)
            assert abs(keep - (knee + 1)) <= 1

    def test_agrees_with_local_maxima_oracle(self):
        rng = random.Random(43)
        params = SelectionParams()
        for _ in range(50):
            n = rng.randint(8, 30)
            knee = rng.randint(3, n - 3)
            scores = planted_knee_curve(rng, n, knee)
            oracle_knee = kneedle_oracle(scores)
            assert oracle_knee is not None
            expected = max(oracle_knee + 1, min(params.min_topics, n))
            assert kneedle_cutoff(scores, params) == expected

    def test_oracle_confirms_frozen_example(self):
        assert kneedle_oracle([5, 4.8, 4.6, 1.0, 0.5]) == 2
        assert kneedle_oracle([5, 4, 3, 2, 1]) is None
