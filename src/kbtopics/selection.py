"""Topic aggregation, parent enhancement, and knee-based cutoff.

Per-mention winners, picked from stage two's aligned (mention, entity,
boosted score) arrays with one sort, are folded into document topics scored
by total evidence times a diversity multiplier, broader parent entities
inherit a weighted share of their children's scores, and the sorted score
curve is cut at its knee so only the strong head survives. Topics are
entity ids until then; a classifier names only the topics it keeps
(``TopicResult``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError
from .edges import Related
from .kb import Iri

TopicOrigin = Literal["direct", "parent"]


@dataclass(frozen=True)
class SelectionParams:
    lambda_diversity: float = 0.2
    kneedle_sensitivity: float = 1.0
    min_topics: int = 3
    include_parents: bool = True

    def __post_init__(self) -> None:
        if not math.isfinite(self.lambda_diversity) or self.lambda_diversity < 0:
            raise ConfigError(
                f"lambda_diversity must be a nonnegative real, got {self.lambda_diversity}"
            )
        if not math.isfinite(self.kneedle_sensitivity) or self.kneedle_sensitivity <= 0:
            raise ConfigError(
                f"kneedle_sensitivity must be positive, got {self.kneedle_sensitivity}"
            )
        if self.min_topics < 0:
            raise ConfigError(f"min_topics must be nonnegative, got {self.min_topics}")


class Topic(NamedTuple):
    """A document topic by entity id, before it is named."""

    entity: int
    final_score: float
    supporting_lemmas: frozenset[str]
    origin: TopicOrigin


@dataclass(frozen=True)
class TopicResult:
    entity: Iri
    label: str
    final_score: float
    supporting_lemmas: frozenset[str]
    origin: TopicOrigin

    def __post_init__(self) -> None:
        if self.origin == "direct" and not self.supporting_lemmas:
            raise ValueError("direct topics need at least one supporting lemma")


def aggregate(mention: np.ndarray, entity: np.ndarray, effective: np.ndarray,
              lemmas: Sequence[str], params: SelectionParams) -> list[Topic]:
    """Fold per-mention winners into direct topics.

    Row r holds candidate ``entity[r]`` of mention ``mention[r]`` with its
    boosted score ``effective[r]``; mention i has lemma ``lemmas[i]``. Each
    mention contributes its single best candidate by boosted score, ties by
    record position. A topic's final score is the sum of those
    contributions, added in mention order, scaled by
    1 + lambda * (distinct supporting lemmas - 1), so repeat evidence under
    different surface lemmas counts extra. Ties break by record position.
    """
    if mention.size and int(mention.max()) >= len(lemmas):
        raise ValueError("one lemma per mention required")
    order = np.lexsort((entity, -effective, mention))
    first = np.ones(order.shape[0], dtype=bool)
    first[1:] = mention[order[1:]] != mention[order[:-1]]
    winners = order[first]
    totals: dict[int, float] = {}
    lemma_sets: dict[int, set[str]] = {}
    for m, e, value in zip(mention[winners].tolist(), entity[winners].tolist(),
                           effective[winners].tolist()):
        totals[e] = totals.get(e, 0.0) + value
        lemma_sets.setdefault(e, set()).add(lemmas[m])
    topics = []
    for e, total in totals.items():
        count = len(lemma_sets[e])
        final = total * (1.0 + params.lambda_diversity * (count - 1))
        topics.append(Topic(e, final, frozenset(lemma_sets[e]), "direct"))
    topics.sort(key=lambda t: (-t.final_score, t.entity))
    return topics


def enhance_with_parents(topics: Sequence[Topic], parents: Related,
                         params: SelectionParams) -> list[Topic]:
    """Credit broader parent entities with a weighted share of child scores.

    Entity e's parents are row e of ``parents``, with their weights.
    Contributions are computed from the incoming direct scores in one pass;
    parents of parents are not chased. A parent that is itself a direct topic
    absorbs the contribution into its direct score, anything else enters as a
    new topic of parent origin carrying its children's lemmas. Ties break by
    entity id, which in an index orders as the IRIs do.
    """
    if not params.include_parents:
        return list(topics)
    contributions: dict[int, float] = {}
    inherited: dict[int, set[str]] = {}
    for topic in topics:
        lo, hi = parents.indptr[topic.entity:topic.entity + 2].tolist()
        for parent, weight in zip(parents.ids[lo:hi].tolist(), parents.distances[lo:hi].tolist()):
            contributions[parent] = contributions.get(parent, 0.0) + weight * topic.final_score
            inherited.setdefault(parent, set()).update(topic.supporting_lemmas)
    combined: list[Topic] = []
    for topic in topics:
        extra = contributions.pop(topic.entity, 0.0)
        if extra:
            topic = topic._replace(final_score=topic.final_score + extra)
        combined.append(topic)
    for parent, score in contributions.items():
        combined.append(Topic(parent, score, frozenset(inherited[parent]), "parent"))
    combined.sort(key=lambda t: (-t.final_score, t.entity))
    return combined


def kneedle_cutoff(scores: Sequence[float], params: SelectionParams) -> int:
    """Number of leading scores to keep, cut at the curve's knee.

    The descending curve is normalized to the unit square and compared with
    the falling diagonal; the knee is the largest gap above it. A knee only
    counts when that gap clears sensitivity/(n-1), otherwise the list is cut
    at the min_topics floor. The result never exceeds the list length and is
    never zero for a non-empty list.
    """
    n = len(scores)
    if n == 0:
        return 0
    if n < 2:
        return n
    for prev, cur in zip(scores, scores[1:]):
        if cur > prev:
            raise ValueError("scores must be sorted descending")
    floor = max(min(params.min_topics, n), 1)
    span = scores[0] - scores[-1]
    if span <= 0:
        return floor
    y = (np.asarray(scores, dtype=np.float64) - scores[-1]) / span
    x = np.linspace(0.0, 1.0, n)
    diff = y - (1.0 - x)
    knee = int(np.argmax(diff))
    if diff[knee] < params.kneedle_sensitivity / (n - 1):
        return floor
    return max(knee + 1, floor)
