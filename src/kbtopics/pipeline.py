"""End-to-end orchestration: offline index building, online classification.

Building runs load, cross-ref normalization, pruning, edge weighting,
neighborhood expansion, parent derivation, and vector encoding into one index
directory. Classification opens that directory read-only and turns documents
into ranked topic lists. Candidates are record positions from retrieval to
the knee cut; only the topics kept are named by IRI and label.

Per document, scoring runs as two batches (``ranking``): the document's
distinct lemmas are looked up in the memo together and its misses scored in
one stage-one pass, then every mention is ranked against its sentence in one
stage-two pass, which computes each distinct (sentence, text) context
cosine once where the rows repeat pairs densely. The memo keeps, per lemma,
the part of scoring that does not depend on the sentence (the candidates'
row addresses and partial scores, as arrays of their own) in a plain dict
of at most one entry per indexed entity, least recently used evicted first.
An instance is safe to share across threads without a lock: every stage is
pure, and each touch of the memo is a single dict operation.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .coherence import apply_boosts, build_similarity, greedy_prune
from .config import AppConfig, dump_config
from .edges import compute_edge_weights, link_counts
from .errors import ConfigError, IndexIntegrityError, KbTopicsError, PipelineError
from .expansion import expand_all
from .index import (
    CandidateIndex,
    Encoders,
    IndexManifest,
    build_index,
    compute_parents,
    replacing_dir,
)
from .kb import (
    Iri,
    KnowledgeBase,
    LoadStats,
    entity_texts,
    iter_triple_file,
    normalize_cross_refs,
    prune_triples,
)
from .mentions import (
    Document,
    Mention,
    ProvidedMentionDetector,
    RuleBasedDetector,
    merge_keywords,
)
from .ranking import CandidateRows, rank_mentions, score_lemmas
from .selection import Topic, TopicResult, aggregate, enhance_with_parents, kneedle_cutoff
from .vectors import EmbeddingTable, lexical_vector, semantic_vector

logger = logging.getLogger(__name__)

CONFIG_COPY = "config.yaml"


@dataclass(frozen=True)
class StageTiming:
    name: str
    seconds: float
    detail: str


@dataclass(frozen=True)
class BuildReport:
    manifest: IndexManifest
    timings: tuple[StageTiming, ...]


def build_index_from_config(config: AppConfig, out_dir: str | Path) -> BuildReport:
    """Run every offline stage and write the index directory, with a copy of
    ``config`` beside the index files (``CONFIG_COPY``).

    The directory is built under a temporary name beside ``out_dir`` and
    renamed into place when complete (see ``replacing_dir``): an index
    already there is replaced whole, and a failed build leaves it as it was.
    """
    if not config.kb.paths:
        raise ConfigError("kb.paths is empty; nothing to index")
    if config.embedding_file is None:
        raise ConfigError("encoder.embedding_file is required to build an index")

    timings: list[StageTiming] = []
    stage = ""

    def staged(detail: str) -> None:
        nonlocal started
        timings.append(StageTiming(stage, time.perf_counter() - started, detail))
        started = time.perf_counter()  # the next stage starts now

    try:
        with replacing_dir(out_dir) as tmp:
            stage, started = "load", time.perf_counter()
            stats = LoadStats()
            kb = KnowledgeBase.intern(
                (triple for path in config.kb.paths
                 for triple in iter_triple_file(path, strict=not config.kb.lenient, stats=stats)),
                config.registry)
            staged(f"{len(kb)} triples, {len(kb.entities)} entities, "
                   f"{stats.skipped_lines} lines skipped, "
                   f"{stats.dropped_non_english} non-English literals dropped")

            stage = "cross-refs"
            kb, xrefs = normalize_cross_refs(kb)
            staged(f"{xrefs.converted} converted, {xrefs.unresolved} unresolved")

            stage = "prune"
            kb, removed = prune_triples(kb)
            staged(f"{removed} triples removed")

            stage = "edge-weights"
            links = link_counts(kb)
            graph = compute_edge_weights(kb, links, config.edge_weights)
            staged(f"{len(graph.weights)} weighted edges")

            stage = "expansion"
            texts = entity_texts(kb)
            neighborhoods = expand_all(graph, texts, config.expansion)
            staged(f"{len(texts)} neighborhoods")

            stage = "parents"
            parents = compute_parents(kb, config.parents, links)
            staged(f"{sum(len(parents.get(e, ())) for e in texts)} parent links")

            stage = "index"
            table = EmbeddingTable.load(config.embedding_file)
            encoders = Encoders(table=table, ngram_sizes=config.ngram_sizes)
            manifest = build_index(
                texts, neighborhoods, parents, encoders, tmp, config_hash=config.config_hash())
            (tmp / CONFIG_COPY).write_text(dump_config(config), encoding="utf-8")
            staged(f"{manifest.record_count} records, {manifest.text_count} texts")
    except KbTopicsError as exc:
        exc.stage = stage
        raise

    return BuildReport(manifest=manifest, timings=tuple(timings))


class Classifier:
    """Turns documents into ranked topic lists against an opened index."""

    def __init__(self, index: CandidateIndex, table: EmbeddingTable, config: AppConfig):
        self._index = index
        self._table = table
        self._ranking = config.ranking
        self._coherence = config.coherence
        self._selection = config.selection
        self._retrieval = config.retrieval
        self._ngram_sizes = config.ngram_sizes
        self._rule_detector = RuleBasedDetector()
        self._provided_detector = ProvidedMentionDetector()
        # lemma -> stage one, least recently used first (a hit is inserted
        # again); see _candidates for why it needs no lock
        self._memo: dict[str, CandidateRows] = {}
        self._memo_cap = max(len(index), 1)

    def close(self) -> None:
        """Close the index this classifier reads."""
        self._index.close()

    def __enter__(self) -> "Classifier":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _named(self, topic: Topic) -> TopicResult:
        uri = Iri(self._index.names[topic.entity])
        label = self._index.label(topic.entity, self._retrieval.label_field)
        return TopicResult(uri, uri.local_name if label is None else label,
                           topic.final_score, topic.supporting_lemmas, topic.origin)

    def detect(self, doc: Document) -> list[Mention]:
        detector = (
            self._provided_detector if doc.provided_mentions else self._rule_detector
        )
        return merge_keywords(detector.detect(doc), doc)

    def _candidates(self, lemmas: Iterable[str]) -> dict[str, CandidateRows]:
        """Stage one of the lemmas: hits from the memo, and the misses as
        one batch (retrieval and the encoders per lemma, then one gather of
        all their candidates' rows and one ``score_lemmas``).

        Each touch of the memo is one dict operation, atomic under the
        interpreter lock, so there is no lock a fork could inherit held. A
        race costs only work: two threads missing one lemma both score it,
        to equal rows, and the memo exceeds its cap by the misses of the
        documents being classified until their threads trim it."""
        memo, found, misses = self._memo, {}, []
        for lemma in lemmas:
            rows = memo.pop(lemma, None)
            if rows is None:
                misses.append(lemma)
            else:
                memo[lemma] = found[lemma] = rows
        if misses:
            index, k = self._index, self._retrieval.k
            hits = [[pos for pos, _ in index.retrieve(lemma, k)] for lemma in misses]
            scored = score_lemmas(
                [lexical_vector(lemma, self._ngram_sizes) for lemma in misses],
                np.array([semantic_vector(lemma, self._table) for lemma in misses]),
                index.candidate_blocks([pos for positions in hits for pos in positions]),
                [len(positions) for positions in hits], index, self._ranking)
            for lemma, rows in zip(misses, scored):
                memo[lemma] = found[lemma] = rows
            while len(memo) > self._memo_cap:
                try:
                    # the least recently used; None (a no-op) if other
                    # threads emptied it since the length was read
                    memo.pop(next(iter(memo), None), None)
                except RuntimeError:  # another thread resized it; look again
                    pass
        return found

    def classify_document(self, doc: Document) -> list[TopicResult]:
        mentions = self.detect(doc)
        if not mentions:
            return []

        candidates = self._candidates(dict.fromkeys(m.lemma for m in mentions))
        sentences: dict[str, int] = {}  # each distinct sentence's position
        sentence_of = [sentences.setdefault(m.sentence, len(sentences)) for m in mentions]
        ranked_lists = rank_mentions(
            [candidates[m.lemma] for m in mentions],
            np.array([semantic_vector(sentence, self._table) for sentence in sentences]),
            sentence_of, self._index, self._ranking, self._coherence.top_m_per_mention)

        if self._coherence.enabled:
            membership = [[c.entity for c in ranked] for ranked in ranked_lists]
            graph = build_similarity(
                [e for group in membership for e in group], self._index.related)
            boosts = greedy_prune(graph, membership, self._coherence)
            ranked_lists = apply_boosts(ranked_lists, boosts)

        topics = aggregate(ranked_lists, [m.lemma for m in mentions], self._selection)
        topics = enhance_with_parents(
            topics, self._index.parents, self._selection, self._index.names.__getitem__)
        keep = kneedle_cutoff([t.final_score for t in topics], self._selection)
        return [self._named(t) for t in topics[:keep]]

    def classify_batch(self, docs: Iterable[Document], jobs: int = 1) -> list[list[TopicResult]]:
        """Classify documents, preserving input order regardless of jobs.

        With ``jobs`` > 1 this process classifies alone until
        ``_FORK_AFTER_S`` has passed. If the documents left look like at
        least that long again, it hands them to a pool of forked workers and
        waits for their results. Workers share the opened index's mmap and
        inherit the memo filled so far; what they add to it is lost when
        they exit.
        """
        docs = list(docs)
        if jobs < 1:
            raise ConfigError(f"jobs must be at least 1, got {jobs}")
        workers = min(jobs, _usable_cpus())
        results = []
        started = time.perf_counter()
        for i, doc in enumerate(docs):
            left = len(docs) - i
            elapsed = time.perf_counter() - started
            # estimated time left, elapsed / i * left, of at least _FORK_AFTER_S
            if workers > 1 and left > 1 and elapsed >= _FORK_AFTER_S \
                    and elapsed * left >= _FORK_AFTER_S * i:
                return results + self._classify_forked(docs[i:], min(workers, left))
            results.append(self.classify_document(doc))
        return results

    def _classify_forked(self, docs: list[Document], workers: int) -> list[list[TopicResult]]:
        """``workers`` forked processes classify short runs of documents,
        each taking the next run when it finishes one, so a worker on a busy
        CPU takes fewer. This process waits for them."""
        step = -(-len(docs) // (workers * 8))
        # The fork hands each worker this classifier and the documents;
        # only run bounds and topic lists cross the pipes.
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                   initializer=_start_worker, initargs=(self, docs))
        try:
            runs = pool.map(_classify_run, (slice(i, i + step) for i in range(0, len(docs), step)))
            return [topics for run in runs for topics in run]
        except BrokenProcessPool as exc:
            raise PipelineError("a classify worker sent no readable result") from exc
        finally:
            pool.shutdown(cancel_futures=True)


# Forking pays only for work well above its cost. A pool of two workers
# forked from a 90 MB process costs about 30 ms on a 2-vCPU VM: 10 ms to
# fork, 10 ms more to a first result, 7 ms to shut down. Each worker is also
# about a quarter slower per document (copy-on-write faults, memo misses
# repeated per worker), and on a host that gives fewer CPUs than it lists
# all of it is lost. A batch estimated at under 2 * _FORK_AFTER_S stays here.
_FORK_AFTER_S = 0.1


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# What a forked worker classifies: set in each worker by _start_worker.
_batch: tuple[Classifier, list[Document]] | None = None


def _start_worker(classifier: Classifier, docs: list[Document]) -> None:
    global _batch
    _batch = classifier, docs


def _classify_run(run: slice) -> list[list[TopicResult]]:
    classifier, docs = _batch
    return [classifier.classify_document(doc) for doc in docs[run]]


def open_classifier(index_dir: str | Path, config: AppConfig) -> Classifier:
    """Open an index and bind it to classification parameters. The config's
    encoders (embedding table and n-gram sizes) must be the ones the index
    was built with; otherwise IndexIntegrityError."""
    if config.embedding_file is None:
        raise ConfigError("encoder.embedding_file is required for classification")
    table = EmbeddingTable.load(config.embedding_file)
    index = CandidateIndex.open(index_dir)
    problem = index.manifest.encoder_mismatch(Encoders(table, config.ngram_sizes))
    if problem:
        index.close()
        raise IndexIntegrityError(f"index {index_dir}: {problem}")
    return Classifier(index, table, config)
