"""End-to-end orchestration: offline index building, online classification.

Building runs load, cross-ref normalization, pruning, edge weighting,
neighborhood expansion, parent derivation, and vector encoding into one index
directory. Classification opens that directory read-only and turns documents
into ranked topic lists; a classifier instance is safe to share across
threads because every stage is pure and the block cache only ever fills.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .coherence import apply_boosts, build_similarity, greedy_prune
from .config import AppConfig
from .edges import build_adjacency, compute_edge_weights, link_counts
from .errors import ConfigError, KbTopicsError, PipelineError
from .expansion import Neighborhood, expand_all
from .index import (
    CandidateBlock,
    CandidateIndex,
    Encoders,
    IndexManifest,
    build_index,
    compute_parents,
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
from .ranking import MentionVectors, rank_candidates
from .selection import TopicResult, aggregate, enhance_with_parents, kneedle_cutoff
from .vectors import EmbeddingTable, lexical_vector, semantic_vector

logger = logging.getLogger(__name__)


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
    """Run every offline stage and write the index directory."""
    if not config.kb.paths:
        raise ConfigError("kb.paths is empty; nothing to index")
    if config.embedding_file is None:
        raise ConfigError("encoder.embedding_file is required to build an index")

    timings: list[StageTiming] = []

    def staged(name: str, started: float, detail: str) -> None:
        timings.append(StageTiming(name, time.perf_counter() - started, detail))

    stage = "load"
    try:
        t = time.perf_counter()
        stats = LoadStats()
        triples = []
        for path in config.kb.paths:
            triples.extend(iter_triple_file(path, strict=not config.kb.lenient, stats=stats))
        kb = KnowledgeBase.from_triples(triples, config.registry)
        staged("load", t, f"{len(kb.triples)} triples, {len(kb.entities)} entities, "
                          f"{stats.skipped_lines} lines skipped, "
                          f"{stats.dropped_non_english} non-English literals dropped")

        stage = "cross-refs"
        t = time.perf_counter()
        kb, xrefs = normalize_cross_refs(kb)
        staged("cross-refs", t, f"{xrefs.converted} converted, {xrefs.unresolved} unresolved")

        stage = "prune"
        t = time.perf_counter()
        kb, removed = prune_triples(kb)
        staged("prune", t, f"{removed} triples removed")

        stage = "edge-weights"
        t = time.perf_counter()
        weighted = list(
            compute_edge_weights(kb, config.edge_weights, memory_budget=config.memory_budget)
        )
        adjacency = build_adjacency(weighted)
        staged("edge-weights", t, f"{len(weighted)} weighted edges")

        stage = "expansion"
        t = time.perf_counter()
        seeds = sorted(e for e in kb.entities if entity_texts(kb, e))
        neighborhoods = expand_all(adjacency, seeds, config.expansion)
        staged("expansion", t, f"{len(seeds)} neighborhoods")

        stage = "parents"
        t = time.perf_counter()
        counts = link_counts(kb)
        parents = {e: compute_parents(kb, e, config.parents, counts) for e in seeds}
        staged("parents", t, f"{sum(len(v) for v in parents.values())} parent links")

        stage = "index"
        t = time.perf_counter()
        table = EmbeddingTable.load(config.embedding_file)
        encoders = Encoders(table=table, ngram_sizes=config.ngram_sizes)
        manifest = build_index(
            kb, neighborhoods, parents, encoders, out_dir, config_hash=config.config_hash()
        )
        staged("index", t, f"{manifest.record_count} records, {manifest.text_count} texts")
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
        self._k = config.retrieval.k
        self._label_field = config.retrieval.label_field
        self._ngram_sizes = config.ngram_sizes
        self._rule_detector = RuleBasedDetector()
        self._blocks: dict[Iri, CandidateBlock] = {}

    def _block(self, uri: Iri) -> CandidateBlock:
        block = self._blocks.get(uri)
        if block is None:
            block = self._index.candidate_block(uri)
            self._blocks[uri] = block
        return block

    def _label(self, uri: Iri) -> str:
        record = self._index.record(uri)
        if record is not None:
            for field_name, text, _ in record.texts:
                if field_name == self._label_field:
                    return text
        return uri.local_name

    def _parents(self, uri: Iri) -> Sequence[tuple[Iri, float]]:
        record = self._index.record(uri)
        if record is None:
            return ()
        return tuple(zip(record.parent_entities, record.parent_weights))

    def _mention_vectors(self, mention: Mention) -> MentionVectors:
        return MentionVectors(
            lex=lexical_vector(mention.lemma, self._ngram_sizes),
            sem=semantic_vector(mention.lemma, self._table),
            ctx=semantic_vector(mention.sentence, self._table),
        )

    def detect(self, doc: Document) -> list[Mention]:
        detector = (
            ProvidedMentionDetector() if doc.provided_mentions else self._rule_detector
        )
        return merge_keywords(detector.detect(doc), doc)

    def classify_document(self, doc: Document, use_coherence: bool = True) -> list[TopicResult]:
        mentions = self.detect(doc)
        if not mentions:
            return []

        ranked_lists = []
        for i, mention in enumerate(mentions):
            hits = self._index.query(mention.lemma, self._k)
            blocks = [self._block(hit.record.uri) for hit in hits]
            vectors = self._mention_vectors(mention)
            ranked = rank_candidates(vectors, blocks, self._ranking, i)
            ranked_lists.append(ranked[: self._coherence.top_m_per_mention])

        if use_coherence and self._coherence.enabled:
            membership = [[c.entity for c in ranked] for ranked in ranked_lists]
            candidates = {e for group in membership for e in group}
            neighborhoods: dict[Iri, Neighborhood] = {}
            for uri in candidates:
                hood = self._index.neighborhood(uri)
                if hood is not None:
                    neighborhoods[uri] = hood
            graph = build_similarity(candidates, neighborhoods)
            boosts = greedy_prune(graph, membership, self._coherence)
            ranked_lists = apply_boosts(ranked_lists, boosts)

        topics = aggregate(
            ranked_lists, [m.lemma for m in mentions], self._selection, self._label
        )
        topics = enhance_with_parents(topics, self._parents, self._selection, self._label)
        keep = kneedle_cutoff([t.final_score for t in topics], self._selection)
        return topics[:keep]

    def classify_batch(
        self,
        docs: Iterable[Document],
        jobs: int = 1,
        use_coherence: bool = True,
    ) -> list[list[TopicResult]]:
        """Classify documents, preserving input order regardless of jobs.

        With ``jobs`` > 1 this process and forked children, one worker per
        usable CPU at most, claim short runs of documents from a shared
        counter until none are left, so a worker on a busy CPU takes fewer.
        Children share the opened index's mmap; what they add to the block
        cache is lost when they exit.
        """
        docs = list(docs)
        if jobs < 1:
            raise ConfigError(f"jobs must be at least 1, got {jobs}")
        workers = min(jobs, len(docs), _usable_cpus())
        if workers <= 1:
            return [self.classify_document(d, use_coherence) for d in docs]
        step = -(-len(docs) // (workers * 8))
        # Worker k starts on run k; every later run goes to whoever asks first.
        claims = multiprocessing.Value("q", workers * step)

        def classify_runs(first: int) -> list[tuple[int, list[TopicResult]]]:
            done = []
            start = first * step
            while start < len(docs):
                for i in range(start, min(start + step, len(docs))):
                    done.append((i, self.classify_document(docs[i], use_coherence)))
                with claims.get_lock():
                    start = claims.value
                    claims.value = start + step
            return done

        children: list[tuple[int, int]] = []
        try:
            for first in range(1, workers):
                children.append(_fork_call(classify_runs, first))
            pairs = classify_runs(0)
            while children:
                pairs.extend(_collect(*children.pop(0)))
        finally:
            for pid, read_fd in children:
                os.kill(pid, signal.SIGKILL)
                os.close(read_fd)
                os.waitpid(pid, 0)
        found = dict(pairs)
        return [found[i] for i in range(len(docs))]


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_call(fn: Callable[[int], object], arg: int) -> tuple[int, int]:
    """Run ``fn(arg)`` in a forked child. Returns the child's pid and the
    read end of a pipe that carries its pickled result or exception."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, fn(arg))
            except Exception as exc:
                payload = (False, exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(payload, pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _collect(pid: int, read_fd: int):
    """Read a child's result, reap it, and re-raise its exception if any."""
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            ok, value = pickle.load(pipe)
    except Exception as exc:
        raise PipelineError(f"classify worker {pid} sent no readable result") from exc
    finally:
        os.waitpid(pid, 0)
    if not ok:
        raise value
    return value


def open_classifier(index_dir: str | Path, config: AppConfig) -> Classifier:
    """Open an index and bind it to classification parameters."""
    if config.embedding_file is None:
        raise ConfigError("encoder.embedding_file is required for classification")
    index = CandidateIndex.open(index_dir)
    table = EmbeddingTable.load(config.embedding_file)
    return Classifier(index, table, config)
