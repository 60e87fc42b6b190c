"""Offline build orchestration and the document classification pipeline."""

import gc
import hashlib
import json
import os
import signal
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kbtopics.config import load_config, parse_config
from kbtopics import pipeline, ranking, vectors
from kbtopics.errors import ConfigError, KbTopicsError, PipelineError
from kbtopics.expansion import Neighborhood
from kbtopics.index import COLUMNS_FILE, MANIFEST_FILE, STRINGS_FILE, Encoders, Related, build_index
from kbtopics.kb import Iri, KnowledgeBase, entity_texts
from kbtopics.mentions import Document
from kbtopics.pipeline import build_index_from_config, open_classifier
from kbtopics.ranking import Ranked, rank_mentions, score_lemmas
from kbtopics.vectors import EmbeddingTable, lexical_vector, semantic_vector

from oracles import record_hoods
from row_table import per_mention

DATA = Path(__file__).resolve().parents[1] / "data"

RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
STAGES = ["load", "cross-refs", "prune", "edge-weights", "expansion", "parents", "index"]


def load_corpus():
    docs = []
    with (DATA / "toy_corpus.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            raw = json.loads(line)
            doc = Document(
                id=raw["id"],
                title=raw["title"],
                abstract=raw["abstract"],
                keywords=tuple(raw["keywords"]),
                provided_mentions=tuple(raw["mentions"]),
            )
            docs.append((doc, frozenset(raw["gold"])))
    return docs


def leaf(uri) -> str:
    return str(uri).rsplit("/", 1)[-1]


def direct_set(topics):
    return {leaf(t.entity) for t in topics if t.origin == "direct"}


@pytest.fixture(scope="module")
def toy_config():
    return load_config(DATA / "reference_config.yaml")


@pytest.fixture(scope="module")
def built(tmp_path_factory, toy_config):
    out = tmp_path_factory.mktemp("index")
    report = build_index_from_config(toy_config, out)
    return out, report


@pytest.fixture(scope="module")
def classifier(built, toy_config):
    out, _ = built
    with open_classifier(out, toy_config) as clf:
        yield clf


@pytest.fixture(scope="module")
def no_coherence(built, toy_config):
    """A classifier whose config turns coherence off."""
    config = replace(toy_config, coherence=replace(toy_config.coherence, enabled=False))
    with open_classifier(built[0], config) as clf:
        yield clf


@pytest.fixture()
def clf(built, toy_config):
    """A classifier of the test's own, with an empty memo."""
    with open_classifier(built[0], toy_config) as clf:
        yield clf


def test_build_runs_stages_in_order(built):
    _, report = built
    assert [t.name for t in report.timings] == STAGES
    assert all(t.seconds >= 0 for t in report.timings)
    assert all(t.detail for t in report.timings)


# The toy index as the reference config builds it: any change to a build
# stage that moves a byte of the index or a stage's counts shows here.
TOY_CONTENT_HASH = "26a3d333aeb3368f70ad794331aaab5019a9be2b5a344d2ce88b30d225d642c0"
TOY_DETAILS = [
    "153 triples, 54 entities, 0 lines skipped, 1 non-English literals dropped",
    "2 converted, 1 unresolved",
    "5 triples removed",
    "151 weighted edges",
    "53 neighborhoods",
    "42 parent links",
    "53 records, 71 texts",
]


TOY_FILE_SHA256 = {
    STRINGS_FILE: "4efe72f58f9d1cf917efb08db1f8338b0c021233ccd605ddf920c45299c3571d",
    COLUMNS_FILE: "0f136eb9457ecd134d45af6b69281b022762e3cab119f06edb2e8daa15991fd3",
}


def test_toy_index_bytes_and_stage_details_are_pinned(built):
    out, report = built
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in TOY_FILE_SHA256} == TOY_FILE_SHA256
    assert report.manifest.content_hash == TOY_CONTENT_HASH
    assert (report.manifest.record_count, report.manifest.text_count) == (53, 71)
    assert [t.detail for t in report.timings] == TOY_DETAILS


def test_build_writes_index_files(built, toy_config):
    out, report = built
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [MANIFEST_FILE, STRINGS_FILE, COLUMNS_FILE, pipeline.CONFIG_COPY])
    assert report.manifest.config_hash == toy_config.config_hash()
    assert report.manifest.record_count > 0


def test_build_requires_kb_paths(tmp_path):
    cfg = parse_config({"encoder": {"embedding_file": str(DATA / "toy_embeddings.txt")}},
                       tmp_path)
    with pytest.raises(ConfigError, match="kb.paths"):
        build_index_from_config(cfg, tmp_path / "out")


def test_build_requires_embedding_file(tmp_path):
    cfg = parse_config({"kb": {"paths": [str(DATA / "toy_ontology.nt")]}}, tmp_path)
    with pytest.raises(ConfigError, match="embedding_file"):
        build_index_from_config(cfg, tmp_path / "out")


def test_build_failure_carries_stage_tag(tmp_path):
    cfg = parse_config(
        {
            "kb": {"paths": [str(tmp_path / "missing.nt")]},
            "encoder": {"embedding_file": str(DATA / "toy_embeddings.txt")},
        },
        tmp_path,
    )
    with pytest.raises(KbTopicsError) as err:
        build_index_from_config(cfg, tmp_path / "out")
    assert err.value.stage == "load"


def test_build_content_hash_deterministic(tmp_path, toy_config, built):
    _, first = built
    again = build_index_from_config(toy_config, tmp_path / "again")
    assert again.manifest.content_hash == first.manifest.content_hash


def test_build_writes_config_copy(built, toy_config):
    out, _ = built
    copy = load_config(out / pipeline.CONFIG_COPY)
    assert copy.config_hash() == toy_config.config_hash()


def test_build_refuses_to_replace_a_directory_without_index(tmp_path, toy_config):
    out = tmp_path / "notes"
    out.mkdir()
    (out / "keep.txt").write_text("mine")
    with pytest.raises(ConfigError, match="holds no index"):
        build_index_from_config(toy_config, out)
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    assert [p.name for p in tmp_path.iterdir()] == ["notes"]


def test_build_replaces_the_index_behind_a_symlink(tmp_path, toy_config, built):
    real = tmp_path / "real"
    build_index_from_config(toy_config, real)
    (real / "stale.bin").write_bytes(b"old")
    link = tmp_path / "link"
    link.symlink_to(real, target_is_directory=True)
    build_index_from_config(toy_config, link)
    assert link.is_symlink() and link.resolve() == real.resolve()
    assert sorted(p.name for p in real.iterdir()) == sorted(p.name for p in built[0].iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]


def test_build_refuses_to_replace_a_mount_point(tmp_path, toy_config, monkeypatch):
    out = tmp_path / "volume"
    out.mkdir()
    monkeypatch.setattr(os.path, "ismount", lambda path: Path(path) == out.resolve())
    with pytest.raises(ConfigError, match="mount point"):
        build_index_from_config(toy_config, out)
    assert [p.name for p in tmp_path.iterdir()] == ["volume"]


def test_open_classifier_requires_embedding(built, tmp_path):
    out, _ = built
    cfg = parse_config({}, tmp_path)
    with pytest.raises(ConfigError, match="embedding_file"):
        open_classifier(out, cfg)


def test_classify_first_toy_doc(classifier):
    doc, gold = load_corpus()[0]
    topics = classifier.classify_document(doc)
    assert direct_set(topics) == gold
    scores = [t.final_score for t in topics]
    assert scores == sorted(scores, reverse=True)
    assert all(s > 0 for s in scores)
    assert all(t.origin in ("direct", "parent") for t in topics)
    assert all(t.label for t in topics)


def test_direct_topics_carry_their_mention_lemmas(classifier):
    doc, _ = load_corpus()[0]
    topics = classifier.classify_document(doc)
    lemmas = set().union(*(t.supporting_lemmas for t in topics if t.origin == "direct"))
    assert "polar bear" in lemmas
    assert "sea ice" in lemmas


def test_homonym_needs_coherence(classifier, no_coherence):
    doc, _ = load_corpus()[-1]
    with_coherence = direct_set(classifier.classify_document(doc))
    without = direct_set(no_coherence.classify_document(doc))
    assert "seal_pinniped" in with_coherence
    assert "seal_artifact" not in with_coherence
    assert "seal_artifact" in without
    assert "seal_pinniped" not in without


def test_aggregation_reads_each_score_times_its_boost(classifier, monkeypatch):
    seen = {}
    for name in ("rank_mentions", "greedy_prune", "aggregate"):
        def call(*args, name=name, real=getattr(pipeline, name)):
            seen[name] = args, real(*args)
            return seen[name][1]
        monkeypatch.setattr(pipeline, name, call)
    doc, _ = load_corpus()[-1]
    classifier.classify_document(doc)
    ranked, boost = seen["rank_mentions"][1], seen["greedy_prune"][1]
    mention, entity, effective = seen["aggregate"][0][:3]
    assert np.any(boost > 1.0)
    assert mention is ranked.mention and entity is ranked.entity
    assert effective.tolist() == (ranked.score * boost).tolist()


def test_provided_mention_detector_is_built_once(built, toy_config, monkeypatch):
    # building one reads the abbreviation list from the package resources
    made = []

    class Counted(pipeline.ProvidedMentionDetector):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(pipeline, "ProvidedMentionDetector", Counted)
    out, _ = built
    with open_classifier(out, toy_config) as fresh:
        docs = [doc for doc, _ in load_corpus() if doc.provided_mentions]
        assert len(docs) > 1
        for doc in docs:
            fresh.classify_document(doc)
    assert len(made) == 1


def test_classifier_closes_its_index(built, toy_config):
    # nothing the classifier keeps, its memo included, holds a view of the
    # index's map once it is closed, so the map and its file are released
    out, _ = built
    with open_classifier(out, toy_config) as fresh:
        mapped = weakref.ref(fresh._index._map)
        assert fresh.classify_document(load_corpus()[0][0])
    assert mapped() is None


def test_related_view_outlives_close(built, toy_config):
    out, _ = built
    with open_classifier(out, toy_config) as fresh:
        index = fresh._index
        mapped = weakref.ref(index._map)
        lo, hi = index.related.indptr[:2]
        ids, distances = index.related.ids[lo:hi], index.related.distances[lo:hi]
        want = (ids.tolist(), distances.tolist())
    assert mapped() is not None
    assert (ids.tolist(), distances.tolist()) == want and distances[0] == 0.0
    del ids, distances
    assert mapped() is None


def test_equal_parents_without_records_are_listed_in_iri_order(tmp_path, toy_config):
    """A child credits two parents without a record with equal weight. The
    child's neighborhood names the later IRI, and the earlier one sorts
    before the child; entity ids still follow IRI order, and so does the
    output."""
    child, early, late = (Iri(f"http://example.org/{n}") for n in ("child", "a-up", "z-up"))
    broader = Iri("http://www.w3.org/2004/02/skos/core#broader")
    kb = KnowledgeBase.intern([(child, RDFS_LABEL, ("polar bear", None)),
                               (child, broader, early), (child, broader, late)],
                              toy_config.registry)
    hoods = record_hoods(kb, {child: Neighborhood(child, ((child, 0.0), (late, 1.0)))})
    encoders = Encoders(EmbeddingTable.load(toy_config.embedding_file), toy_config.ngram_sizes)
    # the parents' CSR over kb.entities, [early, child, late], by hand
    parents = Related(np.array([0, 0, 2, 2]), np.array([0, 2]), np.array([0.5, 0.5]))
    build_index(entity_texts(kb), hoods, parents, encoders, tmp_path / "index")
    doc = Document(id="d", title="A polar bear.", provided_mentions=("polar bear",))
    with open_classifier(tmp_path / "index", toy_config) as clf:
        assert clf._index.names == [early, child, late]
        topics = clf.classify_document(doc)
    assert [(t.entity, t.origin) for t in topics] == [
        (child, "direct"), (early, "parent"), (late, "parent")]
    assert topics[1].final_score == topics[2].final_score


def test_empty_document_has_no_topics(classifier):
    assert classifier.classify_document(Document(id="empty")) == []


def test_unmatched_text_has_no_topics(classifier):
    doc = Document(id="x", title="Zzqqjjxx", abstract="Qqzzkk vvjjpp rrwwzz.")
    assert classifier.classify_document(doc) == []


def test_keyword_duplicating_text_mention_adds_nothing(classifier):
    docs = {d.id: d for d, _ in load_corpus()}
    d05 = docs["d05"]
    assert "poultry" in d05.keywords
    mentions = classifier.detect(d05)
    assert [m.lemma for m in mentions].count("poultry") == 1


def test_batch_matches_serial_and_preserves_order(classifier):
    docs = [d for d, _ in load_corpus()]
    serial = classifier.classify_batch(docs, jobs=1)
    threaded = classifier.classify_batch(docs, jobs=4)
    assert serial == threaded
    assert len(serial) == len(docs)


def assert_no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forking(monkeypatch):
    """classify_batch forks at its first document, on eight usable CPUs."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(pipeline, "_FORK_AFTER_S", 0.0)


def test_forked_workers_match_serial(classifier, forking):
    docs = [d for d, _ in load_corpus()]
    assert classifier.classify_batch(docs, jobs=3) == classifier.classify_batch(docs, jobs=1)
    assert_no_children_left()


# With four workers over ten documents, runs are one document long: document
# 0 fails in the first run, 3 in a later one.
@pytest.mark.parametrize("failing_doc", [0, 3], ids=["first_run", "child_run"])
def test_forked_batch_raises_worker_errors(classifier, forking, monkeypatch, failing_doc):
    docs = [d for d, _ in load_corpus()]
    real = classifier.classify_document

    def failing(doc):
        if doc.id == docs[failing_doc].id:
            raise ConfigError(f"cannot classify {doc.id}")
        return real(doc)

    monkeypatch.setattr(classifier, "classify_document", failing)
    with pytest.raises(ConfigError, match=f"cannot classify {docs[failing_doc].id}"):
        classifier.classify_batch(docs, jobs=4)
    assert_no_children_left()


def test_dead_worker_raises_pipeline_error(classifier, forking, monkeypatch):
    docs = [d for d, _ in load_corpus()]
    real = classifier.classify_document
    parent = os.getpid()

    def dying(doc):
        if os.getpid() != parent:
            os._exit(3)
        return real(doc)

    monkeypatch.setattr(classifier, "classify_document", dying)
    with pytest.raises(PipelineError, match="no readable result"):
        classifier.classify_batch(docs, jobs=2)
    assert_no_children_left()


def test_fork_while_another_thread_is_inside_a_memo_miss(clf, forking, monkeypatch):
    """The workers fork while a thread of this process is blocked inside a
    memo miss; no thread of theirs will finish it, and they need none to."""
    docs = [d for d, _ in load_corpus()]
    want = clf.classify_batch(docs, jobs=1)
    entered, release = threading.Event(), threading.Event()
    retrieve = clf._index.retrieve

    def blocking_retrieve(lemmas, k):
        if "blocked lemma" in lemmas:
            entered.set()
            assert release.wait(timeout=30)
        return retrieve(lemmas, k)

    start_worker = pipeline._start_worker

    def start_guarded(*args):
        signal.alarm(10)  # a deadlocked worker dies instead of hanging the test
        start_worker(*args)

    monkeypatch.setattr(clf._index, "retrieve", blocking_retrieve)
    monkeypatch.setattr(pipeline, "_start_worker", start_guarded)
    clf._memo.clear()
    miss = threading.Thread(target=clf._candidates, args=(["blocked lemma"],))
    miss.start()
    try:
        assert entered.wait(timeout=30)
        assert clf.classify_batch(docs, jobs=2) == want
    finally:
        release.set()
        miss.join(timeout=30)
    assert not miss.is_alive()
    assert_no_children_left()


@pytest.mark.parametrize("doc_s, fork_at", [(0.03, 4), (0.015, None)])
def test_batch_forks_only_when_enough_work_is_left(classifier, monkeypatch, doc_s, fork_at):
    """Documents of ``doc_s`` each on a fake clock: with ten of 0.03 s, 0.12 s
    have passed after four and about 0.18 s are left, so the other six are
    forked; ten of 0.015 s stay in this process."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
    now = [0.0]
    monkeypatch.setattr(pipeline, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    docs = [d for d, _ in load_corpus()]
    real = classifier.classify_document

    def timed(doc):
        now[0] += doc_s
        return real(doc)

    forked = []

    def record(docs, workers):
        forked.append((len(docs), workers))
        return [real(d) for d in docs]

    monkeypatch.setattr(classifier, "classify_document", timed)
    monkeypatch.setattr(classifier, "_classify_forked", record)
    assert classifier.classify_batch(docs, jobs=4) == [real(d) for d in docs]
    assert forked == ([] if fork_at is None else [(len(docs) - fork_at, 4)])


def test_batch_rejects_nonpositive_jobs(classifier):
    with pytest.raises(ConfigError, match="jobs"):
        classifier.classify_batch([Document(id="a")], jobs=0)


def test_repeat_classification_is_stable(classifier):
    doc, _ = load_corpus()[1]
    assert classifier.classify_document(doc) == classifier.classify_document(doc)


def test_block_cache_fills_but_stays_transparent(clf):
    doc, _ = load_corpus()[2]
    calls = []
    inner = clf._index.candidate_blocks

    def counting(positions):
        calls.append(list(positions))
        return inner(positions)

    clf._index.candidate_blocks = counting
    first = clf.classify_document(doc)
    after_first = len(calls)
    second = clf.classify_document(doc)
    assert first == second
    assert after_first > 0
    assert len(calls) == after_first  # served from the memo on repeat


def fresh_topics(built, toy_config, docs):
    """Each document's topics from a classifier of its own."""
    topics = []
    for doc in docs:
        with open_classifier(built[0], toy_config) as clf:
            topics.append(clf.classify_document(doc))
    return topics


def test_memo_hit_equals_fresh_classifier(built, toy_config, clf):
    docs = [d for d, _ in load_corpus()]
    got, hits = [], 0
    for doc in docs:
        hits += len({m.lemma for m in clf.detect(doc)} & clf._memo.keys())
        got.append(clf.classify_document(doc))
    assert hits > 0  # later documents reuse lemmas of earlier ones
    assert got == fresh_topics(built, toy_config, docs)


def test_same_lemma_in_two_sentences_keeps_each_context(toy_config, monkeypatch, no_coherence):
    doc = Document(id="two", title="Seals rest on sea ice.",
                   abstract="Wax seal impressions authenticate old letters.",
                   provided_mentions=("Seals", "seal"))
    mentions = no_coherence.detect(doc)
    assert mentions[0].lemma == mentions[1].lemma
    assert mentions[0].sentence != mentions[1].sentence
    captured = []
    real = pipeline.aggregate
    monkeypatch.setattr(pipeline, "aggregate",
                        lambda *a: captured.append(per_mention(Ranked(*a[:3]), 2)) or real(*a))
    no_coherence.classify_document(doc)
    index, table = no_coherence._index, EmbeddingTable.load(toy_config.embedding_file)
    for i, mention in enumerate(mentions):
        # each mention as a batch of one
        hits = index.retrieve([mention.lemma], toy_config.retrieval.k)
        rows = score_lemmas(
            [lexical_vector(mention.lemma, toy_config.ngram_sizes)],
            semantic_vector(mention.lemma, table)[None],
            index.candidate_blocks(hits.positions.tolist()), [len(hits.positions)],
            index.lexical, index.semantic, toy_config.ranking)
        [want] = per_mention(rank_mentions(
            rows, semantic_vector(mention.sentence, table)[None], [0], index.semantic,
            toy_config.ranking, toy_config.coherence.top_m_per_mention), 1)
        # without coherence the scores reach aggregation unboosted
        assert captured[0][i] == want
    assert [c.score for c in captured[0][0]] != [c.score for c in captured[0][1]]


def test_memo_eviction_at_cap_changes_no_output(built, toy_config, clf):
    assert clf._memo_cap == len(clf._index)
    clf._memo_cap = 2
    docs = [d for d, _ in load_corpus()]
    got = [clf.classify_document(d) for d in docs]
    assert len(clf._memo) == 2
    assert len({m.lemma for d in docs for m in clf.detect(d)}) > 2
    assert got == fresh_topics(built, toy_config, docs)


def test_memo_evicts_the_least_recently_used(clf):
    clf._memo_cap = 2
    for lemmas in (["seal", "bear"], ["seal"], ["tuna"]):  # the hit on seal renews it
        assert clf._candidates(lemmas).keys() == set(lemmas)
    assert list(clf._memo) == ["seal", "tuna"]
    # the hit on tuna renews it, then the misses are inserted, and the cap
    # keeps the last two
    assert clf._candidates(["fish", "bear", "tuna"]).keys() == {"fish", "bear", "tuna"}
    assert list(clf._memo) == ["fish", "bear"]


class EmptiedOnEviction(dict):
    """A memo that other threads empty once, between the eviction's length
    check and its look at the oldest lemma."""

    emptied = False

    def __iter__(self):
        if not self.emptied:
            self.emptied = True
            self.clear()
        return super().__iter__()


def test_memo_emptied_by_other_threads_during_eviction(clf):
    clf._memo_cap = 1
    clf._memo = EmptiedOnEviction()
    assert clf._candidates(["seal", "bear"]).keys() == {"seal", "bear"}
    assert clf._memo.emptied and not clf._memo


@pytest.mark.parametrize("slots_per_row", [ranking._PAIR_SLOTS_PER_ROW, 2**40])
def test_stage_two_reads_each_sentence_text_pair_once(clf, monkeypatch, slots_per_row):
    """With every lemma in the memo, the only semantic reads are stage two's.
    Where a document has a row for at most ``_PAIR_SLOTS_PER_ROW`` of its
    (sentence, text) slots, they are one per distinct pair, not one per row,
    through one table of those slots; elsewhere one per row, and no table."""
    monkeypatch.setattr(ranking, "_PAIR_SLOTS_PER_ROW", slots_per_row)
    tables = []
    heads = ranking._pair_heads
    monkeypatch.setattr(ranking, "_pair_heads",
                        lambda keys, size: tables.append((keys.shape[0], size))
                        or heads(keys, size))
    reads = []  # the text ids of every semantic gather
    row_sums = ranking._row_sums
    monkeypatch.setattr(ranking, "_row_sums",
                        lambda semantic, text_ids, queries, query_of:
                        reads.extend(text_ids.tolist())
                        or row_sums(semantic, text_ids, queries, query_of))
    n_texts, dense_rows, dense_pairs = clf._index.text_count, 0, 0
    for doc, _ in load_corpus():
        want = clf.classify_document(doc)  # fills the memo
        sentences, pairs, texts = {}, set(), []
        for m in clf.detect(doc):
            s = sentences.setdefault(m.sentence, len(sentences))
            ids = clf._memo[m.lemma].blocks.text_ids.tolist()
            pairs |= {(s, t) for t in ids}
            texts += ids
        slots = len(sentences) * n_texts
        tables.clear()
        reads.clear()
        assert clf.classify_document(doc) == want
        if texts and len(texts) * slots_per_row >= slots:
            assert sorted(reads) == sorted(t for _, t in pairs)
            assert tables == [(len(texts), slots)]
            dense_rows, dense_pairs = dense_rows + len(texts), dense_pairs + len(pairs)
        else:
            assert sorted(reads) == sorted(texts) and tables == []
    assert dense_pairs < dense_rows


@pytest.mark.parametrize("lexical_lemmas", [1, 2])
def test_chunked_batches_give_the_same_topics(built, toy_config, clf, monkeypatch,
                                              lexical_lemmas):
    """Documents with more distinct lemmas than one lexical chunk holds (one
    or two lemmas), and more rows than one semantic chunk holds."""
    docs = [d for d, _ in load_corpus()]
    assert max(len({m.lemma for m in clf.detect(d)}) for d in docs) > 2
    monkeypatch.setattr(vectors, "BATCH_VALUES", lexical_lemmas * clf._index.text_count)
    assert [clf.classify_document(d) for d in docs] == fresh_topics(built, toy_config, docs)


def test_classifier_shared_across_threads(clf):
    docs = [d for d, _ in load_corpus()] * 4
    want = [clf.classify_document(d) for d in docs]
    # a memo of three lemmas: evictions race with lookups
    clf._memo_cap = 3
    clf._memo.clear()
    largest, done = [0], threading.Event()

    def sample():
        while not done.is_set():
            largest[0] = max(largest[0], len(clf._memo))

    sampler = threading.Thread(target=sample)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sampler.start()
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(clf.classify_document, d) for d in docs]
            got = [f.result(timeout=120) for f in futures]
    finally:
        done.set()
        sys.setswitchinterval(interval)
        sampler.join(timeout=30)
    assert not sampler.is_alive()
    assert got == want
    assert len(clf._memo) <= 3
    # while threads insert, the memo exceeds its cap only by their misses
    most_lemmas = max(len({m.lemma for m in clf.detect(d)}) for d in docs)
    assert 0 < largest[0] <= 3 + 8 * most_lemmas


def test_dropped_classifier_is_freed_without_gc(built, toy_config):
    # nothing the classifier holds, its memo included, refers back to it, so
    # no reference cycle keeps a dropped classifier alive until a collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open_classifier(built[0], toy_config) as fresh:
            assert fresh.classify_document(load_corpus()[0][0])
            dropped = weakref.ref(fresh)
        del fresh
        assert dropped() is None
    finally:
        if enabled:
            gc.enable()
