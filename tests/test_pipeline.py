"""Offline build orchestration and the document classification pipeline."""

import json
import os
from pathlib import Path

import pytest

from kbtopics.config import load_config, parse_config
from kbtopics import pipeline
from kbtopics.errors import ConfigError, KbTopicsError, PipelineError
from kbtopics.index import COLUMNS_FILE, MANIFEST_FILE, STRINGS_FILE, VECTORS_FILE
from kbtopics.mentions import Document
from kbtopics.pipeline import build_index_from_config, open_classifier

DATA = Path(__file__).resolve().parents[1] / "data"

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
    return open_classifier(out, toy_config)


def test_build_runs_stages_in_order(built):
    _, report = built
    assert [t.name for t in report.timings] == STAGES
    assert all(t.seconds >= 0 for t in report.timings)
    assert all(t.detail for t in report.timings)


def test_build_writes_index_files(built, toy_config):
    out, report = built
    for name in (MANIFEST_FILE, STRINGS_FILE, COLUMNS_FILE, VECTORS_FILE):
        assert (out / name).exists()
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


def test_homonym_needs_coherence(classifier):
    doc, _ = load_corpus()[-1]
    with_coherence = direct_set(classifier.classify_document(doc))
    without = direct_set(classifier.classify_document(doc, use_coherence=False))
    assert "seal_pinniped" in with_coherence
    assert "seal_artifact" not in with_coherence
    assert "seal_artifact" in without
    assert "seal_pinniped" not in without


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


def test_forked_workers_match_serial(classifier, monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
    docs = [d for d, _ in load_corpus()]
    assert classifier.classify_batch(docs, jobs=3) == classifier.classify_batch(docs, jobs=1)
    assert_no_children_left()


# With four workers over ten documents, runs are one document long and worker
# k starts on document k: document 0 fails in this process, 3 in a child.
@pytest.mark.parametrize("failing_doc", [0, 3], ids=["parent_run", "child_run"])
def test_forked_batch_raises_worker_errors(classifier, monkeypatch, failing_doc):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
    docs = [d for d, _ in load_corpus()]
    real = classifier.classify_document

    def failing(doc, use_coherence=True):
        if doc.id == docs[failing_doc].id:
            raise ConfigError(f"cannot classify {doc.id}")
        return real(doc, use_coherence)

    monkeypatch.setattr(classifier, "classify_document", failing)
    with pytest.raises(ConfigError, match=f"cannot classify {docs[failing_doc].id}"):
        classifier.classify_batch(docs, jobs=4)
    assert_no_children_left()


def test_dead_worker_raises_pipeline_error(classifier, monkeypatch):
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
    docs = [d for d, _ in load_corpus()]
    real = classifier.classify_document
    parent = os.getpid()

    def dying(doc, use_coherence=True):
        if os.getpid() != parent:
            os._exit(3)
        return real(doc, use_coherence)

    monkeypatch.setattr(classifier, "classify_document", dying)
    with pytest.raises(PipelineError, match="no readable result"):
        classifier.classify_batch(docs, jobs=2)
    assert_no_children_left()


def test_batch_rejects_nonpositive_jobs(classifier):
    with pytest.raises(ConfigError, match="jobs"):
        classifier.classify_batch([Document(id="a")], jobs=0)


def test_repeat_classification_is_stable(classifier):
    doc, _ = load_corpus()[1]
    assert classifier.classify_document(doc) == classifier.classify_document(doc)


def test_block_cache_fills_but_stays_transparent(built, toy_config):
    clf = open_classifier(built[0], toy_config)
    doc, _ = load_corpus()[2]
    calls = []
    inner = clf._index.candidate_block

    def counting(uri):
        calls.append(uri)
        return inner(uri)

    clf._index.candidate_block = counting
    first = clf.classify_document(doc)
    after_first = len(calls)
    second = clf.classify_document(doc)
    assert first == second
    assert after_first > 0
    assert len(calls) == after_first  # served from cache on repeat
