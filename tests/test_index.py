"""Index build, retrieval scoring, vector cache transparency, parents."""

import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kbtopics.edges import link_counts
from kbtopics.errors import ConfigError, IndexFormatError, IndexIntegrityError
from kbtopics.expansion import Neighborhood
from kbtopics.index import (
    MANIFEST_FILE,
    POSTINGS_FILE,
    CandidateIndex,
    Encoders,
    ParentParams,
    build_index,
    compute_parents,
)
from kbtopics.kb import Iri, KnowledgeBase, Literal, PropertyRegistry, TextField, Triple
from kbtopics.vector_store import KIND_LEXICAL, MAGIC, VectorStore, VectorStoreWriter
from kbtopics.vectors import EmbeddingTable, lexical_vector, semantic_vector

from oracles import parents_by_scan

EX = "http://example.org/"
LABEL = Iri(EX + "label")
SYN = Iri(EX + "synonym")
BROADER = Iri(EX + "broader")
MEMBER = Iri(EX + "memberOf")


def iri(name):
    return Iri(EX + name)


# Names for random KBs: an object quoted with "'" becomes a literal whose
# text is the IRI, so a literal under a parent predicate can look like the
# entity; "leaf" is only ever an object.
SUBJECTS = ["a", "b", "c", "d"]
OBJECTS = SUBJECTS + ["leaf", "'a", "'leaf"]
EDGE_CASES = [
    ("a", BROADER, "b"), ("a", BROADER, "a"), ("c", MEMBER, "a"), ("c", MEMBER, "a"),
    ("d", MEMBER, "'a"), ("a", MEMBER, "a"), ("a", BROADER, "leaf"),
    ("d", MEMBER, "leaf"), ("d", BROADER, "'leaf"),
]


def kb_from_spo(spo, parent_properties):
    """A KB of the named triples, the first three repeated as duplicates."""
    triples = [
        Triple(iri(s), p, Literal(EX + o[1:]) if o.startswith("'") else iri(o))
        for s, p, o in spo
    ]
    return KnowledgeBase.from_triples(triples + triples[:3], PropertyRegistry(
        text_fields=registry().text_fields, parent_properties=tuple(parent_properties)))


def registry():
    return PropertyRegistry(
        text_fields={LABEL: TextField("label", 2.0), SYN: TextField("synonym", 1.0)},
        edge_base_weights={BROADER: 0.5},
        parent_properties=((BROADER, "forward"), (MEMBER, "inverse")),
    )


def toy_kb():
    ts = [
        Triple(iri("bear"), LABEL, Literal("polar bear")),
        Triple(iri("bear"), SYN, Literal("ice bear")),
        Triple(iri("bear"), BROADER, iri("mammal")),
        Triple(iri("seal"), LABEL, Literal("ringed seal")),
        Triple(iri("seal"), BROADER, iri("mammal")),
        Triple(iri("mammal"), LABEL, Literal("marine mammal")),
        Triple(iri("mercury"), LABEL, Literal("mercury")),
        Triple(iri("mercury"), SYN, Literal("quicksilver")),
        # no text fields: not indexable, but a graph node
        Triple(iri("arctic"), BROADER, iri("mammal")),
        Triple(iri("group"), MEMBER, iri("bear")),
    ]
    return KnowledgeBase.from_triples(ts, registry())


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    p = tmp_path_factory.mktemp("emb") / "emb.txt"
    p.write_text(
        "polar 1 0 0 0\nbear 0 1 0 0\nseal 0 0 1 0\nmercury 0 0 0 1\n"
        "marine 0.5 0.5 0 0\nmammal 0 0.5 0.5 0\n",
        encoding="utf-8",
    )
    return EmbeddingTable.load(p)


def neighborhoods_for(kb):
    # hand-built: bear close to seal via mammal; others isolated
    return {
        iri("bear"): Neighborhood(iri("bear"), (
            (iri("bear"), 0.0), (iri("mammal"), 0.5), (iri("seal"), 1.0))),
        iri("seal"): Neighborhood(iri("seal"), (
            (iri("seal"), 0.0), (iri("mammal"), 0.5), (iri("bear"), 1.0))),
        iri("mammal"): Neighborhood(iri("mammal"), ((iri("mammal"), 0.0),)),
        iri("mercury"): Neighborhood(iri("mercury"), (
            (iri("mercury"), 0.0), (iri("arctic"), 2.0))),
    }


@pytest.fixture()
def built(tmp_path, table):
    kb = toy_kb()
    counts = link_counts(kb)
    parents = {
        e: compute_parents(kb, e, ParentParams(), counts)
        for e in kb.entities
    }
    manifest = build_index(kb, neighborhoods_for(kb), parents,
                           Encoders(table), tmp_path / "index", config_hash="abc")
    return kb, manifest, tmp_path / "index"


class TestComputeParents:
    def test_forward_and_inverse(self):
        kb = toy_kb()
        counts = link_counts(kb)
        parents = compute_parents(kb, iri("bear"), ParentParams(), counts)
        assert [p for p, _ in parents] == [iri("group"), iri("mammal")]

    def test_weights_from_link_counts(self):
        kb = toy_kb()
        counts = link_counts(kb)
        parents = dict(compute_parents(kb, iri("bear"), ParentParams(), counts))
        # l(group)=1 -> weight exactly 1; l(mammal)=4 -> 4^-0.3
        assert parents[iri("group")] == 1.0
        assert parents[iri("mammal")] == pytest.approx(4.0 ** -0.3)

    def test_large_link_count_weight(self):
        kb = KnowledgeBase.from_triples(
            [Triple(iri("x"), BROADER, iri("root"))], registry())
        parents = compute_parents(kb, iri("x"), ParentParams(alpha=0.3),
                                  {iri("root"): 1000})
        assert parents[0][1] == pytest.approx(0.12589254117941673, abs=1e-12)

    def test_no_parent_edges(self):
        kb = toy_kb()
        assert compute_parents(kb, iri("mammal"), ParentParams(), link_counts(kb)) == []

    def test_self_loops_duplicates_literals_and_object_only_entities(self):
        kb = kb_from_spo(EDGE_CASES, [(BROADER, "forward"), (MEMBER, "inverse")])
        counts = link_counts(kb)
        parents = {e: [q for q, _ in compute_parents(kb, e, ParentParams(), counts)]
                   for e in kb.entities}
        assert parents[iri("a")] == [iri("b"), iri("c"), iri("leaf")]
        assert parents[iri("leaf")] == [iri("d")]
        assert parents[iri("d")] == []

    @given(
        st.lists(st.tuples(
            st.sampled_from(SUBJECTS),
            st.sampled_from([BROADER, MEMBER, LABEL, iri("related")]),
            st.sampled_from(OBJECTS),
        ), max_size=30),
        st.lists(st.sampled_from(
            [(BROADER, "forward"), (MEMBER, "inverse"), (BROADER, "inverse"),
             (MEMBER, "forward"), (LABEL, "inverse")]), unique=True, max_size=4),
        st.sampled_from([0.1, 0.3, 0.9]),
    )
    @example(spo=EDGE_CASES, parent_properties=[(BROADER, "forward"), (MEMBER, "inverse")],
             alpha=0.3)
    def test_matches_scan_oracle(self, spo, parent_properties, alpha):
        kb = kb_from_spo(spo, parent_properties)
        counts = link_counts(kb)
        params = ParentParams(alpha=alpha)
        for e in sorted(kb.entities | {iri("ghost")}):
            assert compute_parents(kb, e, params, counts) == \
                parents_by_scan(kb, e, params, counts)

    def test_alpha_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigError):
                ParentParams(alpha=bad)


class TestBuildIndex:
    def test_record_count_is_entities_with_texts(self, built):
        kb, manifest, path = built
        expected = sorted(
            e for e in kb.entities
            if any(t.predicate in kb.registry.text_fields and not t.has_iri_object
                   for t in kb.subject_triples(e)))
        assert manifest.record_count == len(expected) == 4
        with CandidateIndex.open(path) as idx:
            assert [r.uri for r in idx.records] == expected

    def test_records_carry_neighborhoods_and_parents(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            bear = idx.record(iri("bear"))
            assert bear.related_entities[0] == iri("bear")
            assert bear.related_weights[0] == 0.0
            assert iri("mammal") in bear.parent_entities

    def test_entity_without_neighborhood_gets_self_only(self, tmp_path, table):
        kb = KnowledgeBase.from_triples(
            [Triple(iri("solo"), LABEL, Literal("solo entity"))], registry())
        build_index(kb, {}, {}, Encoders(table), tmp_path / "i")
        with CandidateIndex.open(tmp_path / "i") as idx:
            rec = idx.record(iri("solo"))
            assert rec.related_entities == (iri("solo"),)
            assert rec.related_weights == (0.0,)

    def test_empty_kb_builds_empty_index(self, tmp_path, table):
        kb = KnowledgeBase.from_triples([], registry())
        manifest = build_index(kb, {}, {}, Encoders(table), tmp_path / "i")
        assert manifest.record_count == 0
        with CandidateIndex.open(tmp_path / "i") as idx:
            assert len(idx) == 0
            assert idx.query("anything") == []

    def test_rebuild_has_identical_content_hash(self, built, tmp_path, table):
        kb, manifest, _ = built
        counts = link_counts(kb)
        parents = {e: compute_parents(kb, e, ParentParams(), counts)
                   for e in kb.entities}
        again = build_index(kb, neighborhoods_for(kb), parents,
                            Encoders(table), tmp_path / "again", config_hash="abc")
        assert again.content_hash == manifest.content_hash
        assert again.record_count == manifest.record_count


class TestOpenValidation:
    def test_missing_dir(self, tmp_path):
        with pytest.raises(IndexFormatError):
            CandidateIndex.open(tmp_path / "nope")

    def test_version_mismatch_refused(self, built):
        _, _, path = built
        m = json.loads((path / MANIFEST_FILE).read_text())
        m["format_version"] = 99
        (path / MANIFEST_FILE).write_text(json.dumps(m))
        with pytest.raises(IndexFormatError, match="format"):
            CandidateIndex.open(path)

    def test_corrupt_postings(self, built):
        _, _, path = built
        (path / POSTINGS_FILE).write_text("not json\n")
        with pytest.raises(IndexFormatError):
            CandidateIndex.open(path)

    def test_record_count_mismatch(self, built):
        _, _, path = built
        m = json.loads((path / MANIFEST_FILE).read_text())
        m["record_count"] += 1
        (path / MANIFEST_FILE).write_text(json.dumps(m))
        with pytest.raises(IndexIntegrityError):
            CandidateIndex.open(path)


class TestQuery:
    def test_exact_unique_label_ranks_first(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            hits = idx.query("ringed seal", k=5)
            assert hits and hits[0].record.uri == iri("seal")
            assert hits[0].retrieval_score > 0

    def test_no_overlap_returns_empty(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            # shares no token and no character 3-gram with any indexed text
            assert idx.query("zzqqjjxx") == []

    def test_empty_mention_returns_empty(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            assert idx.query("...") == []

    def test_k_caps_results(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            assert len(idx.query("marine mammal bear seal", k=2)) == 2

    def test_invalid_k(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            with pytest.raises(ConfigError):
                idx.query("bear", k=0)

    def test_identical_labels_tie_by_iri(self, tmp_path, table):
        ts = [
            Triple(iri("b-ent"), LABEL, Literal("same label")),
            Triple(iri("a-ent"), LABEL, Literal("same label")),
        ]
        kb = KnowledgeBase.from_triples(ts, registry())
        build_index(kb, {}, {}, Encoders(table), tmp_path / "i")
        with CandidateIndex.open(tmp_path / "i") as idx:
            hits = idx.query("same label", k=5)
            assert [h.record.uri for h in hits] == [iri("a-ent"), iri("b-ent")]
            assert hits[0].retrieval_score == hits[1].retrieval_score

    def test_gram_fallback_when_no_token_matches(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            # "mercuric" shares no token with any text but shares 3-grams
            # with "mercury"
            hits = idx.query("mercuric")
            assert hits and hits[0].record.uri == iri("mercury")

    def test_token_match_suppresses_gram_fallback(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            hits = idx.query("polar")
            assert [h.record.uri for h in hits] == [iri("bear")]

    def test_recall_floor(self, built):
        kb, _, path = built
        with CandidateIndex.open(path) as idx:
            hits = idx.query("marine mammal", k=len(idx))
            # every record whose text contains both tokens must be present
            assert iri("mammal") in {h.record.uri for h in hits}

    def test_field_weight_prefers_label_over_synonym(self, tmp_path, table):
        ts = [
            Triple(iri("by-label"), LABEL, Literal("quicksilver")),
            Triple(iri("by-syn"), SYN, Literal("quicksilver")),
        ]
        kb = KnowledgeBase.from_triples(ts, registry())
        build_index(kb, {}, {}, Encoders(table), tmp_path / "i")
        with CandidateIndex.open(tmp_path / "i") as idx:
            hits = idx.query("quicksilver")
            assert [h.record.uri for h in hits] == [iri("by-label"), iri("by-syn")]
            assert hits[0].retrieval_score == pytest.approx(
                2.0 * hits[1].retrieval_score / 1.0)

    def test_determinism(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            a = idx.query("marine mammal bear")
            b = idx.query("marine mammal bear")
            assert a == b


class TestVectors:
    def test_cache_transparency(self, built, table):
        kb, _, path = built
        with CandidateIndex.open(path) as idx:
            for rec in idx.records:
                lex, sem = idx.load_vectors(rec.vector_handles)
                for (_, text, _), lv, sv in zip(rec.texts, lex, sem):
                    assert lv == lexical_vector(text)  # bitwise
                    np.testing.assert_allclose(
                        sv, semantic_vector(text, table), atol=1e-7)

    def test_order_preserving_batch(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            handles = [h for r in idx.records for h in r.vector_handles]
            lex, sem = idx.load_vectors(handles)
            assert len(lex) == len(sem) == len(handles)
            lex_again, sem_again = idx.load_vectors(handles[::-1])
            assert list(lex_again) == list(lex)[::-1]
            np.testing.assert_array_equal(sem_again, sem[::-1])

    def test_stale_handle_rejected(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            with pytest.raises(IndexIntegrityError):
                idx.load_vectors([(10**9, 10**9)])
            # an offset pointing at a semantic block read as lexical
            rec = idx.record(iri("bear"))
            lex_off, sem_off = rec.vector_handles[0]
            with pytest.raises(IndexIntegrityError):
                idx.load_vectors([(sem_off, lex_off)])


class TestVectorStoreFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "v.bin"
        with VectorStoreWriter(path) as w:
            lex_off = w.put_lexical({5: 0.25, 2**64 - 1: 0.5, 2: 0.75})
            sem_off = w.put_semantic(np.array([1.0, -2.0, 3.5]))
        with VectorStore(path) as store:
            keys, vals = store.read_lexical(lex_off)
            assert keys.dtype == np.uint64
            assert keys.tolist() == [2, 5, 2**64 - 1]
            assert dict(zip(keys.tolist(), vals.tolist())) == {2: 0.75, 5: 0.25, 2**64 - 1: 0.5}
            np.testing.assert_array_equal(
                store.read_semantic(sem_off), [1.0, -2.0, 3.5])

    def test_lexical_block_bytes(self, tmp_path):
        # the on-disk layout: kind, count, then (u64 key, f64 value) pairs
        # sorted by key, all little-endian and unpadded
        path = tmp_path / "v.bin"
        with VectorStoreWriter(path) as w:
            w.put_lexical({5: 0.25, 2**64 - 1: 0.5, 2: 0.75})
            w.put_lexical({})
        assert path.read_bytes() == MAGIC + b"".join([
            struct.pack("<BI", KIND_LEXICAL, 3),
            struct.pack("<Qd", 2, 0.75),
            struct.pack("<Qd", 5, 0.25),
            struct.pack("<Qd", 2**64 - 1, 0.5),
            struct.pack("<BI", KIND_LEXICAL, 0),
        ])

    def test_truncated_lexical_block(self, tmp_path):
        path = tmp_path / "v.bin"
        with VectorStoreWriter(path) as w:
            lex_off = w.put_lexical({1: 0.6, 2: 0.8})
        # the block's element count now runs past the end of the file
        path.write_bytes(path.read_bytes()[:-8])
        with VectorStore(path) as store:
            with pytest.raises(IndexIntegrityError):
                store.read_lexical(lex_off)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "v.bin"
        p.write_bytes(b"NOTSTORE" + b"\x00" * 16)
        with pytest.raises(IndexFormatError):
            VectorStore(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "v.bin"
        p.write_bytes(b"")
        with pytest.raises(IndexFormatError):
            VectorStore(p)


class TestCandidateBlock:
    def test_rows_cover_neighborhood_texts(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            block = idx.candidate_block(iri("bear"))
            # bear has 2 texts at distance 0, mammal 1 at 0.5, seal 1 at 1.0
            assert len(block) == 4
            assert list(block.distances) == [0.0, 0.0, 0.5, 1.0]
            assert list(block.field_weights) == [2.0, 1.0, 2.0, 2.0]

    def test_unindexed_related_entities_skipped(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            block = idx.candidate_block(iri("mercury"))
            # the "arctic" neighbor has no texts, contributes no rows
            assert len(block) == 2
            assert list(block.distances) == [0.0, 0.0]

    def test_unknown_uri(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            with pytest.raises(IndexIntegrityError):
                idx.candidate_block(iri("ghost"))
