"""Index build, retrieval scoring, vector cache transparency, parents."""

import hashlib
import json
import math
import random
import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kbtopics.coherence import build_similarity
from kbtopics.edges import Related, compute_edge_weights, link_counts
from kbtopics.errors import ConfigError, IndexFormatError, IndexIntegrityError
from kbtopics.expansion import ExpansionParams, Neighborhood, expand_all
from kbtopics.index import (
    COLUMNS,
    COLUMNS_FILE,
    FORMAT_VERSION,
    MANIFEST_FILE,
    STRINGS_FILE,
    CandidateIndex,
    Encoders,
    IndexManifest,
    ParentParams,
    build_index,
    compute_parents,
    read_columns,
    write_columns,
)
from kbtopics.kb import (
    Iri, KnowledgeBase, Literal, PropertyRegistry, TextField, Triple, entity_texts,
)
from kbtopics.vectors import EmbeddingTable, lexical_vector, semantic_vector, tokenize

from oracles import (
    TripleKB, block_by_loop, lexical_cosines_by_rows, link_counts_by_scan, neighborhoods_of,
    parents_by_iri, parents_by_scan, query_by_loop, record_hoods, record_iris,
    record_neighborhood, record_parents, record_text_ids, record_texts,
    text_lengths_by_tokenizing, triples_of,
)
from row_table import columns_of, lexical_rows, rows_of, stack

EX = "http://example.org/"
LABEL = Iri(EX + "label")
SYN = Iri(EX + "synonym")
BROADER = Iri(EX + "broader")
MEMBER = Iri(EX + "memberOf")


def iri(name):
    return Iri(EX + name)


def hits(idx, text, k=30):
    """The index's retrieval hits of one query as (uri, score) pairs."""
    return split_hits(idx, idx.retrieve([text], k))[0]


def split_hits(idx, got):
    """A batch's retrieval hits as one list of (uri, score) pairs per query."""
    pairs = list(zip((idx.names[p] for p in got.positions.tolist()), got.scores.tolist()))
    ends = np.cumsum(got.counts).tolist()
    return [pairs[end - n:end] for n, end in zip(got.counts.tolist(), ends)]


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


def triples_from_spo(spo):
    """The named triples, the first three repeated as duplicates."""
    triples = [
        Triple(iri(s), p, Literal(EX + o[1:]) if o.startswith("'") else iri(o))
        for s, p, o in spo
    ]
    return triples + triples[:3]


def parents_registry(parent_properties):
    return PropertyRegistry(
        text_fields=registry().text_fields, parent_properties=tuple(parent_properties))


def kb_from_spo(spo, parent_properties):
    return KnowledgeBase.intern(triples_from_spo(spo), parents_registry(parent_properties))


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
    return KnowledgeBase.intern(ts, registry())


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    p = tmp_path_factory.mktemp("emb") / "emb.txt"
    p.write_text(
        "polar 1 0 0 0\nbear 0 1 0 0\nseal 0 0 1 0\nmercury 0 0 0 1\n"
        "marine 0.5 0.5 0 0\nmammal 0 0.5 0.5 0\n",
        encoding="utf-8",
    )
    return EmbeddingTable.load(p)


def no_parents(kb):
    """compute_parents' CSR with no parent in it."""
    return Related(np.zeros(len(kb.entities) + 1, dtype=np.int64), np.zeros(0, dtype=np.int64),
                   np.zeros(0))


def build_alone(kb, table, out):
    """Index the KB's records, each its own neighborhood, without parents."""
    return build_index(entity_texts(kb), record_hoods(kb), no_parents(kb), Encoders(table), out)


def neighborhoods_for(kb):
    # hand-built: bear close to seal via mammal; others isolated
    return record_hoods(kb, {
        iri("bear"): Neighborhood(iri("bear"), (
            (iri("bear"), 0.0), (iri("mammal"), 0.5), (iri("seal"), 1.0))),
        iri("seal"): Neighborhood(iri("seal"), (
            (iri("seal"), 0.0), (iri("mammal"), 0.5), (iri("bear"), 1.0))),
        iri("mammal"): Neighborhood(iri("mammal"), ((iri("mammal"), 0.0),)),
        iri("mercury"): Neighborhood(iri("mercury"), (
            (iri("mercury"), 0.0), (iri("arctic"), 2.0))),
    })


@pytest.fixture()
def built(tmp_path, table):
    kb = toy_kb()
    parents = compute_parents(kb, ParentParams(), link_counts(kb))
    manifest = build_index(entity_texts(kb), neighborhoods_for(kb), parents,
                           Encoders(table), tmp_path / "index", config_hash="abc")
    return kb, manifest, tmp_path / "index"


def edit_columns(path, edit):
    """Rewrite the index's column file after ``edit`` changed its sections
    (writable copies) in place or by replacing them."""
    columns = {name: array.copy()
               for name, array in read_columns((path / COLUMNS_FILE).read_bytes()).items()}
    edit(columns)
    write_columns(path / COLUMNS_FILE, columns)


def empty_postings(columns, term):
    """Delete every posting of a term id (token ids come first), in place."""
    ptr = columns["posting_indptr"]
    lo, hi = ptr[term], ptr[term + 1]
    for name in ("posting_texts", "posting_tfs"):
        columns[name] = np.delete(columns[name], np.s_[lo:hi])
    ptr[term + 1:] -= hi - lo


def rehash(path):
    """Store the data files' current content hash in the manifest."""
    digest = hashlib.sha256()
    for name in (STRINGS_FILE, COLUMNS_FILE):
        digest.update((path / name).read_bytes())
    m = json.loads((path / MANIFEST_FILE).read_text())
    m["content_hash"] = digest.hexdigest()
    (path / MANIFEST_FILE).write_text(json.dumps(m))


def swap_entities(path, a, b):
    """Swap two IRIs in the index's string table, and re-hash."""
    strings = json.loads((path / STRINGS_FILE).read_text())
    names = strings["entities"]
    i, j = names.index(a), names.index(b)
    names[i], names[j] = names[j], names[i]
    (path / STRINGS_FILE).write_text(json.dumps(strings))
    rehash(path)


def parents_of(kb, entity, params=ParentParams()):
    return parents_by_iri(kb, compute_parents(kb, params, link_counts(kb))).get(entity, [])


class TestComputeParents:
    def test_forward_and_inverse(self):
        parents = parents_of(toy_kb(), iri("bear"))
        assert [p for p, _ in parents] == [iri("group"), iri("mammal")]

    def test_weights_from_link_counts(self):
        parents = dict(parents_of(toy_kb(), iri("bear")))
        # l(group)=1 -> weight exactly 1; l(mammal)=4 -> 4^-0.3
        assert parents[iri("group")] == 1.0
        assert parents[iri("mammal")] == pytest.approx(4.0 ** -0.3)

    def test_large_link_count_weight(self):
        kb = KnowledgeBase.intern(
            [Triple(iri("x"), BROADER, iri("root"))], registry())
        counts = np.ones(len(kb.entities), dtype=np.int64)
        counts[kb.entities.index(iri("root"))] = 1000
        parents = parents_by_iri(kb, compute_parents(kb, ParentParams(alpha=0.3), counts))[iri("x")]
        assert parents[0][1] == pytest.approx(0.12589254117941673, abs=1e-12)

    def test_no_parent_edges(self):
        assert parents_of(toy_kb(), iri("mammal")) == []

    def test_inverse_parents_come_from_inverse_properties_only(self):
        member = Iri(EX + "hasMember")
        part_of = Iri(EX + "partOf")
        ts = [
            Triple(iri("g1"), member, iri("a")),
            Triple(iri("g2"), member, iri("a")),
            Triple(iri("a"), part_of, iri("b")),
            Triple(iri("c"), part_of, iri("b")),
        ]
        kb = KnowledgeBase.intern(
            ts, parents_registry(((member, "inverse"), (part_of, "forward"))))
        parents = parents_by_iri(kb, compute_parents(kb, ParentParams(), link_counts(kb)))
        assert [q for q, _ in parents[iri("a")]] == [iri("b"), iri("g1"), iri("g2")]
        assert iri("b") not in parents

    def test_self_loops_duplicates_literals_and_object_only_entities(self):
        kb = kb_from_spo(EDGE_CASES, [(BROADER, "forward"), (MEMBER, "inverse")])
        parents = parents_by_iri(kb, compute_parents(kb, ParentParams(), link_counts(kb)))
        assert [q for q, _ in parents[iri("a")]] == [iri("b"), iri("c"), iri("leaf")]
        assert [q for q, _ in parents[iri("leaf")]] == [iri("d")]
        assert iri("d") not in parents

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
        triples = triples_from_spo(spo)
        kb = KnowledgeBase.intern(triples, parents_registry(parent_properties))
        okb = TripleKB.from_triples(triples, kb.registry)
        params = ParentParams(alpha=alpha)
        parents = compute_parents(kb, params, link_counts(kb))
        counts = link_counts_by_scan(okb)
        assert kb.entities == sorted(okb.entities)
        assert len(parents.indptr) == len(kb.entities) + 1
        for e, uri in enumerate(kb.entities):
            lo, hi = parents.indptr[e:e + 2].tolist()
            row = zip(parents.ids[lo:hi].tolist(), parents.distances[lo:hi].tolist())
            want = parents_by_scan(okb, uri, params, counts)
            assert [(kb.entities[q], w) for q, w in row] == want
        # an entity missing from the KB has no row, and no parents
        assert iri("ghost") not in kb.entities
        assert parents_by_scan(okb, iri("ghost"), params, counts) == []

    def test_alpha_validation(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ConfigError):
                ParentParams(alpha=bad)


@st.composite
def numbered_kbs(draw):
    """A KB over e0..e7, some of them with a label, linked at random, in
    which a parent without a record, "a", sorts before every record."""
    names = [f"e{i}" for i in range(draw(st.integers(1, 8)))]
    labelled = sorted(draw(st.sets(st.sampled_from(names), min_size=1)))
    nodes = st.sampled_from(names + ["a"])
    links = draw(st.lists(st.tuples(nodes, st.sampled_from([BROADER, MEMBER]), nodes),
                          max_size=3 * len(names)))
    triples = [Triple(iri(e), LABEL, Literal(f"text {e}")) for e in labelled]
    triples += [Triple(iri(s), p, iri(o)) for s, p, o in links]
    triples.append(Triple(iri(draw(st.sampled_from(labelled))), BROADER, iri("a")))
    return KnowledgeBase.intern(triples, registry())


class TestBuildIndex:
    @settings(max_examples=40, deadline=None)
    @given(numbered_kbs())
    def test_entities_are_numbered_in_iri_order(self, tmp_path_factory, table, kb):
        # the entities named are the records, their neighborhoods' entities
        # and their parents, each numbered by IRI rank, and every entity has
        # a row in each per-entity section, empty unless it is a record
        out = build_as_pipeline(kb, tmp_path_factory.mktemp("numbered"), table)
        texts = entity_texts(kb)
        hoods = expand_all(compute_edge_weights(kb, link_counts(kb)), kb.entities, texts.ids,
                           ExpansionParams(max_depth=3, max_distance=6.0))
        records = {kb.entities[e] for e in texts.ids.tolist()}
        parents = parents_by_iri(kb, compute_parents(kb, ParentParams(), link_counts(kb)))
        named = records | {kb.entities[e] for e in hoods.ids.tolist()} | {
            q for e in records for q, _ in parents.get(e, [])}
        entities = json.loads((out / STRINGS_FILE).read_text())["entities"]
        assert entities == sorted(named) and iri("a") in named
        is_record = np.array([e in records for e in entities])
        columns = read_columns((out / COLUMNS_FILE).read_bytes())
        for indptr in ("related_indptr", "text_indptr"):
            assert np.array_equal(np.diff(columns[indptr]) > 0, is_record)
        parent_rows = np.diff(columns["parent_indptr"])
        assert parent_rows.shape == is_record.shape and not parent_rows[~is_record].any()
        with CandidateIndex.open(out) as idx:
            assert record_iris(idx) == sorted(records) and len(idx) == len(records)
            for uri in entities:
                assert (idx.position(uri) is None) == (uri not in records)

    def test_record_count_is_entities_with_texts(self, built):
        kb, manifest, path = built
        expected = sorted(
            {t.subject for t in triples_of(kb)
             if t.predicate in kb.registry.text_fields and isinstance(t.obj, Literal)})
        assert manifest.record_count == len(expected) == 4
        with CandidateIndex.open(path) as idx:
            assert record_iris(idx) == expected

    def test_records_carry_neighborhoods_and_parents(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            assert record_neighborhood(idx, iri("bear")).neighbors[0] == (iri("bear"), 0.0)
            assert iri("mammal") in dict(record_parents(idx, iri("bear")))

    @pytest.mark.parametrize("seeds", [
        ["bear", "mammal", "seal", "mercury"],  # out of record order
        ["bear", "mammal", "mercury"],  # a record left out
        ["bear", "mammal", "mercury", "seal", "arctic"],  # an entity without texts
    ])
    def test_neighborhoods_must_be_the_records_in_record_order(self, tmp_path, table, seeds):
        kb = toy_kb()
        hoods = neighborhoods_of(kb.entities, {
            iri(e): Neighborhood(iri(e), ((iri(e), 0.0),)) for e in seeds})
        with pytest.raises(ValueError, match="record order"):
            build_index(entity_texts(kb), hoods, no_parents(kb), Encoders(table), tmp_path / "i")
        assert not (tmp_path / "i").exists()

    @pytest.mark.parametrize("order", [[1, 0, 2, 3], [0, 0, 2, 3]], ids=["swapped", "repeated"])
    def test_records_must_strictly_ascend(self, tmp_path, table, order):
        # rows are laid out by entity id, so records out of order, or one
        # listed twice, would misplace them; the neighborhoods are not read
        kb = toy_kb()
        texts = entity_texts(kb)
        texts = texts._replace(ids=texts.ids[order])
        with pytest.raises(ValueError, match="strictly ascend"):
            build_index(texts, neighborhoods_of(kb.entities, {}), no_parents(kb),
                        Encoders(table), tmp_path / "i")
        assert not (tmp_path / "i").exists()

    def test_empty_kb_builds_empty_index(self, tmp_path, table):
        kb = KnowledgeBase.intern([], registry())
        manifest = build_alone(kb, table, tmp_path / "i")
        assert manifest.record_count == 0
        with CandidateIndex.open(tmp_path / "i") as idx:
            assert len(idx) == 0
            assert hits(idx, "anything") == []

    def test_texts_with_newlines_tabs_and_non_ascii_round_trip(self, tmp_path, table):
        texts = ["polar\nbear", "ice\tbear", "Eisbär ❄ \"quoted\" \\ back", "\u2028 sep"]
        kb = KnowledgeBase.intern(
            [Triple(iri("odd"), LABEL, Literal(text)) for text in texts], registry())
        manifest = build_alone(kb, table, tmp_path / "i")
        assert manifest.text_count == len(texts)
        with CandidateIndex.open(tmp_path / "i") as idx:
            assert [t for _, t, _ in record_texts(idx, iri("odd"))] == sorted(texts)
            assert [uri for uri, _ in hits(idx, "eisbär")] == [iri("odd")]

    def test_rebuild_has_identical_content_hash(self, built, tmp_path, table):
        kb, manifest, _ = built
        parents = compute_parents(kb, ParentParams(), link_counts(kb))
        again = build_index(entity_texts(kb), neighborhoods_for(kb), parents,
                            Encoders(table), tmp_path / "again", config_hash="abc")
        assert again.content_hash == manifest.content_hash
        assert again.record_count == manifest.record_count


# Every public read of an index, given the index and the IRI of one of its
# records.
INDEX_READS = {
    "retrieve": lambda idx, uri: idx.retrieve(["bear"]),
    "related": lambda idx, uri: idx.related,
    "parents": lambda idx, uri: idx.parents,
    "candidate_blocks": lambda idx, uri: idx.candidate_blocks([0]),
    "lexical": lambda idx, uri: idx.lexical,
    "semantic": lambda idx, uri: idx.semantic,
    "text_count": lambda idx, uri: idx.text_count,
    "label": lambda idx, uri: idx.label(0, "label"),
    "position": lambda idx, uri: idx.position(uri),
    "names": lambda idx, uri: idx.names,
    "len": lambda idx, uri: len(idx),
    "manifest": lambda idx, uri: idx.manifest,
}


@pytest.mark.parametrize("read", INDEX_READS)
def test_closed_index_reads_raise(built, read):
    _, _, path = built
    idx = CandidateIndex.open(path)
    INDEX_READS[read](idx, iri("bear"))  # answers while open
    idx.close()
    idx.close()  # closing twice is fine
    with pytest.raises(ValueError, match="the index is closed"):
        INDEX_READS[read](idx, iri("bear"))


def test_missing_attribute_of_an_open_index_is_an_attribute_error(built):
    _, _, path = built
    with CandidateIndex.open(path) as idx:
        assert not hasattr(idx, "_no_such_attribute")
    assert not hasattr(idx, "__no_such_dunder__")


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
        # the postings live in the column file
        _, _, path = built
        (path / COLUMNS_FILE).write_text("not columns\n")
        with pytest.raises(IndexFormatError, match="magic"):
            CandidateIndex.open(path)

    @pytest.mark.parametrize("text", [
        "not json\n", "[]", '{"entities": []}',
        '{"entities": [], "fields": [], "texts": [1], "tokens": [], "grams": []}',
    ], ids=["not-json", "not-object", "missing-lists", "non-string"])
    def test_corrupt_string_table(self, built, text):
        _, _, path = built
        (path / STRINGS_FILE).write_text(text)
        with pytest.raises(IndexFormatError, match="corrupt"):
            CandidateIndex.open(path)

    @pytest.mark.parametrize("content", [
        b"\xff{}", b'{"record_count": 1' + b"0" * 5000 + b"}",
    ], ids=["not-utf8", "5001-digit-integer"])
    def test_undecodable_manifest_refused(self, built, content):
        _, _, path = built
        (path / MANIFEST_FILE).write_bytes(content)
        with pytest.raises(IndexFormatError, match="corrupt manifest"):
            CandidateIndex.open(path)

    @pytest.mark.parametrize("field", [f.name for f in fields(IndexManifest)])
    def test_wrong_typed_manifest_field_refused(self, built, field):
        _, manifest, path = built
        value = getattr(manifest, field)
        if isinstance(value, list):
            wrong = [None, len(value), [float(v) for v in value], [str(v) for v in value]]
        elif isinstance(value, int):
            wrong = [float(value), None, True, str(value)]
        else:
            wrong = [None, 1, [value]]
        for bad in wrong:
            m = json.loads((path / MANIFEST_FILE).read_text())
            m[field] = bad
            (path / MANIFEST_FILE).write_text(json.dumps(m))
            with pytest.raises(IndexFormatError, match=f"{field} is not|index format"):
                CandidateIndex.open(path)

    def test_record_count_mismatch(self, built):
        _, _, path = built
        m = json.loads((path / MANIFEST_FILE).read_text())
        m["record_count"] += 1
        (path / MANIFEST_FILE).write_text(json.dumps(m))
        with pytest.raises(IndexIntegrityError):
            CandidateIndex.open(path)

    def test_format_1_refused(self, built):
        _, _, path = built
        m = json.loads((path / MANIFEST_FILE).read_text())
        m["format_version"] = 1
        (path / MANIFEST_FILE).write_text(json.dumps(m))
        with pytest.raises(IndexFormatError, match="format 1"):
            CandidateIndex.open(path)

    @pytest.mark.parametrize("field", ["text_count", "embedding_dim"])
    def test_vector_header_disagrees_with_manifest(self, built, field):
        _, _, path = built
        m = json.loads((path / MANIFEST_FILE).read_text())
        m[field] += 1
        (path / MANIFEST_FILE).write_text(json.dumps(m))
        with pytest.raises(IndexIntegrityError, match=field.split("_")[-1]):
            CandidateIndex.open(path)

    def test_invalid_related_iri_refused(self, built):
        # the manifest is re-hashed, so only IRI validation can catch it; a
        # name holding a newline must not pass as two IRIs
        _, _, path = built
        columns = read_columns((path / COLUMNS_FILE).read_bytes())
        last_related = int(columns["related_ids"][columns["related_indptr"][1] - 1])
        table = (path / STRINGS_FILE).read_text()
        for bad in ("no scheme here", "http://a.org/x\nhttp://b.org/y"):
            strings = json.loads(table)
            strings["entities"][last_related] = bad
            (path / STRINGS_FILE).write_text(json.dumps(strings))
            rehash(path)
            with pytest.raises(IndexFormatError, match="not an absolute IRI"):
                CandidateIndex.open(path)

    def test_record_iris_out_of_order_refused(self, built):
        # positions stand for URI order, in lookups and in tie-breaks
        _, _, path = built
        swap_entities(path, iri("bear"), iri("mammal"))
        with pytest.raises(IndexIntegrityError, match="entity IRIs not strictly ascending"):
            CandidateIndex.open(path)

    def test_non_record_iris_out_of_order_refused(self, built):
        # so do the ids of entities without a record, in parent tie-breaks
        _, _, path = built
        swap_entities(path, iri("arctic"), iri("group"))
        with pytest.raises(IndexIntegrityError, match="entity IRIs not strictly ascending"):
            CandidateIndex.open(path)

    @pytest.mark.parametrize("indptr", ["text_indptr", "parent_indptr"])
    def test_rows_of_a_non_record_refused(self, built, indptr):
        # arctic, the first entity, has no record; the edit hands it bear's
        # first text (or parent), so every row pointer still fits
        _, _, path = built
        assert json.loads((path / STRINGS_FILE).read_text())["entities"][:2] == [
            iri("arctic"), iri("bear")]
        edit_section(path, indptr, (0, 1))
        with pytest.raises(IndexIntegrityError,
                           match=f"{indptr} gives a row to an entity without a record"):
            CandidateIndex.open(path)

    @pytest.mark.parametrize("count", [3, 5])
    def test_record_count_must_be_the_neighborhoods(self, built, count):
        # four entities have a neighborhood; the manifest is not hashed
        _, manifest, path = built
        assert manifest.record_count == 4
        m = json.loads((path / MANIFEST_FILE).read_text())
        m["record_count"] = count
        (path / MANIFEST_FILE).write_text(json.dumps(m))
        with pytest.raises(IndexIntegrityError, match=f"record count 4 != manifest {count}"):
            CandidateIndex.open(path)

    @pytest.mark.parametrize("key, edit", [
        ("tokens", lambda terms: terms.__setitem__(1, terms[0])),  # a repeated token
        ("grams", lambda terms: terms.__setitem__(slice(0, 2), terms[1::-1])),  # two swapped
    ])
    def test_terms_out_of_order_refused(self, built, key, edit):
        # tokens and grams are written sorted; an open checks that they ascend
        _, _, path = built
        strings = json.loads((path / STRINGS_FILE).read_text())
        edit(strings[key])
        (path / STRINGS_FILE).write_text(json.dumps(strings))
        rehash(path)
        with pytest.raises(IndexIntegrityError, match=f"{key} not strictly ascending"):
            CandidateIndex.open(path)

    def test_deleted_postings_line_fails_content_hash(self, built):
        # one posting deleted, the column file otherwise well formed
        _, _, path = built

        def delete_first_posting(columns):
            for name in ("posting_texts", "posting_tfs"):
                columns[name] = columns[name][1:]
            columns["posting_indptr"][1:] -= 1
        edit_columns(path, delete_first_posting)
        with pytest.raises(IndexIntegrityError, match="content hash"):
            CandidateIndex.open(path)

    def test_term_without_postings_refused(self, built):
        # retrieval takes a known token for a hit; a token without postings
        # would give its queries none, and no 3-gram fallback either
        _, _, path = built
        edit_columns(path, lambda columns: empty_postings(columns, 0))
        rehash(path)
        with pytest.raises(IndexIntegrityError, match="a term without postings"):
            CandidateIndex.open(path)

    @pytest.mark.parametrize("cut", [1, 8, 200])
    def test_truncated_column_file(self, built, cut):
        _, _, path = built
        data = (path / COLUMNS_FILE).read_bytes()
        (path / COLUMNS_FILE).write_bytes(data[:-cut])
        with pytest.raises(IndexIntegrityError, match="bytes"):
            CandidateIndex.open(path)

    @pytest.mark.parametrize("indptr", [
        "related_indptr", "parent_indptr", "text_indptr", "posting_indptr"])
    def test_decreasing_indptr(self, built, indptr):
        _, _, path = built

        def decrease(columns):
            columns[indptr][-2] = columns[indptr][-1] + 1
        edit_columns(path, decrease)
        rehash(path)
        with pytest.raises(IndexIntegrityError, match=indptr):
            CandidateIndex.open(path)

    @pytest.mark.parametrize("column, bound", [
        ("related_ids", "entities"), ("parent_ids", "entities"),
        ("text_fields", "fields"), ("posting_texts", "texts")])
    @pytest.mark.parametrize("past", [0, 1000])
    def test_id_out_of_range(self, built, column, bound, past):
        _, _, path = built
        n = len(json.loads((path / STRINGS_FILE).read_text())[bound])

        def corrupt(columns):
            columns[column][-1] = n + past
        edit_columns(path, corrupt)
        rehash(path)
        with pytest.raises(IndexIntegrityError, match=f"{column} out of range"):
            CandidateIndex.open(path)

    def test_term_frequency_below_1_refused(self, built):
        _, _, path = built
        edit_columns(path, lambda columns: columns["posting_tfs"].__setitem__(-1, 0))
        rehash(path)
        with pytest.raises(IndexIntegrityError, match="term frequency"):
            CandidateIndex.open(path)

    def test_negative_id_out_of_range(self, built):
        _, _, path = built
        edit_columns(path, lambda columns: columns["posting_texts"].__setitem__(0, -1))
        rehash(path)
        with pytest.raises(IndexIntegrityError, match="posting_texts out of range"):
            CandidateIndex.open(path)

    def test_duplicate_entity_refused(self, built):
        _, _, path = built
        strings = json.loads((path / STRINGS_FILE).read_text())
        strings["entities"][-1] = strings["entities"][0]
        (path / STRINGS_FILE).write_text(json.dumps(strings))
        rehash(path)
        with pytest.raises(IndexIntegrityError, match="entity IRIs not strictly ascending"):
            CandidateIndex.open(path)

    def test_text_columns_must_cover_the_string_table(self, built):
        # strings, vectors and manifest agree on the text count; the last
        # text's field and weight are missing from the columns
        _, _, path = built

        def drop_last_text(columns):
            for name in ("text_fields", "text_weights"):
                columns[name] = columns[name][:-1]
            columns["text_indptr"][-1] -= 1
        edit_columns(path, drop_last_text)
        rehash(path)
        with pytest.raises(IndexIntegrityError, match="text count"):
            CandidateIndex.open(path)

    def test_neighborhood_must_start_with_its_record(self, built):
        _, _, path = built

        def swap_first_two(columns):
            columns["related_ids"][[0, 1]] = columns["related_ids"][[1, 0]]
        edit_columns(path, swap_first_two)
        rehash(path)
        with pytest.raises(IndexIntegrityError, match="start with its record"):
            CandidateIndex.open(path)

    def test_vectors_of_another_build_fail_content_hash(self, built, tmp_path):
        # same texts, other embeddings: the semantic section passes every
        # layout and count check, only the content hash tells it apart
        _, manifest, path = built
        other = tmp_path / "other-emb.txt"
        other.write_text("polar 0 0 0 1\nbear 0 0 1 0\n", encoding="utf-8")
        build_index(entity_texts(toy_kb()), neighborhoods_for(toy_kb()), no_parents(toy_kb()),
                    Encoders(EmbeddingTable.load(other)), tmp_path / "other")
        semantic = read_columns((tmp_path / "other" / COLUMNS_FILE).read_bytes())["semantic"]
        assert semantic.tolist() != read_columns(
            (path / COLUMNS_FILE).read_bytes())["semantic"].tolist()
        edit_columns(path, lambda columns: columns.__setitem__("semantic", semantic))
        with pytest.raises(IndexIntegrityError, match="content hash"):
            CandidateIndex.open(path)


class TestQuery:
    def test_exact_unique_label_ranks_first(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            got = hits(idx, "ringed seal", k=5)
            assert got and got[0][0] == iri("seal")
            assert got[0][1] > 0

    def test_no_overlap_returns_empty(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            # shares no token and no character 3-gram with any indexed text
            assert hits(idx, "zzqqjjxx") == []

    def test_empty_mention_returns_empty(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            assert hits(idx, "...") == []

    def test_k_caps_results(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            assert len(hits(idx, "marine mammal bear seal", k=2)) == 2

    def test_invalid_k(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            with pytest.raises(ConfigError):
                idx.retrieve(["bear"], k=0)

    def test_identical_labels_tie_by_iri(self, tmp_path, table):
        ts = [
            Triple(iri("b-ent"), LABEL, Literal("same label")),
            Triple(iri("a-ent"), LABEL, Literal("same label")),
        ]
        kb = KnowledgeBase.intern(ts, registry())
        build_alone(kb, table, tmp_path / "i")
        with CandidateIndex.open(tmp_path / "i") as idx:
            got = hits(idx, "same label", k=5)
            assert [uri for uri, _ in got] == [iri("a-ent"), iri("b-ent")]
            assert got[0][1] == got[1][1]
            assert got == query_by_loop(idx, "same label", k=5)

    def test_gram_fallback_when_no_token_matches(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            # "mercuric" shares no token with any text but shares 3-grams
            # with "mercury"
            got = hits(idx, "mercuric")
            assert got and got[0][0] == iri("mercury")

    def test_token_match_suppresses_gram_fallback(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            assert [uri for uri, _ in hits(idx, "polar")] == [iri("bear")]

    def test_recall_floor(self, built):
        kb, _, path = built
        with CandidateIndex.open(path) as idx:
            got = hits(idx, "marine mammal", k=len(idx))
            # every record whose text contains both tokens must be present
            assert iri("mammal") in {uri for uri, _ in got}

    def test_field_weight_prefers_label_over_synonym(self, tmp_path, table):
        ts = [
            Triple(iri("by-label"), LABEL, Literal("quicksilver")),
            Triple(iri("by-syn"), SYN, Literal("quicksilver")),
        ]
        kb = KnowledgeBase.intern(ts, registry())
        build_alone(kb, table, tmp_path / "i")
        with CandidateIndex.open(tmp_path / "i") as idx:
            got = hits(idx, "quicksilver")
            assert [uri for uri, _ in got] == [iri("by-label"), iri("by-syn")]
            assert got[0][1] == pytest.approx(2.0 * got[1][1] / 1.0)

    def test_determinism(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            a = hits(idx, "marine mammal bear")
            b = hits(idx, "marine mammal bear")
            assert a == b


class TestLabelsAndParents:
    def test_label_is_the_first_text_of_the_field(self, tmp_path, table):
        ts = [Triple(iri("x"), LABEL, Literal("zeta")), Triple(iri("x"), LABEL, Literal("alpha")),
              Triple(iri("x"), SYN, Literal("beta")), Triple(iri("x"), BROADER, iri("a"))]
        kb = KnowledgeBase.intern(ts, registry())
        build_index(entity_texts(kb), record_hoods(kb),
                    compute_parents(kb, ParentParams(), link_counts(kb)), Encoders(table),
                    tmp_path / "i")
        with CandidateIndex.open(tmp_path / "i") as idx:
            # texts are ordered by field, then text
            x = idx.position(iri("x"))
            assert idx.label(x, "label") == "alpha"
            assert idx.label(x, "synonym") == "beta"
            assert idx.label(x, "comment") is None
            # the parent a, entity 0, has no record and so no label
            assert idx.names == [iri("a"), iri("x")] and idx.position(iri("a")) is None
            assert idx.label(0, "label") is None

    def test_parents_follow_record(self, built):
        kb, _, path = built
        want = parents_by_iri(kb, compute_parents(kb, ParentParams(), link_counts(kb)))
        with CandidateIndex.open(path) as idx:
            for uri in record_iris(idx):
                assert record_parents(idx, uri) == want.get(uri, [])
            bear = record_parents(idx, iri("bear"))
            assert [q for q, _ in bear] == [iri("group"), iri("mammal")]
            assert idx.position(iri("ghost")) is None


    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_indexes_carry_the_kb_parents(self, tmp_path_factory, table, seed):
        kb = random_kb(seed)
        want = parents_by_iri(kb, compute_parents(kb, ParentParams(), link_counts(kb)))
        with CandidateIndex.open(random_index(seed, tmp_path_factory.mktemp("random"), table)
                                 ) as idx:
            for uri in record_iris(idx):
                assert record_parents(idx, uri) == want.get(uri, [])


class TestVectors:
    def test_cache_transparency(self, built, table):
        kb, _, path = built
        with CandidateIndex.open(path) as idx:
            for uri in record_iris(idx):
                ids = record_text_ids(idx, uri)
                lex, sem = rows_of(idx.lexical, ids), idx.semantic[list(ids)]
                for (_, text, _), lv, sv in zip(record_texts(idx, uri), lex, sem):
                    assert lv == lexical_vector(text)  # bitwise
                    np.testing.assert_allclose(
                        sv, semantic_vector(text, table), atol=1e-7)

    def test_text_ids_follow_record_order(self, built):
        _, manifest, path = built
        with CandidateIndex.open(path) as idx:
            ids = [i for uri in record_iris(idx) for i in record_text_ids(idx, uri)]
            assert ids == list(range(manifest.text_count))
            assert record_text_ids(idx, iri("ghost")) == range(0)

    def test_order_preserving_batch(self, built):
        _, manifest, path = built
        with CandidateIndex.open(path) as idx:
            ids = list(range(manifest.text_count))
            sem = idx.semantic[ids]
            assert sem.shape == (len(ids), idx.manifest.embedding_dim)
            np.testing.assert_array_equal(idx.semantic[ids[::-1]], sem[::-1])
            for uri in record_iris(idx):
                for _, text, _ in record_texts(idx, uri):
                    lex = cosines(idx, lexical_vector(text), ids)
                    assert lex.shape == (len(ids),) and lex.max() > 0.99
                    assert cosines(idx, lexical_vector(text), ids[::-1]).tolist() \
                        == lex[::-1].tolist()

    def test_out_of_range_ids_rejected(self, built):
        _, manifest, path = built
        with CandidateIndex.open(path) as idx:
            for bad in (-1, manifest.text_count):
                with pytest.raises(IndexIntegrityError):
                    cosines(idx, lexical_vector("polar bear"), [0, bad])


TOP = 2**64 - 1  # gram hashes use all 64 bits
# small keys, and keys at or above 2**63 with their near misses
KEYS = st.one_of(st.integers(0, 40), st.integers(2**63 - 2, 2**63 + 2),
                 st.integers(TOP - 2, TOP), st.just(TOP - 2**16))
ROWS = st.dictionaries(KEYS, st.floats(0.01, 1.0), max_size=5)


def assert_bitwise(got, want):
    # as float64: the row oracle gives integer zeros when no term matches
    assert got.astype(np.float64).tobytes() == want.astype(np.float64).tobytes()


def write_store(path, rows, dim):
    """An index of one record whose texts have the (lexical, semantic) rows
    as vectors, text ids in row order; returns its directory."""
    lexical = columns_of([lex for lex, _ in rows])
    n = len(rows)
    path.mkdir(parents=True, exist_ok=True)
    write_columns(path / COLUMNS_FILE, {
        "related_indptr": [0, 1], "related_ids": [0], "related_distances": [0.0],
        "parent_indptr": [0, 0], "parent_ids": [], "parent_weights": [],
        "text_indptr": [0, n], "text_fields": [0] * n, "text_weights": [1.0] * n,
        "posting_indptr": [0], "posting_texts": [], "posting_tfs": [],
        "gram_vocab": lexical.vocab, "gram_indptr": lexical.indptr,
        "gram_texts": lexical.texts, "gram_values": lexical.values,
        "semantic": np.array([sem for _, sem in rows], dtype=np.float64).reshape(n, dim),
    })
    (path / STRINGS_FILE).write_text(json.dumps({
        "entities": [EX + "r"], "fields": ["label"], "texts": [f"text {i}" for i in range(n)],
        "tokens": [], "grams": []}))
    (path / MANIFEST_FILE).write_text(IndexManifest(
        FORMAT_VERSION, record_count=1, text_count=n, embedding_dim=dim, embedding_sha256="",
        ngram_sizes=[3, 4], config_hash="", content_hash="", created_at="").to_json())
    rehash(path)
    return path


def edit_section(path, name, values):
    """Overwrite the start of the index's named column section with
    ``values``, and re-hash, so that only the layout checks can refuse it."""
    edit_columns(path, lambda columns: columns[name].__setitem__(slice(len(values)), values))
    rehash(path)


# where columns.bin's header holds the element count of the gram values
GRAM_VALUES_COUNT_AT = 8 + 8 * [name for name, _ in COLUMNS].index("gram_values")


class TestVectorStoreFile:
    """The vector sections of the column file, read through an opened index."""

    ROWS = [({5: 0.25, TOP: 0.5, 2: 0.75}, [1.0, -2.0]),
            ({}, [0.0, 0.0]),
            ({7: 0.6, 5: 0.8}, [0.6, 0.8])]

    def test_round_trip(self, tmp_path):
        path = write_store(tmp_path / "i", self.ROWS, 2)
        with CandidateIndex.open(path) as idx:
            lexical = idx.lexical
            assert (lexical.n_texts, idx.manifest.embedding_dim) == (3, 2)
            assert lexical.vocab.dtype == np.uint64
            assert lexical.vocab.tolist() == [2, 5, 7, TOP]
            lex = rows_of(lexical, [0, 1, 2])
            assert list(lex) == [rows for rows, _ in self.ROWS]
            assert list(rows_of(lexical, [2, 1, 0])) == list(lex)[::-1]
            sem = idx.semantic[[0, 1, 2]]
            np.testing.assert_array_equal(sem, [sem for _, sem in self.ROWS])
            np.testing.assert_array_equal(idx.semantic[[2, 1, 0]], sem[::-1])
            lex = cosines(idx, {5: 1.0, TOP: 0.5, 6: 1.0}, [0, 1, 2, 0])
            assert lex.tolist() == [0.25 + 0.25, 0.0, 0.8, 0.5]
            assert cosines(idx, {}, [2, 0]).tolist() == [0.0, 0.0]
            assert cosines(idx, {5: 1.0}, []).shape == (0,)
            # several queries in one pass, a row naming its query by slot
            together = idx.lexical.cosines([{}, {5: 1.0, TOP: 0.5, 6: 1.0}, {7: 1.0}],
                                           np.array([1, 2, 0, 1, 1, 1, 2]),
                                           np.array([0, 1, 2, 0, 1, 2, 2]))
            assert together.tolist() == [0.25 + 0.25, 0.0, 0.0, 0.5, 0.0, 0.8, 0.6]
            assert idx.semantic[[]].shape == (0, 2)
        # results are copies: they outlive the closed index
        assert lex[2] == 0.8 and sem[2].tolist() == [0.6, 0.8]

    def test_file_bytes(self, tmp_path):
        # the vector sections, last in the column file: their element counts
        # in the header, then the ascending gram vocabulary, its posting
        # pointers, the postings' text ids (ascending within a gram, padded
        # to 8 bytes) and values, and the semantic rows; all little-endian
        path = write_store(tmp_path / "i", self.ROWS, 2)
        data = (path / COLUMNS_FILE).read_bytes()
        names = [name for name, _ in COLUMNS]
        first = names.index("gram_vocab")
        assert names[first:] == ["gram_vocab", "gram_indptr", "gram_texts", "gram_values",
                                 "semantic"]
        assert data[8 + 8 * first:8 + 8 * len(names)] == struct.pack("<5Q", 4, 5, 5, 5, 6)
        assert data.endswith(b"".join([
            struct.pack("<4Q", 2, 5, 7, TOP),
            struct.pack("<5q", 0, 1, 3, 4, 5),
            struct.pack("<5i", 0, 0, 2, 2, 0) + b"\x00" * 4,
            struct.pack("<5d", 0.75, 0.25, 0.8, 0.6, 0.5),
            struct.pack("<6d", 1.0, -2.0, 0.0, 0.0, 0.6, 0.8),
        ]))

    def test_empty_store(self, tmp_path):
        path = write_store(tmp_path / "i", [], 4)
        with CandidateIndex.open(path) as idx:
            assert (idx.lexical.n_texts, idx.manifest.embedding_dim) == (0, 4)
            assert cosines(idx, {5: 1.0}, []).shape == (0,)
            assert idx.semantic[[]].shape == (0, 4)

    def test_wrong_semantic_dim(self, tmp_path):
        # the semantic section counts its elements: one row of the
        # manifest's embedding dimension per text
        path = write_store(tmp_path / "i", self.ROWS, 2)
        assert len(read_columns((path / COLUMNS_FILE).read_bytes())["semantic"]) == 6
        m = json.loads((path / MANIFEST_FILE).read_text())
        m["embedding_dim"] = 3
        (path / MANIFEST_FILE).write_text(json.dumps(m))
        with pytest.raises(IndexIntegrityError,
                           match="semantic size 6 != text count 3 x embedding dim 3"):
            CandidateIndex.open(path)

    @pytest.mark.parametrize("edit", [
        lambda b: b[:-8],                     # truncated
        lambda b: b + b"\x00" * 8,            # trailing bytes
        lambda b: b[:GRAM_VALUES_COUNT_AT] + struct.pack("<Q", 6)  # header disagrees
        + b[GRAM_VALUES_COUNT_AT + 8:],
    ], ids=["truncated", "trailing", "header"])
    def test_size_must_match_header(self, tmp_path, edit):
        path = write_store(tmp_path / "i", self.ROWS, 2)
        (path / COLUMNS_FILE).write_bytes(edit((path / COLUMNS_FILE).read_bytes()))
        with pytest.raises(IndexIntegrityError, match="bytes"):
            CandidateIndex.open(path)

    @pytest.mark.parametrize("indptr", [(0, 3, 1, 4, 5), (1, 1, 3, 4, 5), (0, 1, 3, 4, 4)],
                             ids=["decreasing", "nonzero-start", "short-end"])
    def test_corrupt_row_pointers(self, tmp_path, indptr):
        # the gram pointers: gram g's postings are [indptr[g], indptr[g+1])
        path = write_store(tmp_path / "i", self.ROWS, 2)
        edit_section(path, "gram_indptr", indptr)
        with pytest.raises(IndexIntegrityError, match="gram_indptr does not fit"):
            CandidateIndex.open(path)

    @pytest.mark.parametrize("vocab", [(2, 7, 5, TOP), (2, 5, 5, TOP)],
                             ids=["swapped", "repeated"])
    def test_vocabulary_must_ascend(self, tmp_path, vocab):
        path = write_store(tmp_path / "i", self.ROWS, 2)
        edit_section(path, "gram_vocab", vocab)
        with pytest.raises(IndexIntegrityError, match="vocabulary not ascending"):
            CandidateIndex.open(path)

    @pytest.mark.parametrize("text_id", [-1, 3])
    def test_posting_text_ids_in_range(self, tmp_path, text_id):
        path = write_store(tmp_path / "i", self.ROWS, 2)
        edit_section(path, "gram_texts", (0, 0, text_id))
        with pytest.raises(IndexIntegrityError, match=r"gram_texts out of range \[0, 3\)"):
            CandidateIndex.open(path)

    def test_out_of_range_ids(self, tmp_path):
        path = write_store(tmp_path / "i", self.ROWS, 2)
        with CandidateIndex.open(path) as idx:
            for bad in ([-1], [3], [0, 3]):
                with pytest.raises(IndexIntegrityError):
                    cosines(idx, {5: 1.0}, bad)

    def test_bad_magic(self, tmp_path):
        path = write_store(tmp_path / "i", self.ROWS, 2)
        data = (path / COLUMNS_FILE).read_bytes()
        (path / COLUMNS_FILE).write_bytes(b"NOTSTORE" + data[8:])
        with pytest.raises(IndexFormatError, match="magic"):
            CandidateIndex.open(path)

    def test_format_1_magic_refused(self, tmp_path):
        # the magics of format 1's vector file and format 4's column file
        path = write_store(tmp_path / "i", self.ROWS, 2)
        data = (path / COLUMNS_FILE).read_bytes()
        for magic in (b"KBTVEC01", b"KBTCOL03"):
            (path / COLUMNS_FILE).write_bytes(magic + data[8:])
            with pytest.raises(IndexFormatError, match="magic"):
                CandidateIndex.open(path)

    def test_row_major_format_3_store_refused(self, tmp_path):
        # format 3 kept the lexical vectors row by row in a vector file
        path = write_store(tmp_path / "i", self.ROWS, 2)
        (path / COLUMNS_FILE).write_bytes(
            b"KBTVEC02" + struct.pack("<3Q", 1, 1, 0) + struct.pack("<2q", 0, 0)
            + struct.pack("<d", 1.0))
        with pytest.raises(IndexFormatError, match="magic"):
            CandidateIndex.open(path)

    def test_empty_file(self, tmp_path):
        path = write_store(tmp_path / "i", self.ROWS, 2)
        (path / COLUMNS_FILE).write_bytes(b"")
        with pytest.raises(IndexFormatError):
            CandidateIndex.open(path)


class TestColumnsFile:
    COLUMNS = {
        "related_indptr": [0, 1], "related_ids": [0], "related_distances": [0.0],
        "parent_indptr": [0, 0], "parent_ids": [], "parent_weights": [],
        "text_indptr": [0, 1], "text_fields": [0], "text_weights": [2.0],
        "posting_indptr": [0, 1], "posting_texts": [0], "posting_tfs": [3],
        "gram_vocab": [9], "gram_indptr": [0, 1], "gram_texts": [0], "gram_values": [1.0],
        "semantic": [0.6, 0.8],
    }

    def test_file_bytes(self, tmp_path):
        # magic, one element count per section, then the sections in order,
        # little-endian, each zero-padded to whole 8-byte words
        path = tmp_path / COLUMNS_FILE
        write_columns(path, self.COLUMNS)
        pad = b"\x00" * 4
        assert path.read_bytes() == b"".join([
            b"KBTCOL06",
            struct.pack("<17Q", 2, 1, 1, 2, 0, 0, 2, 1, 1, 2, 1, 1, 1, 2, 1, 1, 2),
            struct.pack("<2q", 0, 1), struct.pack("<i", 0) + pad, struct.pack("<d", 0.0),
            struct.pack("<2q", 0, 0),
            struct.pack("<2q", 0, 1), struct.pack("<i", 0) + pad, struct.pack("<d", 2.0),
            struct.pack("<2q", 0, 1), struct.pack("<i", 0) + pad, struct.pack("<i", 3) + pad,
            struct.pack("<Q", 9), struct.pack("<2q", 0, 1), struct.pack("<i", 0) + pad,
            struct.pack("<d", 1.0), struct.pack("<2d", 0.6, 0.8),
        ])
        columns = read_columns(path.read_bytes())
        assert {name: a.tolist() for name, a in columns.items()} == self.COLUMNS
        assert not any(a.flags.writeable for a in columns.values())


class TestCandidateBlock:
    def test_rows_cover_neighborhood_texts(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            bear = idx.position(iri("bear"))
            block = idx.candidate_blocks([bear])
            # bear has 2 texts at distance 0, mammal 1 at 0.5, seal 1 at 1.0
            assert block.entities.tolist() == [bear]
            assert block.sizes.tolist() == [4]
            assert list(block.distances) == [0.0, 0.0, 0.5, 1.0]
            assert list(block.field_weights) == [2.0, 1.0, 2.0, 2.0]

    def test_unindexed_related_entities_skipped(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            block = idx.candidate_blocks([idx.position(iri("mercury"))])
            # the "arctic" neighbor has no texts, contributes no rows
            assert block.sizes.tolist() == [2]
            assert list(block.distances) == [0.0, 0.0]

    def test_unknown_uri(self, built):
        # a block is gathered at a record's position; an entity without a
        # record has none, whether it sorts before, between or after them
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            for uri in record_iris(idx):
                assert idx.position(uri) == idx.names.index(uri)
            for name in ("a", "ghost", "zzz", "arctic"):
                assert idx.position(iri(name)) is None


def cosines(idx, query, text_ids):
    """The lexical cosines of one query with each text."""
    return idx.lexical.cosines([query], np.zeros(len(text_ids), dtype=np.intp),
                               np.asarray(text_ids, dtype=np.intp))


class Unreadable:
    """Stands in for an index's vectors: any read of it fails the test."""

    def __getattr__(self, name):
        pytest.fail("candidate_blocks loaded vectors")

    def __getitem__(self, key):
        pytest.fail("candidate_blocks loaded vectors")

    def __array__(self, *args, **kwargs):
        pytest.fail("candidate_blocks loaded vectors")


def assert_blocks_match_loop(idx, uris):
    """candidate_blocks of the uris' positions, gathered together, loads no
    vectors and equals block_by_loop per uri, stacked."""
    positions = [idx.position(uri) for uri in uris]
    vectors = idx.lexical, idx.semantic
    idx.lexical = idx.semantic = Unreadable()
    try:
        blocks = idx.candidate_blocks(positions)
    finally:
        idx.lexical, idx.semantic = vectors
    want = stack([block_by_loop(idx, uri) for uri in uris])
    assert blocks.entities.tolist() == want.entities.tolist() == positions
    for name in ("sizes", "text_ids", "field_weights", "distances"):
        got, expected = getattr(blocks, name), getattr(want, name)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


def random_kb(seed):
    """A random KB in which only some entities have texts, so neighborhoods
    and parents reach entities without a record."""
    rng = random.Random(seed)
    names = [f"e{i}" for i in range(rng.randint(2, 12))]
    words = ["polar", "bear", "seal", "mercury", "marine", "mammal", "ice"]
    triples = []
    for name in names:
        if rng.random() < 0.6:
            triples.append(Triple(iri(name), LABEL, Literal(" ".join(rng.sample(words, 2)))))
        if rng.random() < 0.3:
            triples.append(Triple(iri(name), SYN, Literal(rng.choice(words))))
    for _ in range(rng.randint(0, 3 * len(names))):
        triples.append(Triple(iri(rng.choice(names)), rng.choice([BROADER, MEMBER]),
                              iri(rng.choice(names))))
    return KnowledgeBase.intern(triples, registry())


def random_index(seed, out, table):
    """Build an index over ``random_kb(seed)`` as the pipeline does."""
    return build_as_pipeline(random_kb(seed), out, table)


def build_as_pipeline(kb, out, table):
    """Build an index over the KB as the pipeline does; returns ``out``."""
    texts = entity_texts(kb)
    hoods = expand_all(compute_edge_weights(kb, link_counts(kb)), kb.entities, texts[0],
                       ExpansionParams(max_depth=3, max_distance=6.0))
    build_index(texts, hoods, compute_parents(kb, ParentParams(), link_counts(kb)),
                Encoders(table), out)
    return out


class TestBlockGather:
    def test_toy_index_matches_loop(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            uris = record_iris(idx)
            for uri in uris:
                assert_blocks_match_loop(idx, [uri])
            assert_blocks_match_loop(idx, uris)
            assert_blocks_match_loop(idx, uris[::-1] + uris[:3])
            none = idx.candidate_blocks([])
            assert none.entities.size == none.sizes.size == none.text_ids.size == 0
            # mercury's neighbor arctic has no record and adds no rows
            assert iri("arctic") in dict(record_neighborhood(idx, iri("mercury")).neighbors)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_indexes_match_loop(self, tmp_path_factory, table, seed):
        path = random_index(seed, tmp_path_factory.mktemp("random"), table)
        with CandidateIndex.open(path) as idx:
            uris = record_iris(idx)
            for uri in uris:
                assert_blocks_match_loop(idx, [uri])
            assert_blocks_match_loop(idx, uris[::-1])

    def test_some_random_index_reaches_unindexed_entities(self, tmp_path, table):
        reached = 0
        for seed in range(10):
            with CandidateIndex.open(random_index(seed, tmp_path / str(seed), table)) as idx:
                reached += sum(idx.position(e) is None for uri in record_iris(idx)
                               for e, _ in record_neighborhood(idx, uri).neighbors)
        assert reached > 0


class TestRelated:
    def test_views_follow_record(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            related = idx.related
            for uri in record_iris(idx):
                lo, hi = related.indptr[idx.position(uri):idx.position(uri) + 2]
                neighbors = record_neighborhood(idx, uri).neighbors
                assert [idx.names[i] for i in related.ids[lo:hi]] == [e for e, _ in neighbors]
                assert related.distances[lo:hi].tolist() == [d for _, d in neighbors]
            assert not related.ids.flags.writeable and not related.distances.flags.writeable
            # the map's own <i4 section, not a copy; coherence widens only
            # the ids it gathers
            assert related.ids.dtype == np.dtype("<i4") and related.distances.dtype == np.float64
            assert record_neighborhood(idx, iri("ghost")) is None

    def test_unindexed_meeting_point_links_candidates(self, tmp_path, table):
        # bear and mercury share only arctic, which has no record
        kb = toy_kb()
        hoods = record_hoods(kb, {
            iri("bear"): Neighborhood(iri("bear"), ((iri("bear"), 0.0), (iri("arctic"), 1.25))),
            iri("mercury"): Neighborhood(iri("mercury"), (
                (iri("mercury"), 0.0), (iri("arctic"), 2.0))),
        })
        build_index(entity_texts(kb), hoods, no_parents(kb), Encoders(table), tmp_path / "index")
        with CandidateIndex.open(tmp_path / "index") as idx:
            assert idx.position(iri("arctic")) is None
            pair = (idx.position(iri("bear")), idx.position(iri("mercury")))
            graph = build_similarity(pair, idx.related)
        assert graph.edges == {pair: 1.0 / (1.0 + 3.25)}


QUERY_WORDS = ["polar", "bear", "seal", "mercury", "marine", "mammal", "ice",
               "mercuric", "sealz", "quicksilver", "xq", "ringed", "..."]


# a query of up to four words: empty, token-less ("..."), matching no token
# but some 3-grams ("mercuric", "sealz", "xq"), or matching tokens
QUERY = st.lists(st.sampled_from(QUERY_WORDS), max_size=4).map(" ".join)
# a batch drawn from a few distinct queries, so that queries repeat
BATCH = st.lists(QUERY, min_size=1, max_size=4).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=10))


def assert_batch_matches_loop(idx, texts, k):
    """One retrieve of the batch against query_by_loop per query, bit for bit."""
    got = split_hits(idx, idx.retrieve(texts, k))
    want = [query_by_loop(idx, text, k) for text in texts]
    assert got == want
    assert [[s.hex() for _, s in h] for h in got] == [[s.hex() for _, s in h] for h in want]


def assert_query_matches_loop(idx, text, k):
    got = hits(idx, text, k)
    want = query_by_loop(idx, text, k)
    assert got == want
    # bitwise, not merely equal as floats
    assert [s.hex() for _, s in got] == [s.hex() for _, s in want]


class TestRetrievalOracle:
    TOY_QUERIES = ["ringed seal", "polar bear", "ice bear", "marine mammal bear seal",
                   "mercuric", "quicksilvery", "bear bear", "zzqqjjxx", "..."]

    def test_toy_index_matches_loop(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            for text in self.TOY_QUERIES:
                for k in (1, 2, 3, 30):
                    assert_query_matches_loop(idx, text, k)
            # "mercuric" takes the 3-gram fallback; k=1 keeps the best hit
            assert hits(idx, "mercuric")
            assert hits(idx, "polar", k=1)[0][0] == iri("bear")

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.lists(st.sampled_from(QUERY_WORDS), min_size=1, max_size=8),
                    min_size=1, max_size=6),
           st.integers(1, 6))
    def test_random_indexes_match_loop(self, tmp_path_factory, table, seed, queries, k):
        path = random_index(seed, tmp_path_factory.mktemp("random"), table)
        with CandidateIndex.open(path) as idx:
            for words in queries:
                assert_query_matches_loop(idx, " ".join(words), k)

    def test_random_indexes_have_ties_and_gram_fallbacks(self, tmp_path, table):
        # the hypothesis test above draws from indexes like these
        ties = grams = 0
        for seed in range(10):
            with CandidateIndex.open(random_index(seed, tmp_path / str(seed), table)) as idx:
                indexed = {tok for uri in record_iris(idx)
                           for _, text, _ in record_texts(idx, uri) for tok in tokenize(text)}
                for text in QUERY_WORDS:
                    hits = query_by_loop(idx, text, 30)
                    ties += any(a[1] == b[1] for a, b in zip(hits, hits[1:]))
                    grams += bool(hits) and not set(tokenize(text)) & indexed
        assert ties > 0 and grams > 0

    def test_toy_batch_matches_loop(self, built):
        # repeated lemmas, empty and token-less ones, a fallback-only one
        # ("mercuric") among token hits, k above the hits
        batch = ["ringed seal", "mercuric", "", "...", "polar bear", "mercuric", "zzqqjjxx",
                 "ringed seal", "quicksilvery", "bear bear"]
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            for k in (1, 2, 3, 30):
                assert_batch_matches_loop(idx, batch, k)
            got = idx.retrieve(batch, 30)
            assert got.counts.tolist()[2:4] == [0, 0] and got.counts[1] > 0
            assert got.counts.sum() == got.positions.shape[0] < 30 * len(batch)
            # scores stay float when only the fallback pass has hits
            assert idx.retrieve(["mercuric"], 3).scores.dtype == np.float64
            empty = idx.retrieve([], 3)
            assert empty.positions.size == empty.scores.size == empty.counts.size == 0

    def test_tied_batch_matches_loop(self, tmp_path, table):
        ts = [Triple(iri(name), LABEL, Literal("same label")) for name in ("c", "a", "b")]
        build_alone(KnowledgeBase.intern(ts, registry()), table, tmp_path / "i")
        with CandidateIndex.open(tmp_path / "i") as idx:
            for k in (1, 2, 5):
                assert_batch_matches_loop(idx, ["same label", "labels", "same", "same label"], k)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1), BATCH, st.integers(1, 6))
    def test_random_batches_match_loop(self, tmp_path_factory, table, seed, batch, k):
        path = random_index(seed, tmp_path_factory.mktemp("random"), table)
        with CandidateIndex.open(path) as idx:
            assert_batch_matches_loop(idx, batch, k)


class TestLengthNormalizers:
    def test_toy_index_matches_tokenizing(self, built):
        _, _, path = built
        with CandidateIndex.open(path) as idx:
            assert_norms_match_tokenizing(idx)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_indexes_match_tokenizing(self, tmp_path_factory, table, seed):
        path = random_index(seed, tmp_path_factory.mktemp("random"), table)
        with CandidateIndex.open(path) as idx:
            assert_norms_match_tokenizing(idx)


def assert_norms_match_tokenizing(idx):
    tokens, grams = text_lengths_by_tokenizing(idx)
    assert idx._norms.dtype == np.float64
    assert_bitwise(idx._norms, np.array([[math.sqrt(max(n, 1)) for n in lengths]
                                         for lengths in (tokens, grams)]))


class TestLexicalCosines:
    """The column kernel's cosines against the row kernel the library used
    before (``oracles.lexical_cosines_by_rows``), bit for bit: a query's
    terms are added per text in the same order."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.lists(st.sampled_from(QUERY_WORDS), max_size=4), min_size=1, max_size=4),
           st.lists(st.integers(0, 2**16), max_size=12))
    def test_random_indexes_equal_row_kernel(self, tmp_path_factory, table, seed, queries,
                                             picks):
        path = random_index(seed, tmp_path_factory.mktemp("random"), table)
        with CandidateIndex.open(path) as idx:
            texts = [text for uri in record_iris(idx) for _, text, _ in record_texts(idx, uri)]
            ids = [p % len(texts) for p in picks] if texts else []
            rows = lexical_rows([lexical_vector(texts[i]) for i in ids])
            queries = [lexical_vector(" ".join(words)) for words in queries]
            for query in queries:
                assert_bitwise(cosines(idx, query, ids), lexical_cosines_by_rows(query, rows))
            # every query in one pass, each over the same ids
            slots = np.repeat(np.arange(len(queries)), len(ids))
            assert_bitwise(idx.lexical.cosines(queries, slots,
                                               np.array(ids * len(queries), dtype=np.intp)),
                           np.concatenate([lexical_cosines_by_rows(q, rows) for q in queries]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ROWS, max_size=8), ROWS, st.lists(st.integers(0, 2**16), max_size=12))
    def test_hand_written_stores_equal_row_kernel(self, tmp_path_factory, rows, query, picks):
        # rows without grams, keys at or above 2**63 and their near misses,
        # an empty query, a text requested several times
        path = write_store(tmp_path_factory.mktemp("store"), [(row, [0.0]) for row in rows], 1)
        ids = [p % len(rows) for p in picks] if rows else []
        with CandidateIndex.open(path) as idx:
            assert list(rows_of(idx.lexical, ids)) == [rows[i] for i in ids]
            assert_bitwise(cosines(idx, query, ids), lexical_cosines_by_rows(
                query, lexical_rows([rows[i] for i in ids])))
