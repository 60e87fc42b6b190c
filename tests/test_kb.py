"""Triple parsing, deduplication, and cleaning behaviour."""

import pytest
from hypothesis import given, strategies as st

from kbtopics.errors import ConfigError, DataError, TripleParseError
from kbtopics.kb import (
    CrossRefReport,
    Iri,
    KnowledgeBase,
    Literal,
    PropertyRegistry,
    TextField,
    Triple,
    entity_texts,
    normalize_cross_refs,
    parse_triple_line,
    prune_triples,
)

from oracles import iri_by_two_steps, load_triples

EX = "http://example.org/"
LABEL = Iri(EX + "label")
SYN = Iri(EX + "synonym")
XREF = Iri(EX + "hasDbXref")
CLOSE = Iri(EX + "closeMatch")
SOURCE = Iri(EX + "source")


def make_registry(**overrides) -> PropertyRegistry:
    base = dict(
        text_fields={LABEL: TextField("label", 2.0), SYN: TextField("synonym", 1.0)},
        edge_base_weights={Iri(EX + "partOf"): 0.5},
        cross_ref_predicates=frozenset({XREF}),
        cross_ref_prefixes={"XDB": EX + "xdb/"},
        cross_ref_target=CLOSE,
        prune_predicates=frozenset({SOURCE}),
    )
    base.update(overrides)
    return PropertyRegistry(**base)


def accepts_iri(value: str) -> bool:
    try:
        Iri(value)
    except ValueError:
        return False
    return True


def escape_literal(text: str) -> str:
    out = []
    for c in text:
        if c == "\\":
            out.append("\\\\")
        elif c == '"':
            out.append('\\"')
        elif c == "\n":
            out.append("\\n")
        elif c == "\r":
            out.append("\\r")
        elif c == "\t":
            out.append("\\t")
        else:
            out.append(c)
    return "".join(out)


class TestIri:
    def test_accepts_absolute_iris(self):
        assert Iri("http://example.org/a#b") == "http://example.org/a#b"
        assert Iri("urn:uuid:1234")

    @pytest.mark.parametrize("bad", ["", "no-scheme", "http://has space", "1http://x",
                                     "http://angle<bracket", "relative/path"])
    def test_rejects_non_iris(self, bad):
        with pytest.raises(ValueError):
            Iri(bad)

    @pytest.mark.parametrize("value, accepted", [
        *[(f"http://example.org/a{c}b", False) for c in '<>"{}|^`\\'],
        *[(f"http://example.org/a{c}b", False)
          for c in " \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000"],
        ("//example.org/a", False),       # no scheme
        ("example.org:", False),          # scheme with nothing after it
        (":x", False),
        ("1http://x", False),
        ("http:// x", False),
        ("http://x\n", True),             # "$" matches before a final newline
        ("http://x\n\n", False),
        ("http://x\r", False),
        ("\nhttp://x", False),
        ("a+b.c-d:x", True),
        ("http://ex\u00e4mple.org/\u00e9", True),
        ("mailto:a@b", True),
    ])
    def test_accept_set(self, value, accepted):
        assert iri_by_two_steps(value) == accepted
        assert accepts_iri(value) == accepted

    @given(st.tuples(
        st.sampled_from(["", "http:", "urn:", "a+b.c-d:", "1x:", ":", "x"]),
        st.text(alphabet=st.sampled_from(list(
            'ab:/#<>"{}|^`\\ \t\n\r\x0b\x0c\x85\xa0\u2003\u00e9')) | st.characters(),
            max_size=12),
    ).map("".join))
    def test_accept_set_matches_two_step_check(self, value):
        assert accepts_iri(value) == iri_by_two_steps(value)

    def test_local_name_tail(self):
        assert Iri("http://example.org/onto#Bear").local_name == "Bear"
        assert Iri("http://example.org/onto/Bear").local_name == "Bear"

    def test_sorts_and_hashes_as_str(self):
        items = {Iri(EX + "b"), Iri(EX + "a")}
        assert sorted(items) == [EX + "a", EX + "b"]
        assert (EX + "a") in items


class TestParseTripleLine:
    def test_iri_object(self):
        t = parse_triple_line(f"<{EX}a> <{EX}p> <{EX}b> .")
        assert t == Triple(Iri(EX + "a"), Iri(EX + "p"), Iri(EX + "b"))
        assert t.has_iri_object

    def test_literal_object_with_lang(self):
        t = parse_triple_line(f'<{EX}a> <{LABEL}> "Polar Bear"@en .')
        assert t.obj == Literal("Polar Bear", "en")

    def test_datatype_is_discarded(self):
        t = parse_triple_line(f'<{EX}a> <{LABEL}> "42"^^<http://www.w3.org/2001/XMLSchema#int> .')
        assert t.obj == Literal("42", None)

    def test_escapes(self):
        t = parse_triple_line(f'<{EX}a> <{LABEL}> "line\\nbreak \\"q\\" \\\\ \\u00e9 \\U0001F600" .')
        assert t.obj.text == 'line\nbreak "q" \\ é \U0001F600'

    @pytest.mark.parametrize("line", [
        f"<{EX}a> <{EX}p> <{EX}b>",          # missing dot
        f"<{EX}a> <{EX}p> .",                 # missing object
        f"_:b1 <{EX}p> <{EX}b> .",            # blank node
        f'<{EX}a> <{EX}p> "open .',           # unterminated literal
        f"<{EX}a> <{EX}p <{EX}b> .",          # unterminated IRI
        f'<{EX}a> <{EX}p> "x"@9 .',           # malformed lang tag
        f'<{EX}a> <{EX}p> "bad\\q" .',        # unknown escape
        f'<{EX}a> <{EX}p> "bad\\u00g1" .',    # bad hex
        f"<relative> <{EX}p> <{EX}b> .",      # relative IRI
        f'<{EX}a> <{EX}p> "bad\\uD800" .',    # surrogate, not a character
        f'<{EX}a> <{EX}p> "bad\\U0000DFFF" .',  # surrogate, not a character
        f'<{EX}a> <{EX}p> "bad\\U00110000" .',  # past the last code point
    ])
    def test_malformed_lines_raise(self, line):
        with pytest.raises(TripleParseError):
            parse_triple_line(line)

    def test_error_carries_location(self):
        with pytest.raises(TripleParseError) as exc:
            parse_triple_line("garbage", "kb.nt", 17)
        assert "kb.nt:17" in str(exc.value)

    @given(st.text(min_size=0, max_size=80))
    def test_literal_round_trip(self, text):
        line = f'<{EX}a> <{LABEL}> "{escape_literal(text)}" .'
        assert parse_triple_line(line).obj == Literal(text, None)


class TestLoadTriples:
    def write(self, tmp_path, content):
        p = tmp_path / "kb.nt"
        p.write_text(content, encoding="utf-8")
        return p

    def test_load_skips_comments_and_blanks(self, tmp_path):
        p = self.write(tmp_path, f"""
# a comment
<{EX}a> <{EX}p> <{EX}b> .

<{EX}b> <{LABEL}> "Bee" .
""")
        kb, stats = load_triples(p, make_registry())
        assert stats.triples == 2
        assert stats.entities == 2
        assert stats.literals == 1

    def test_duplicates_collapse(self, tmp_path):
        line = f"<{EX}a> <{EX}p> <{EX}b> ."
        p = self.write(tmp_path, "\n".join([line] * 3))
        kb, stats = load_triples(p, make_registry())
        assert len(kb) == 1
        assert stats.duplicates == 2

    def test_non_english_literals_dropped(self, tmp_path):
        p = self.write(tmp_path, "\n".join([
            f'<{EX}a> <{LABEL}> "bear"@en .',
            f'<{EX}a> <{LABEL}> "Eisb\\u00e4r"@de .',
            f'<{EX}a> <{LABEL}> "ours blanc"@fr .',
            f'<{EX}a> <{LABEL}> "bear cub"@en-GB .',
            f'<{EX}a> <{LABEL}> "untagged" .',
        ]))
        kb, stats = load_triples(p, make_registry())
        assert stats.dropped_non_english == 2
        texts = {t.obj.text for t in kb.triples}
        assert texts == {"bear", "bear cub", "untagged"}

    def test_strict_mode_raises_with_line_number(self, tmp_path):
        p = self.write(tmp_path, f"<{EX}a> <{EX}p> <{EX}b> .\nnot a triple\n")
        with pytest.raises(TripleParseError) as exc:
            load_triples(p, make_registry())
        assert ":2:" in str(exc.value)

    def test_lenient_mode_skips_and_counts(self, tmp_path):
        p = self.write(tmp_path, f"<{EX}a> <{EX}p> <{EX}b> .\nnot a triple\n<{EX}b> <{EX}p> <{EX}c> .\n")
        kb, stats = load_triples(p, make_registry(), strict=False)
        assert len(kb) == 2
        assert stats.skipped_lines == 1

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_triples(tmp_path / "absent.nt", make_registry())

    def test_invalid_utf8_is_a_data_error_naming_the_line(self, tmp_path):
        p = tmp_path / "kb.nt"
        p.write_bytes(f"<{EX}a> <{EX}p> <{EX}b> .\n".encode()
                      + f'<{EX}a> <{LABEL}> "caf'.encode() + b'\xed\xa0\x80" .\n')
        with pytest.raises(DataError, match=r"kb\.nt:2: not valid UTF-8"):
            load_triples(p, make_registry())

    def test_lenient_mode_skips_and_counts_invalid_utf8(self, tmp_path):
        p = tmp_path / "kb.nt"
        p.write_bytes(f"<{EX}a> <{EX}p> <{EX}b> .\n".encode()
                      + f'<{EX}a> <{LABEL}> "caf'.encode() + b'\xe9" .\n'
                      + f'<{EX}b> <{LABEL}> "caf\u00e9" .\n'.encode())
        kb, stats = load_triples(p, make_registry(), strict=False)
        assert stats.skipped_lines == 1
        assert {t.obj for t in kb.triples if not t.has_iri_object} == {Literal("café")}


class TestKnowledgeBase:
    def test_from_triples_dedup_is_idempotent(self):
        reg = make_registry()
        ts = [
            Triple(Iri(EX + "a"), Iri(EX + "p"), Iri(EX + "b")),
            Triple(Iri(EX + "a"), Iri(EX + "p"), Iri(EX + "b")),
            Triple(Iri(EX + "a"), LABEL, Literal("A")),
        ]
        kb1 = KnowledgeBase.from_triples(ts, reg)
        kb2 = KnowledgeBase.from_triples(kb1.triples, reg)
        assert kb1.triples == kb2.triples
        assert len(kb1) == 2

    def test_entities_exclude_predicates_and_literals(self):
        kb = KnowledgeBase.from_triples(
            [Triple(Iri(EX + "a"), Iri(EX + "p"), Iri(EX + "b")),
             Triple(Iri(EX + "a"), LABEL, Literal("A"))],
            make_registry(),
        )
        assert kb.entities == {EX + "a", EX + "b"}

    def test_subject_index(self):
        t1 = Triple(Iri(EX + "a"), Iri(EX + "p"), Iri(EX + "b"))
        t2 = Triple(Iri(EX + "b"), Iri(EX + "p"), Iri(EX + "c"))
        kb = KnowledgeBase.from_triples([t1, t2], make_registry())
        assert kb.subject_triples(Iri(EX + "a")) == (t1,)
        assert kb.subject_triples(Iri(EX + "zzz")) == ()

    def test_object_index_covers_inverse_parent_properties_only(self):
        member = Iri(EX + "hasMember")
        part_of = Iri(EX + "partOf")
        ts = [
            Triple(Iri(EX + "g1"), member, Iri(EX + "a")),
            Triple(Iri(EX + "g2"), member, Iri(EX + "a")),
            Triple(Iri(EX + "a"), part_of, Iri(EX + "b")),
            Triple(Iri(EX + "c"), part_of, Iri(EX + "b")),
        ]
        reg = make_registry(parent_properties=((member, "inverse"), (part_of, "forward")))
        kb = KnowledgeBase.from_triples(ts, reg)
        assert kb.subjects_with(member, Iri(EX + "a")) == (EX + "g1", EX + "g2")
        assert kb.subjects_with(part_of, Iri(EX + "b")) == ()


class TestRegistryValidation:
    def test_rejects_nonpositive_field_weight(self):
        with pytest.raises(ConfigError):
            TextField("label", 0.0)

    def test_rejects_nonpositive_edge_weight(self):
        with pytest.raises(ConfigError):
            make_registry(edge_base_weights={Iri(EX + "p"): -1.0})

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_rejects_non_finite_field_weight(self, weight):
        with pytest.raises(ConfigError, match="finite"):
            TextField("label", weight)

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")])
    def test_rejects_non_finite_edge_weight(self, weight):
        with pytest.raises(ConfigError, match="finite"):
            make_registry(edge_base_weights={Iri(EX + "p"): weight})

    def test_rejects_bad_parent_direction(self):
        with pytest.raises(ConfigError):
            make_registry(parent_properties=((Iri(EX + "p"), "sideways"),))

    def test_rejects_cross_refs_without_target(self):
        with pytest.raises(ConfigError):
            make_registry(cross_ref_target=None)


class TestNormalizeCrossRefs:
    def build(self, *objs: str) -> KnowledgeBase:
        ts = [Triple(Iri(EX + "a"), XREF, Literal(o)) for o in objs]
        return KnowledgeBase.from_triples(ts, make_registry())

    def test_known_prefix_becomes_close_match(self):
        kb, report = normalize_cross_refs(self.build("XDB:123"))
        assert report == CrossRefReport(converted=1, unresolved=0)
        assert kb.triples == (Triple(Iri(EX + "a"), CLOSE, Iri(EX + "xdb/123")),)

    def test_unknown_prefix_left_in_place(self):
        kb, report = normalize_cross_refs(self.build("NOPE:42", "not a ref at all"))
        assert report.converted == 0
        assert report.unresolved == 2
        assert all(t.predicate == XREF for t in kb.triples)

    def test_conversion_dedups_against_existing(self):
        ts = [
            Triple(Iri(EX + "a"), XREF, Literal("XDB:123")),
            Triple(Iri(EX + "a"), CLOSE, Iri(EX + "xdb/123")),
        ]
        kb, report = normalize_cross_refs(KnowledgeBase.from_triples(ts, make_registry()))
        assert report.converted == 1
        assert len(kb) == 1

    def test_idempotent(self):
        kb1, _ = normalize_cross_refs(self.build("XDB:123", "NOPE:42"))
        kb2, report2 = normalize_cross_refs(kb1)
        assert kb1.triples == kb2.triples
        assert report2.converted == 0

    def test_iri_objects_under_xref_predicate_untouched(self):
        ts = [Triple(Iri(EX + "a"), XREF, Iri(EX + "b"))]
        kb, report = normalize_cross_refs(KnowledgeBase.from_triples(ts, make_registry()))
        assert report == CrossRefReport()
        assert kb.triples == tuple(ts)


class TestPruneTriples:
    def test_removes_only_registered_predicates(self):
        ts = [
            Triple(Iri(EX + "a"), SOURCE, Literal("imported 2019")),
            Triple(Iri(EX + "a"), SOURCE, Iri(EX + "pipeline")),
            Triple(Iri(EX + "a"), LABEL, Literal("A")),
        ]
        kb, removed = prune_triples(KnowledgeBase.from_triples(ts, make_registry()))
        assert removed == 2
        assert kb.triples == (ts[2],)

    def test_close_match_survives_pruning(self):
        kb0, _ = normalize_cross_refs(KnowledgeBase.from_triples(
            [Triple(Iri(EX + "a"), XREF, Literal("XDB:9"))], make_registry()))
        kb1, removed = prune_triples(kb0)
        assert removed == 0
        assert kb1.triples == kb0.triples

    def test_idempotent(self):
        ts = [Triple(Iri(EX + "a"), SOURCE, Literal("x")),
              Triple(Iri(EX + "a"), LABEL, Literal("A"))]
        kb1, _ = prune_triples(KnowledgeBase.from_triples(ts, make_registry()))
        kb2, removed2 = prune_triples(kb1)
        assert kb1.triples == kb2.triples
        assert removed2 == 0


class TestEntityTexts:
    def test_sorted_by_field_then_text_with_weights(self):
        a = Iri(EX + "a")
        ts = [
            Triple(a, SYN, Literal("white bear")),
            Triple(a, LABEL, Literal("polar bear")),
            Triple(a, SYN, Literal("ice bear")),
            Triple(a, Iri(EX + "other"), Literal("ignored")),
            Triple(a, LABEL, Iri(EX + "not-text")),
        ]
        kb = KnowledgeBase.from_triples(ts, make_registry())
        assert entity_texts(kb, a) == [
            ("label", "polar bear", 2.0),
            ("synonym", "ice bear", 1.0),
            ("synonym", "white bear", 1.0),
        ]

    def test_unknown_entity_empty(self):
        kb = KnowledgeBase.from_triples([], make_registry())
        assert entity_texts(kb, Iri(EX + "ghost")) == []
