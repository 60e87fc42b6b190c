"""Triple parsing, deduplication, and cleaning behaviour."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kbtopics.edges import EdgeWeightParams, compute_edge_weights, link_counts
from kbtopics.errors import ConfigError, DataError, TripleParseError
from kbtopics.index import ParentParams, compute_parents
from kbtopics.kb import (
    CrossRefReport,
    Iri,
    KnowledgeBase,
    Literal,
    LoadStats,
    PropertyRegistry,
    TextField,
    Triple,
    entity_texts,
    iter_triple_file,
    normalize_cross_refs,
    parse_triple_line,
    prune_triples,
)

from oracles import (
    TripleKB,
    cross_refs_by_objects,
    edges_by_scan,
    iri_by_two_steps,
    link_counts_by_scan,
    load_triples,
    objects_of,
    parents_by_iri,
    parents_by_scan,
    parse_triple_line_by_scan,
    prune_by_objects,
    texts_by_iri,
    text_rows,
    texts_by_scan,
    triples_by_character_parser,
    triples_of,
)

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
        ("http://x\n", False),
        ("http://x/\ud800", False),       # a lone surrogate is not a character
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
        assert isinstance(t.obj, Iri)

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
        texts = {t.obj.text for t in triples_of(kb)}
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
        assert {t.obj for t in triples_of(kb) if isinstance(t.obj, Literal)} == {Literal("café")}


# Generated N-Triples lines for comparing iter_triple_file, which matches a
# line whole against one pattern before the character parser, with the
# character parser alone. "\udcXX" stands for the undecodable byte XX.
GOOD_IRIS = [f"<{EX}a>", f"<{EX}b>", f"<{LABEL}>", "<urn:x:1>", "<http://exämple.org/é>"]
BAD_IRIS = ["<relative>", "<http://a b>", '<http://x"y>', "<>", "<http://x", "_:b1",
            "<http://x/\udcff>", "<1http://x>", "<http://x\\u0041>", "http://x"]
PLAIN_PIECES = ["a", "bear", " ", "\t", "é", "#", ".", "<", ">", "@", "^"]
ODD_PIECES = ["\\n", '\\"', "\\\\", "\\u00e9", "\\U0001F600", "\\uD800", "\\q", "\\u00g1",
              "\\", '"', "\udcff", "\udc80\udc80"]
GOOD_SUFFIXES = ["", "@en", "@EN-gb", "@de", "@fr-CA", "@zh-Hant-TW",
                 "^^<http://www.w3.org/2001/XMLSchema#int>"]
SUFFIXES = GOOD_SUFFIXES + ["@en-", "@9", "@", "^^<bad>", "^^", "^^x", "^"]
GOOD_SEPARATORS = ["", " ", "\t", "  ", " \t "]
SEPARATORS = GOOD_SEPARATORS + ["\xa0"]
ENDS = [" .", ".", "", " . ", ". x", "..", " . # note"]

literals = st.builds(
    lambda text, suffix: f'"{text}"{suffix}',
    st.lists(st.sampled_from(PLAIN_PIECES * 3 + ODD_PIECES), max_size=4).map("".join),
    st.sampled_from(GOOD_SUFFIXES * 2 + SUFFIXES))
# mostly well-formed parts, so that lines one part away from a common shape abound
terms = st.sampled_from(GOOD_IRIS * 4 + BAD_IRIS)
triple_lines = st.builds(
    lambda sp, ws, end: f"{ws[0]}{sp[0]}{ws[1]}{sp[1]}{ws[2]}{sp[2]}{ws[3]}{end}",
    st.tuples(terms, terms, terms | literals),
    st.tuples(*[st.sampled_from(SEPARATORS)] * 4),
    st.sampled_from(ENDS[:2] * 3 + ENDS))
lines = triple_lines | st.sampled_from(["", "   ", "# comment", "#<urn:a> <urn:b> <urn:c> ."])


def load_outcome(read, path, strict):
    """What reading ``path`` gives: the triples, the KB and the counts, or
    the parse error's message and location."""
    stats = LoadStats()
    try:
        triples = list(read(path, strict, stats))
    except TripleParseError as exc:
        return "error", str(exc), exc.path, exc.line
    kb = KnowledgeBase.intern(triples, make_registry())
    return ("ok", triples, kb.entities, [type(e) for e in kb.entities], kb.predicates,
            kb.literals, [type(lit) for lit in kb.literals], kb.subject_ids.tolist(),
            kb.predicate_ids.tolist(), kb.object_ids.tolist(), stats)


class TestLinePattern:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(lines, max_size=8), st.sampled_from(["\n", "\r\n"]), st.booleans())
    @example([f'<{EX}a> <{LABEL}> "caf\udcc3" .', f"<{EX}a>\t<{EX}p><{EX}b>."], "\n", True)
    @example([f'<{EX}a> <{LABEL}> "x"@de .', f'<{EX}a> <{LABEL}> "x\\n"@en .'], "\n", False)
    def test_same_outcome_as_character_parser(self, tmp_path_factory, rows, newline, strict):
        path = tmp_path_factory.mktemp("nt") / "kb.nt"
        path.write_bytes(newline.join(rows).encode("utf-8", "surrogateescape"))
        assert load_outcome(iter_triple_file, path, strict) == load_outcome(
            triples_by_character_parser, path, strict)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.builds(
        lambda sp, ws: f"{sp[0]}{ws[0]}{sp[1]}{ws[1]}{sp[2]}{ws[2]}.",
        st.tuples(st.sampled_from(GOOD_IRIS), st.sampled_from(GOOD_IRIS),
                  st.sampled_from(GOOD_IRIS) | st.builds(
                      lambda text, suffix: f'"{text}"{suffix}', st.text(st.characters(
                          blacklist_characters='"\\\n\r', blacklist_categories=("Cs",))),
                      st.sampled_from(GOOD_SUFFIXES))),
        st.tuples(*[st.sampled_from(GOOD_SEPARATORS)] * 3)), max_size=8))
    def test_common_lines_skip_the_character_parser(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("nt") / "kb.nt"
        path.write_text("\n".join(rows), encoding="utf-8")
        with mock.patch("kbtopics.kb.parse_triple_line", side_effect=AssertionError):
            fast = list(iter_triple_file(path))
        assert fast == triples_by_character_parser(path)


# Pieces of lines for comparing the character parser with the index loops it
# replaced (``oracles.parse_triple_line_by_scan``): the syntax's characters,
# escape letters, hex digits and near-hex forms ``int(x, 16)`` takes, a lone
# surrogate, non-ASCII characters, and valid IRIs, literals and escapes.
PARSER_PIECES = ["<", ">", '"', "\\", "@", "^^", "_:", ".", " ", "\t", "\n", "u", "U", "0", "7",
                 "a", "F", "g", "x", "+", "_", "-", "en", "\ud800", "é", "日", "\U0001F600",
                 f"<{EX}a>", "<urn:x:1>", '"x"', '"a b"@en', "\\n", '\\"', "\\\\", "\\u00e9",
                 "\\U0001F600", "\\uD800", "\\U00110000", "\\u0x1f", "\\u+0_1", "\\u 12 "]


def parse_outcome(parse, line):
    """The triple a parser gives for the line, with the types of its parts,
    or its error's message."""
    try:
        t = parse(line, "kb.nt", 3)
    except TripleParseError as exc:
        return "error", str(exc)
    return ("ok", t, [type(part) for part in t],
            [type(part) for part in t.obj] if isinstance(t.obj, Literal) else None)


class TestCharacterParser:
    @settings(max_examples=1000, deadline=None)
    @given(st.booleans(), st.lists(st.sampled_from(PARSER_PIECES), max_size=12).map("".join))
    @example(True, '"\\u00e9\\U0001F600\\t"@en-GB .')
    @example(True, '"\\u+0_1 \\u 12 \\u0x1f" .')
    @example(True, '"bad\\')
    @example(True, '"\\u00e" .')  # one hex digit short
    @example(True, '"\\U0001F60" .')
    @example(True, '"a\\\nb" .')  # an escaped newline
    @example(True, '"ok\\\\" .')
    @example(False, '\t<urn:x:1>\t<urn:x:1> "x"^^<urn:t> . ')
    def test_same_outcome_as_index_loops(self, prefixed, rest):
        line = f"<{EX}a> <{LABEL}> {rest}" if prefixed else rest
        assert parse_outcome(parse_triple_line, line) == parse_outcome(
            parse_triple_line_by_scan, line)


class TestKnowledgeBase:
    def test_intern_dedup_is_idempotent(self):
        reg = make_registry()
        ts = [
            Triple(Iri(EX + "a"), Iri(EX + "p"), Iri(EX + "b")),
            Triple(Iri(EX + "a"), Iri(EX + "p"), Iri(EX + "b")),
            Triple(Iri(EX + "a"), LABEL, Literal("A")),
        ]
        kb1 = KnowledgeBase.intern(ts, reg)
        kb2 = KnowledgeBase.intern(triples_of(kb1), reg)
        assert triples_of(kb1) == triples_of(kb2) == tuple(ts[1:])
        assert len(kb1) == 2

    def test_entities_exclude_predicates_and_literals(self):
        kb = KnowledgeBase.intern(
            [Triple(Iri(EX + "a"), Iri(EX + "p"), Iri(EX + "b")),
             Triple(Iri(EX + "a"), LABEL, Literal("A"))],
            make_registry(),
        )
        assert kb.entities == [EX + "a", EX + "b"]

    def test_id_arrays_decode_to_the_triples_in_order(self):
        t1 = Triple(Iri(EX + "b"), Iri(EX + "p"), Iri(EX + "c"))
        t2 = Triple(Iri(EX + "a"), Iri(EX + "q"), Literal("A", "en"))
        t3 = Triple(Iri(EX + "a"), Iri(EX + "p"), Iri(EX + "b"))
        kb = KnowledgeBase.intern([t1, t2, t3], make_registry())
        # entities numbered in IRI order, not in the order they were read
        assert kb.entities == [EX + "a", EX + "b", EX + "c"]
        assert kb.subject_ids.tolist() == [1, 0, 0]
        assert kb.object_ids.tolist() == [2, ~0, 1]
        assert kb.literals[0] == Literal("A", "en")
        assert triples_of(kb) == (t1, t2, t3)

    def test_literal_identity_is_text_and_language(self):
        a = Iri(EX + "a")
        ts = [Triple(a, LABEL, Literal("x")), Triple(a, LABEL, Literal("x", "en")),
              Triple(a, LABEL, Literal("x"))]
        kb = KnowledgeBase.intern(ts, make_registry())
        assert triples_of(kb) == tuple(ts[:2])

    def test_empty(self):
        kb = KnowledgeBase.intern([], make_registry())
        assert len(kb) == 0 and kb.entities == []
        assert texts_by_iri(kb) == {}


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
        return KnowledgeBase.intern(ts, make_registry())

    def test_known_prefix_becomes_close_match(self):
        kb, report = normalize_cross_refs(self.build("XDB:123"))
        assert report == CrossRefReport(converted=1, unresolved=0)
        assert triples_of(kb) == (Triple(Iri(EX + "a"), CLOSE, Iri(EX + "xdb/123")),)
        assert kb.entities == [EX + "a", EX + "xdb/123"]

    def test_unknown_prefix_left_in_place(self):
        kb, report = normalize_cross_refs(self.build("NOPE:42", "not a ref at all"))
        assert report.converted == 0
        assert report.unresolved == 2
        assert all(t.predicate == XREF for t in triples_of(kb))

    def test_final_newline_is_not_a_reference(self):
        kb, report = normalize_cross_refs(self.build("XDB:123\n"))
        assert report == CrossRefReport(converted=0, unresolved=1)
        assert triples_of(kb) == (Triple(Iri(EX + "a"), XREF, Literal("XDB:123\n")),)

    def test_invalid_iri_left_in_place(self):
        kb, report = normalize_cross_refs(self.build("XDB:a<b", "XDB:ok"))
        assert report == CrossRefReport(converted=1, unresolved=1)
        assert triples_of(kb) == (Triple(Iri(EX + "a"), XREF, Literal("XDB:a<b")),
                                  Triple(Iri(EX + "a"), CLOSE, Iri(EX + "xdb/ok")))

    def test_conversion_dedups_against_existing(self):
        ts = [
            Triple(Iri(EX + "a"), XREF, Literal("XDB:123")),
            Triple(Iri(EX + "a"), CLOSE, Iri(EX + "xdb/123")),
        ]
        kb, report = normalize_cross_refs(KnowledgeBase.intern(ts, make_registry()))
        assert report.converted == 1
        assert len(kb) == 1

    def test_idempotent(self):
        kb1, _ = normalize_cross_refs(self.build("XDB:123", "NOPE:42"))
        kb2, report2 = normalize_cross_refs(kb1)
        assert triples_of(kb1) == triples_of(kb2)
        assert report2.converted == 0

    def test_iri_objects_under_xref_predicate_untouched(self):
        ts = [Triple(Iri(EX + "a"), XREF, Iri(EX + "b"))]
        kb, report = normalize_cross_refs(KnowledgeBase.intern(ts, make_registry()))
        assert report == CrossRefReport()
        assert triples_of(kb) == tuple(ts)


class TestPruneTriples:
    def test_removes_only_registered_predicates(self):
        ts = [
            Triple(Iri(EX + "a"), SOURCE, Literal("imported 2019")),
            Triple(Iri(EX + "a"), SOURCE, Iri(EX + "pipeline")),
            Triple(Iri(EX + "a"), LABEL, Literal("A")),
        ]
        kb, removed = prune_triples(KnowledgeBase.intern(ts, make_registry()))
        assert removed == 2
        assert triples_of(kb) == (ts[2],)
        # an entity whose only link was pruned is no longer an entity
        assert kb.entities == [EX + "a"]

    def test_close_match_survives_pruning(self):
        kb0, _ = normalize_cross_refs(KnowledgeBase.intern(
            [Triple(Iri(EX + "a"), XREF, Literal("XDB:9"))], make_registry()))
        kb1, removed = prune_triples(kb0)
        assert removed == 0
        assert triples_of(kb1) == triples_of(kb0)

    def test_idempotent(self):
        ts = [Triple(Iri(EX + "a"), SOURCE, Literal("x")),
              Triple(Iri(EX + "a"), LABEL, Literal("A"))]
        kb1, _ = prune_triples(KnowledgeBase.intern(ts, make_registry()))
        kb2, removed2 = prune_triples(kb1)
        assert triples_of(kb1) == triples_of(kb2)
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
        kb = KnowledgeBase.intern(ts, make_registry())
        assert texts_by_iri(kb) == {a: [
            ("label", "polar bear", 2.0),
            ("synonym", "ice bear", 1.0),
            ("synonym", "white bear", 1.0),
        ]}

    def test_ids_ascend_with_a_row_pointer(self):
        a, b, c = (Iri(EX + n) for n in "abc")
        ts = [Triple(c, LABEL, Literal("sea")), Triple(b, LABEL, Iri(EX + "x")),
              Triple(a, SYN, Literal("ice")), Triple(c, SYN, Literal("ice"))]
        kb = KnowledgeBase.intern(ts, make_registry())
        texts = entity_texts(kb)
        assert [kb.entities[i] for i in texts.ids.tolist()] == [a, c]
        assert texts.ids.dtype == texts.indptr.dtype == np.int64
        assert texts.indptr.tolist() == [0, 1, 3]
        assert text_rows(texts) == [
            ("synonym", "ice", 1.0), ("label", "sea", 2.0), ("synonym", "ice", 1.0)]
        # fields are numbered in order of first appearance, not by name
        assert texts.fields == ["synonym", "label"]
        assert texts.field_ids.tolist() == [0, 1, 0]
        assert texts.weights.dtype == np.float64

    def test_unknown_entity_empty(self):
        kb = KnowledgeBase.intern([Triple(Iri(EX + "a"), LABEL, Iri(EX + "b"))],
                                  make_registry())
        assert texts_by_iri(kb) == {}
        texts = entity_texts(KnowledgeBase.intern([], make_registry()))
        assert (texts.ids.tolist(), texts.indptr.tolist(), texts.fields,
                texts.field_ids.tolist(), texts.weights.tolist(), texts.texts) \
            == ([], [0], [], [], [], [])

    def test_ties_keep_triple_order(self):
        # two predicates mapped to one field name, with different weights
        a, alias = Iri(EX + "a"), Iri(EX + "alias")
        reg = make_registry(text_fields={LABEL: TextField("label", 2.0),
                                         alias: TextField("label", 0.5)})
        ts = [Triple(a, alias, Literal("bear")), Triple(a, LABEL, Literal("bear")),
              Triple(a, LABEL, Literal("ant"))]
        assert texts_by_iri(KnowledgeBase.intern(ts, reg)) == {a: [
            ("label", "ant", 2.0), ("label", "bear", 0.5), ("label", "bear", 2.0)]}
        assert texts_by_iri(KnowledgeBase.intern(ts[1:] + ts[:1], reg)) == {a: [
            ("label", "ant", 2.0), ("label", "bear", 2.0), ("label", "bear", 0.5)]}

    def test_texts_order_as_python_strings(self):
        # texts that differ only in trailing NULs, which NumPy's fixed-width
        # strings drop, and one text under two language tags (two literals)
        a = Iri(EX + "a")
        ts = [Triple(a, SYN, Literal("ice", "en")), Triple(a, LABEL, Literal("ice\x00")),
              Triple(a, SYN, Literal("Ice\x00\x00")), Triple(a, SYN, Literal("ice")),
              Triple(a, LABEL, Literal("ice"))]
        rows = [("label", "ice", 2.0), ("label", "ice\x00", 2.0), ("synonym", "Ice\x00\x00", 1.0),
                ("synonym", "ice", 1.0), ("synonym", "ice", 1.0)]
        kb = KnowledgeBase.intern(ts, make_registry())
        assert text_rows(entity_texts(kb)) == rows == texts_by_scan(objects_of(kb), a)


# Generated KBs: four entities and a cross-ref target that can also be
# written as an IRI; literals tagged and untagged, references that resolve,
# that resolve to an invalid IRI or that do not resolve.
ALIAS = Iri(EX + "alias")
PART_OF = Iri(EX + "partOf")
MEMBER = Iri(EX + "hasMember")
NODES = [Iri(EX + n) for n in ("a", "b", "c", "d")]
XDB1 = Iri(EX + "xdb/1")
TEXTS = ["bear", "x", "XDB:1", "XDB:2", "XDB:1\n", "XDB:a<b", "BAD:1", "NOPE:1", "not a ref"]
PREDICATES = [LABEL, SYN, ALIAS, PART_OF, MEMBER, XREF, CLOSE, SOURCE, Iri(EX + "related")]


def oracle_registry() -> PropertyRegistry:
    return make_registry(
        text_fields={LABEL: TextField("label", 2.0), SYN: TextField("synonym", 1.0),
                     ALIAS: TextField("label", 0.5)},
        edge_base_weights={PART_OF: 0.5, CLOSE: 0.75},
        parent_properties=((PART_OF, "forward"), (MEMBER, "inverse")),
        cross_ref_prefixes={"XDB": EX + "xdb/", "BAD": "not an iri/"},
    )


def cleaned(triples):
    """The library's KB and the object KB after cross-refs and pruning, with
    both steps' reports."""
    reg = oracle_registry()
    kb, xrefs = normalize_cross_refs(KnowledgeBase.intern(triples, reg))
    kb, removed = prune_triples(kb)
    okb, oxrefs = cross_refs_by_objects(TripleKB.from_triples(triples, reg))
    okb, oremoved = prune_by_objects(okb)
    return kb, okb, (xrefs, removed), (oxrefs, oremoved)


A, B, C, D = NODES
EDGE_CASES = [
    Triple(A, LABEL, Literal("x")), Triple(A, LABEL, Literal("x", "en")),  # tagged and not
    Triple(A, XREF, Literal("XDB:1")), Triple(A, CLOSE, XDB1),  # converts to an existing triple
    Triple(B, XREF, Literal("XDB:a<b")), Triple(B, XREF, Literal("BAD:1")),  # invalid IRIs
    Triple(C, SOURCE, D),  # d's only link is pruned
    Triple(A, ALIAS, Literal("bear")), Triple(A, LABEL, Literal("bear")),  # one field name
    Triple(A, PART_OF, B), Triple(C, MEMBER, A),  # forward and inverse parents
    Triple(B, PART_OF, B), Triple(C, MEMBER, C),  # self-parents
]


class TestAgainstObjectKB:
    """The id-array KB against the object KB of tests/oracles.py: the same
    triples in the same order, link counts, weighted edges, texts and
    parents."""

    def test_edge_cases(self):
        kb, okb, reports, oreports = cleaned(EDGE_CASES)
        assert reports == oreports == (CrossRefReport(converted=1, unresolved=2), 1)
        assert D not in kb.entities
        assert len(kb) == len(EDGE_CASES) - 2
        assert texts_by_iri(kb)[A] == [("label", "bear", 0.5), ("label", "bear", 2.0),
                                       ("label", "x", 2.0), ("label", "x", 2.0)]
        parents = parents_by_iri(kb, compute_parents(kb, ParentParams(), link_counts(kb)))
        assert [q for q, _ in parents[A]] == [B, C]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.builds(
        Triple,
        st.sampled_from(NODES),
        st.sampled_from(PREDICATES),
        st.sampled_from(NODES + [XDB1])
        | st.builds(Literal, st.sampled_from(TEXTS), st.sampled_from([None, "en"])),
    ), max_size=40))
    @example(triples=EDGE_CASES)
    def test_matches_object_kb(self, triples):
        kb, okb, reports, oreports = cleaned(triples)
        assert reports == oreports
        assert triples_of(kb) == okb.triples
        assert kb.entities == sorted(okb.entities)

        links = link_counts(kb)
        olinks = link_counts_by_scan(okb)
        assert dict(zip(kb.entities, links.tolist())) == olinks

        params = EdgeWeightParams(c_max=2)
        graph = compute_edge_weights(kb, links, params)
        name = graph.entities.__getitem__
        assert graph.entities == kb.entities
        assert sorted(zip(map(name, graph.sources.tolist()), map(name, graph.targets.tolist()),
                          graph.weights.tolist())) == edges_by_scan(okb, params)

        entities = sorted(okb.entities)
        assert list(texts_by_iri(kb).items()) == [
            (e, rows) for e in entities if (rows := texts_by_scan(okb, e))]

        alpha = ParentParams(alpha=0.3)
        parents = parents_by_iri(kb, compute_parents(kb, alpha, links))
        assert list(parents.items()) == [
            (e, found) for e in entities if (found := parents_by_scan(okb, e, alpha, olinks))]
