"""Sentence splitting, chunking, lemmatization, and keyword merging."""

import pytest
from hypothesis import given, strategies as st

from kbtopics.mentions import (
    Document,
    Mention,
    ProvidedMentionDetector,
    RuleBasedDetector,
    document_text,
    lemmatize,
    load_abbreviations,
    load_stopwords,
    merge_keywords,
    split_sentences,
)

ABBREV = load_abbreviations()


def sentences(text):
    return [text[s:e] for s, e in split_sentences(text, ABBREV)]


class TestDocument:
    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Document(id="")

    def test_text_joins_title_and_abstract_with_blank_line(self):
        doc = Document(id="d1", title="A title", abstract="Body text.")
        assert document_text(doc) == "A title\n\nBody text."

    def test_text_title_only_and_abstract_only(self):
        assert document_text(Document(id="d", title="Only title")) == "Only title"
        assert document_text(Document(id="d", abstract="Only body.")) == "Only body."


class TestLemmatize:
    @pytest.mark.parametrize("surface,lemma", [
        ("Polar Bears", "polar bear"),
        ("berries", "berry"),
        ("glasses", "glass"),
        ("processes", "process"),
        ("analysis", "analysis"),
        ("analyses", "analyse"),
        ("doses", "dose"),
        ("uses", "use"),
        ("species", "species"),
        ("news", "news"),
        ("virus", "virus"),          # -us protected
        ("bass", "bass"),            # -ss protected
        ("axis", "axis"),            # -is protected
        ("gas", "gas"),              # too short for the s rule
        ("(tuna),", "tuna"),
        ("  Heavy   Metals  ", "heavy metal"),
        ("", ""),
        ("...", ""),
    ])
    def test_examples(self, surface, lemma):
        assert lemmatize(surface) == lemma

    def test_only_last_token_singularized(self):
        assert lemmatize("levels of toxins") == "levels of toxin"

    @given(st.text(alphabet=st.characters(whitelist_categories=("Lu", "Ll"), max_codepoint=0x24F),
                   max_size=20))
    def test_idempotent(self, word):
        once = lemmatize(word)
        assert lemmatize(once) == once

    def test_idempotent_on_phrases(self):
        for phrase in ("polar bears", "mercury levels", "analyses", "fisheries"):
            once = lemmatize(phrase)
            assert lemmatize(once) == once


class TestSplitSentences:
    def test_basic_split(self):
        assert sentences("Mercury rises. Tuna suffers.") == [
            "Mercury rises.", "Tuna suffers."]

    def test_requires_capital_after_punctuation(self):
        assert sentences("pH of 7.2 was measured. next value pending.") == [
            "pH of 7.2 was measured. next value pending."]

    def test_abbreviation_guard(self):
        assert sentences("Results in Fig. Two confirm it. More follows.") == [
            "Results in Fig. Two confirm it.", "More follows."]

    def test_single_letter_initial_guard(self):
        assert sentences("Written by J. Smith last year. It holds.") == [
            "Written by J. Smith last year.", "It holds."]

    def test_blank_line_is_hard_boundary(self):
        assert sentences("A title without period\n\nThe body starts.") == [
            "A title without period", "The body starts."]

    def test_question_and_exclamation(self):
        assert sentences("Is it safe? No! Run.") == ["Is it safe?", "No!", "Run."]

    def test_spans_index_original_text(self):
        text = "One fish. Two fish."
        for s, e in split_sentences(text, ABBREV):
            assert text[s:e] == text[s:e].strip()

    def test_empty(self):
        assert sentences("") == []
        assert sentences("   \n\n  ") == []


class TestRuleBasedDetector:
    def detect(self, abstract, title=""):
        doc = Document(id="d", title=title, abstract=abstract)
        return RuleBasedDetector().detect(doc)

    def test_chunker_example(self):
        got = self.detect("Mercury levels in tuna.")
        assert [(m.surface, m.sentence) for m in got] == [
            ("Mercury levels", "Mercury levels in tuna."),
            ("tuna", "Mercury levels in tuna."),
        ]

    def test_empty_document(self):
        assert self.detect("") == []

    def test_stopwords_break_runs(self):
        got = self.detect("Effects of mercury on polar bears.")
        assert [m.surface for m in got] == ["Effects", "mercury", "polar bears"]

    def test_runs_longer_than_max_tokens_are_windowed(self):
        got = self.detect("Novel heavy metal contamination assessment protocol design.")
        assert [m.surface for m in got] == [
            "Novel heavy metal contamination", "assessment protocol design"]

    def test_numbers_do_not_start_words(self):
        got = self.detect("Concentrations reached 90 ppm today.")
        assert [m.surface for m in got] == ["Concentrations reached", "ppm today"]

    def test_duplicate_surfaces_get_distinct_spans(self):
        doc = Document(id="d", abstract="Tuna was tested. Tuna was rejected.")
        got = RuleBasedDetector().detect(doc)
        tuna = [m for m in got if m.surface == "Tuna"]
        assert len(tuna) == 2
        assert tuna[0].char_span != tuna[1].char_span
        assert tuna[0].sentence == "Tuna was tested."
        assert tuna[1].sentence == "Tuna was rejected."

    def test_spans_slice_document_text(self):
        doc = Document(id="d", title="Arctic food webs",
                       abstract="Polar bears eat ringed seals. Mercury accumulates.")
        text = document_text(doc)
        got = RuleBasedDetector().detect(doc)
        assert got, "expected mentions"
        for m in got:
            start, end = m.char_span
            assert text[start:end] == m.surface

    def test_title_is_mined_too(self):
        got = self.detect("", title="Cadmium in shellfish")
        assert [m.surface for m in got] == ["Cadmium", "shellfish"]

    def test_lemma_attached(self):
        got = self.detect("Polar bears in Alaska.")
        assert [m.lemma for m in got] == ["polar bear", "alaska"]

    def test_deterministic(self):
        doc = Document(id="d", abstract="Mercury levels in tuna. Risk grows.")
        a = RuleBasedDetector().detect(doc)
        b = RuleBasedDetector().detect(doc)
        assert a == b


class TestProvidedDetector:
    def test_passthrough_with_spans_and_sentences(self):
        doc = Document(
            id="d", abstract="The polar bear hunts. It swims far.",
            provided_mentions=("polar bear", "swims"),
        )
        got = ProvidedMentionDetector().detect(doc)
        text = document_text(doc)
        assert [m.surface for m in got] == ["polar bear", "swims"]
        assert text[slice(*got[0].char_span)] == "polar bear"
        assert got[0].sentence == "The polar bear hunts."
        assert got[1].sentence == "It swims far."

    def test_unlocatable_mention_keeps_none_span(self):
        doc = Document(id="d", abstract="Nothing here.", provided_mentions=("unicorn",))
        got = ProvidedMentionDetector().detect(doc)
        assert got[0].char_span is None
        assert got[0].sentence == "unicorn"
        assert got[0].lemma == "unicorn"


class TestMergeKeywords:
    def base(self):
        return [Mention("Tuna", "tuna", "Tuna is fish.", "text", (0, 4))]

    def test_no_keywords_unchanged(self):
        doc = Document(id="d")
        assert merge_keywords(self.base(), doc) == self.base()

    def test_novel_keywords_appended(self):
        doc = Document(id="d", keywords=("mercury", "food safety", "bioaccumulation"))
        got = merge_keywords(self.base(), doc)
        added = got[1:]
        assert [m.surface for m in added] == ["mercury", "food safety", "bioaccumulation"]
        assert all(m.source == "keyword" for m in added)
        assert all(m.sentence == m.surface for m in added)
        assert all(m.char_span is None for m in added)

    def test_keyword_matching_existing_lemma_skipped(self):
        doc = Document(id="d", keywords=("Tunas",))
        assert merge_keywords(self.base(), doc) == self.base()

    def test_keywords_deduplicate_among_themselves(self):
        doc = Document(id="d", keywords=("Mercury", "mercury levels", "MERCURY"))
        got = merge_keywords([], doc)
        assert [m.surface for m in got] == ["Mercury", "mercury levels"]

    def test_text_mentions_never_dropped(self):
        doc = Document(id="d", keywords=("anything",))
        got = merge_keywords(self.base(), doc)
        assert got[: len(self.base())] == self.base()


class TestWordlists:
    def test_stopwords_lowercase_nonempty(self):
        words = load_stopwords()
        assert "the" in words and "of" in words
        assert all(w == w.lower() for w in words)

    def test_custom_path(self, tmp_path):
        p = tmp_path / "stops.txt"
        p.write_text("# comment\nfoo\nBAR\n\n", encoding="utf-8")
        assert load_stopwords(p) == {"foo", "bar"}
