"""Text normalization, hashed n-gram vectors, and embedding means."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kbtopics.errors import DataError
from kbtopics.vectors import (
    EmbeddingTable,
    char_ngrams,
    hash_gram,
    lexical_vector,
    normalize_text,
    semantic_vector,
    tokenize,
)

from oracles import cosine_dense, cosine_sparse

texts = st.text(max_size=60)


class TestNormalizeText:
    def test_lowercase_and_whitespace_collapse(self):
        assert normalize_text("  Polar\t\nBEAR  ") == "polar bear"

    def test_nfkc_folding(self):
        assert normalize_text("ﬁsh Ⅸ") == "fish ix"  # ligature and roman numeral

    @given(texts)
    def test_idempotent(self, s):
        once = normalize_text(s)
        assert normalize_text(once) == once

    @given(texts)
    def test_no_double_spaces_or_edges(self, s):
        out = normalize_text(s)
        assert "  " not in out
        assert out == out.strip()


class TestTokenize:
    def test_splits_on_punctuation_and_underscores(self):
        assert tokenize("Polar-bear_liver, 2019!") == ["polar", "bear", "liver", "2019"]

    def test_empty(self):
        assert tokenize("...") == []


class TestCharNgrams:
    def test_grams_cover_spaces(self):
        grams = char_ngrams("ice tea")
        assert "e t" in grams and "e te" in grams

    def test_too_short_for_any_size_yields_nothing(self):
        assert char_ngrams("ox") == []

    def test_three_char_string_has_single_gram(self):
        assert char_ngrams("fox") == ["fox"]

    def test_counts(self):
        grams = char_ngrams("polar bear")
        assert len(grams) == 8 + 7
        assert len(set(grams)) == 15

    def test_empty(self):
        assert char_ngrams("   ") == []


class TestLexicalVector:
    def test_hash_is_stable_across_processes(self):
        # Frozen values: keyed blake2b must not drift with interpreter state.
        assert hash_gram("bea") == 10809875948181119468
        assert hash_gram("pol") == 2979954583467046797

    def test_unit_norm_and_known_entries(self):
        v = lexical_vector("polar bear")
        assert len(v) == 15
        assert all(x == pytest.approx(0.2581988897471611) for x in v.values())
        assert math.fsum(x * x for x in v.values()) == pytest.approx(1.0, abs=1e-12)

    def test_hand_counted_example(self):
        # "food": grams foo, ood, food, each once.
        v = lexical_vector("food")
        assert len(v) == 3
        assert all(x == pytest.approx(1 / math.sqrt(3)) for x in v.values())

    def test_repeated_gram_counts(self):
        # "aaaa": aaa twice, aaaa once.
        v = lexical_vector("aaaa")
        assert sorted(v.values()) == pytest.approx([1 / math.sqrt(5), 2 / math.sqrt(5)])

    def test_empty_or_too_short_text_is_empty_vector(self):
        assert lexical_vector("") == {}
        assert lexical_vector(" \t ") == {}
        assert lexical_vector("ab") == {}

    def test_case_and_spacing_insensitive(self):
        assert lexical_vector("Polar  BEAR") == lexical_vector("polar bear")

    @given(texts.filter(lambda s: len(normalize_text(s)) >= 3))
    def test_norm_is_one(self, s):
        v = lexical_vector(s)
        assert math.fsum(x * x for x in v.values()) == pytest.approx(1.0, abs=1e-9)

    @given(texts, texts)
    def test_cosine_symmetric_and_bounded(self, a, b):
        va, vb = lexical_vector(a), lexical_vector(b)
        c1, c2 = cosine_sparse(va, vb), cosine_sparse(vb, va)
        assert c1 == pytest.approx(c2, abs=1e-12)
        assert -1e-9 <= c1 <= 1.0 + 1e-9

    @given(texts.filter(lambda s: len(normalize_text(s)) >= 3))
    def test_self_cosine_is_one(self, s):
        v = lexical_vector(s)
        assert cosine_sparse(v, v) == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_texts_cosine_zero(self):
        assert cosine_sparse(lexical_vector("aaaa"), lexical_vector("zzzz")) == 0.0


class TestCosineDense:
    def test_zero_vector_yields_zero(self):
        assert cosine_dense(np.zeros(3), np.ones(3)) == 0.0

    def test_oracle_values(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 1.0])
        assert cosine_dense(a, b) == pytest.approx(1 / math.sqrt(2))
        assert cosine_dense(a, -a) == pytest.approx(-1.0)


@pytest.fixture
def table(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text(
        "bear 1.0 0.0 0.0\n"
        "polar 0.0 1.0 0.0\n"
        "seal 0.0 0.0 1.0\n",
        encoding="utf-8",
    )
    return EmbeddingTable.load(p)


class TestEmbeddingTable:
    def test_load_and_lookup(self, table):
        assert len(table) == 3
        assert table.dim == 3
        assert "bear" in table
        np.testing.assert_allclose(table.get("seal"), [0.0, 0.0, 1.0])
        assert table.get("ghost") is None

    def test_word2vec_header_skipped(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("2 2\na 1 0\nb 0 1\n", encoding="utf-8")
        t = EmbeddingTable.load(p)
        assert len(t) == 2 and t.dim == 2

    def test_duplicate_token_keeps_first(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 1 0\na 0 1\n", encoding="utf-8")
        t = EmbeddingTable.load(p)
        np.testing.assert_allclose(t.get("a"), [1.0, 0.0])

    @pytest.mark.parametrize("content", [
        "a 1 0\nb 1\n",      # dimension mismatch
        "a one two\n",        # non-numeric
        "a\n",                # no values
        "",                   # empty file
    ])
    def test_malformed_files_raise(self, tmp_path, content):
        p = tmp_path / "emb.txt"
        p.write_text(content, encoding="utf-8")
        with pytest.raises(DataError):
            EmbeddingTable.load(p)

    def test_vectors_are_read_only(self, table):
        with pytest.raises(ValueError):
            table.get("bear")[0] = 9.0


class TestSemanticVector:
    def test_normalized_mean_of_known_tokens(self, table):
        v = semantic_vector("Polar bear!", table)
        r = 1 / math.sqrt(2)
        np.testing.assert_allclose(v, [r, r, 0.0])

    def test_single_token_is_its_normalized_vector(self, table):
        np.testing.assert_allclose(semantic_vector("bear", table), [1.0, 0.0, 0.0])

    def test_unknown_tokens_ignored(self, table):
        np.testing.assert_allclose(
            semantic_vector("the polar bear of doom", table),
            semantic_vector("polar bear", table))

    def test_no_known_tokens_is_zero_vector(self, table):
        v = semantic_vector("completely unknown words", table)
        np.testing.assert_allclose(v, np.zeros(3))
        assert cosine_dense(v, semantic_vector("bear", table)) == 0.0

    def test_output_is_unit_or_zero(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("a 3 4 0\nb -3 -4 0\nc 1 2 2\n", encoding="utf-8")
        t = EmbeddingTable.load(p)
        assert np.linalg.norm(semantic_vector("a c", t)) == pytest.approx(1.0)
        # opposite vectors cancel to an exact zero mean
        np.testing.assert_array_equal(semantic_vector("a b", t), np.zeros(3))
