"""Text normalization, hashed n-gram vectors, and embedding means."""

import math
import re
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from kbtopics import vectors
from kbtopics.errors import DataError, IndexIntegrityError
from kbtopics.vectors import (
    EmbeddingTable,
    TextBatch,
    char_ngrams,
    hash_gram,
    lexical_vector,
    normalize_text,
    semantic_vector,
    tokenize,
)

from oracles import cosine_dense, cosine_sparse
from row_table import columns_of

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

    def test_header_dimension_must_match_rows(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_text("2 3\na 1 0\nb 0 1\n", encoding="utf-8")
        with pytest.raises(DataError, match="dimension 2 != header dimension 3"):
            EmbeddingTable.load(p)

    @pytest.mark.parametrize("other, same", [
        ("2 2\na 1 0\nb 0 1\n", True),          # a header
        ("a 1 0\nb 0 1\na 5 5\n", True),        # a duplicate, ignored
        ("b 0 1\na 1 0\n", False),              # load order
        ("a 1 0\nb 0 1.5\n", False),            # a value
        ("a 1 0\nc 0 1\n", False),              # a token
    ])
    def test_digest_covers_the_table_as_loaded(self, tmp_path, other, same):
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        p.write_text("a 1 0\nb 0 1\n", encoding="utf-8")
        q.write_text(other, encoding="utf-8")
        assert (EmbeddingTable.load(p).digest == EmbeddingTable.load(q).digest) == same

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_values_raise(self, tmp_path, value):
        # a NaN or infinite score would be written as invalid JSON
        p = tmp_path / "emb.txt"
        p.write_text(f"a 1 0\nb 0 {value}\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{p}:2: non-finite embedding value")):
            EmbeddingTable.load(p)

    def test_undecodable_file_raises(self, tmp_path):
        p = tmp_path / "emb.txt"
        p.write_bytes(b"a 1 0\ncaf\xe9 0 1\n")
        with pytest.raises(DataError, match="cannot read embeddings"):
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


def postings_by_loop(terms_of_text):
    """Postings from each text's list of terms: the sorted terms, each with
    its (text id, count) pairs in text order."""
    postings = {}
    for text_id, terms in enumerate(terms_of_text):
        for term, count in Counter(terms).items():
            postings.setdefault(term, []).append((text_id, count))
    return [(term, postings[term]) for term in sorted(postings)]


def postings_of(batch_postings):
    ptr = batch_postings.indptr.tolist()
    pairs = list(zip(batch_postings.texts.tolist(), batch_postings.counts.tolist()))
    return [(term, pairs[ptr[t]:ptr[t + 1]]) for t, term in enumerate(batch_postings.terms)]


def assert_columns_equal(got, want):
    assert got.n_texts == want.n_texts
    assert got.vocab.dtype == np.uint64 and got.texts.dtype == np.int32
    assert got.vocab.tolist() == want.vocab.tolist()
    assert got.indptr.tolist() == want.indptr.tolist()
    assert got.texts.tolist() == want.texts.tolist()
    assert got.values.tobytes() == want.values.tobytes()


# NFKC expansions (ligature, roman numeral), characters outside the basic
# plane, whitespace runs, texts shorter than a gram and empty ones
SPECIAL = ["ﬁsh", "Ⅸ", "𝔘𝔫𝔦 𝔠𝔬𝔡𝔢", "😀😀😀😀", "ox", "", "  \t ", "A  b", "ǅemal", "aaaa"]
BATCHES = st.lists(st.one_of(st.text(max_size=12), st.sampled_from(SPECIAL)), max_size=12)
SIZES = st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple)

# known to the fixture's table, to the toy table, to CANCELLING, or to none
WORDS = ["bear", "polar", "seal", "ice", "whale", "sea", "arctic", "up", "down", "ghost", "zz"]
CANCELLING = EmbeddingTable(2, {"up": np.array([0.0, 1.0]), "down": np.array([0.0, -1.0])}, "")


@pytest.fixture(scope="module")
def toy_table():
    return EmbeddingTable.load(Path(__file__).resolve().parents[1] / "data" / "toy_embeddings.txt")


class TestTextBatch:
    """The batch encoder against the one-text functions it must equal."""

    @settings(max_examples=200, deadline=None)
    @given(BATCHES, SIZES)
    @example(SPECIAL, (3, 4))
    @example(["ab", "abc"], (3, 3))  # a size twice counts its grams twice
    @example([], (3, 4))
    def test_lexical_columns_equal_per_text_vectors(self, texts, sizes):
        got = TextBatch(texts).lexical_columns(sizes)
        assert_columns_equal(got, columns_of([lexical_vector(t, sizes) for t in texts]))

    @settings(max_examples=200, deadline=None)
    @given(BATCHES, st.integers(1, 5))
    @example(SPECIAL, 3)
    def test_gram_postings_equal_per_text_grams(self, texts, n):
        assert postings_of(TextBatch(texts).gram_postings(n)) \
            == postings_by_loop([char_ngrams(t, (n,)) for t in texts])

    @settings(max_examples=200, deadline=None)
    @given(BATCHES)
    @example(SPECIAL)
    def test_token_postings_equal_per_text_tokens(self, texts):
        assert postings_of(TextBatch(texts).token_postings()) \
            == postings_by_loop([tokenize(t) for t in texts])

    # the fixture's table is only read
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.lists(st.sampled_from(WORDS), max_size=6).map(" ".join), max_size=20))
    # fullwidth letters fold to "polar" only through NFKC
    @example(["polar bear", "Seal", "bear bear seal", "none", "", "ＰＯＬＡＲ bear"])
    @example(["up down", "up", "up up down down", "ghost"])  # means that cancel to zero
    def test_semantic_matrix_equals_per_text_vectors(self, table, toy_table, texts):
        for tab in (table, toy_table, CANCELLING):
            want = np.array([semantic_vector(t, tab) for t in texts]).reshape(-1, tab.dim)
            # slices of one text, of at most two texts of one token, and whole
            for cap in (1, 2 * tab.dim, vectors._MEAN_VALUES):
                with mock.patch.object(vectors, "_MEAN_VALUES", cap):
                    got = TextBatch(texts).semantic_matrix(tab)
                assert got.tobytes() == want.tobytes()
        assert TextBatch([]).semantic_matrix(table).shape == (0, table.dim)

    def test_codes_are_ranked_again_past_their_limit(self):
        # 3000 distinct characters: 3000**6 does not fit the code limit, so
        # the codes of a 6-gram are ranked again while they are built
        chars = [chr(0x4E00 + i) for i in range(3000)]
        texts = ["".join(chars[i:i + 9]) for i in range(0, 3000, 7)] + ["".join(chars[::-1])]
        batch = TextBatch(texts)
        assert_columns_equal(batch.lexical_columns((6, 2)),
                             columns_of([lexical_vector(t, (6, 2)) for t in texts]))
        assert postings_of(batch.gram_postings(6)) \
            == postings_by_loop([char_ngrams(t, (6,)) for t in texts])

    def test_colliding_hashes_are_one_key(self, monkeypatch):
        # every gram of a length shares one hash, as distinct grams whose
        # hashes collide do in lexical_vector
        monkeypatch.setattr(vectors, "hash_gram", lambda gram: len(gram))
        texts = ["polar bear", "bear", "sea", ""]
        assert_columns_equal(TextBatch(texts).lexical_columns((3, 4)),
                             columns_of([lexical_vector(t, (3, 4)) for t in texts]))

    def test_each_distinct_gram_is_hashed_once(self, monkeypatch):
        hashed = []
        monkeypatch.setattr(vectors, "hash_gram", lambda gram: hashed.append(gram) or 1)
        TextBatch(["polar bear", "bear bear", "polar"]).lexical_columns((3,))
        assert sorted(hashed) == sorted(set(char_ngrams("polar bear bear bear", (3,))))


PHRASES = st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join)


class TestLexicalCosines:
    """The column kernel bounds its own accumulator: queries go in chunks,
    each bit for bit what one unbounded pass gives."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(PHRASES, min_size=1, max_size=8), st.lists(PHRASES, max_size=8), st.data())
    def test_chunks_equal_one_pass(self, texts, phrases, data):
        columns = TextBatch(texts).lexical_columns()
        queries = [lexical_vector(p) for p in phrases]
        # (slot, text id) rows in any order, with repeats
        rows = data.draw(st.lists(st.tuples(st.integers(0, len(queries) - 1),
                                            st.integers(0, len(texts) - 1)), max_size=24)
                         if queries else st.just([]))
        slots, ids = np.array(rows, dtype=np.intp).reshape(-1, 2).T
        with mock.patch.object(vectors, "BATCH_VALUES", 2**62):
            want = columns.cosines(queries, slots, ids)
        assert want.dtype == np.float64
        n = len(texts)
        for bound in (1, n, 2 * n + 1, 3 * n):
            sizes = []
            bincount = np.bincount

            def counted(*args, **kwargs):
                sizes.append(kwargs["minlength"])
                return bincount(*args, **kwargs)

            with mock.patch.object(vectors, "BATCH_VALUES", bound), \
                    mock.patch.object(vectors.np, "bincount", counted):
                got = columns.cosines(queries, slots, ids)
            assert got.tobytes() == want.tobytes()
            # as many queries at a time as fit in the bound, at least one
            step = max(1, bound // n)
            assert sizes == [n * len(queries[lo:lo + step]) for lo in range(0, len(queries), step)]

    @pytest.mark.parametrize("bound", [1, 2**20])  # a chunk per query, or one chunk
    @pytest.mark.parametrize("slot", [-1, 2])
    def test_slot_outside_the_queries_raises(self, bound, slot):
        columns = TextBatch(["polar bear", "seal"]).lexical_columns()
        queries = [lexical_vector("bear"), lexical_vector("seal")]
        with mock.patch.object(vectors, "BATCH_VALUES", bound), \
                pytest.raises(IndexError, match="slot out of range"):
            columns.cosines(queries, np.array([0, slot]), np.array([0, 1]))

    @pytest.mark.parametrize("bound", [1, 2**20])  # a chunk per query, or one chunk
    @pytest.mark.parametrize("text", [-1, 3])
    @pytest.mark.parametrize("first", ["tuna", "polar bear"])
    def test_text_id_outside_the_texts_raises(self, bound, text, first):
        # unchecked, text 3 of query 0 read query 1's cosine with text 0, and
        # text -1 of query 0 query 1's with the last text: each 1.0 here
        columns = TextBatch(["polar bear", "sea ice", "tuna"]).lexical_columns()
        queries = [lexical_vector(first),
                   lexical_vector("polar bear" if first == "tuna" else "tuna")]
        with mock.patch.object(vectors, "BATCH_VALUES", bound), \
                pytest.raises(IndexIntegrityError, match=re.escape(
                    f"text id out of range [0, 3): {min(text, 2)}..{max(text, 2)}")):
            columns.cosines(queries, np.array([0, 1]), np.array([text, 2]))
