"""CLI behavior: exit codes, file handling, output format, determinism."""

import hashlib
import json
import logging
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kbtopics
from kbtopics import pipeline
from kbtopics.cli import CONFIG_COPY, main
from kbtopics.errors import ConfigError, IndexIntegrityError, PipelineError
from kbtopics import index as index_mod
from kbtopics.index import COLUMNS_FILE, STRINGS_FILE, read_columns, write_columns
from kbtopics.vectors import LexicalColumns

from row_table import rows_of

DATA = Path(__file__).resolve().parents[1] / "data"
CONFIG = DATA / "reference_config.yaml"
CORPUS = DATA / "toy_corpus.jsonl"


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-index")
    assert main(["build-index", "--config", str(CONFIG), "--out", str(out)]) == 0
    return out


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_build_index_reports_stages(tmp_path, capsys):
    out = tmp_path / "idx"
    assert main(["build-index", "--config", str(CONFIG), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    for stage in ("load", "cross-refs", "prune", "edge-weights",
                  "expansion", "parents", "index"):
        assert stage in printed
    assert "index written" in printed
    assert (out / CONFIG_COPY).exists()


def test_build_index_reports_load_skips_and_drops(tmp_path, capsys):
    config = tmp_path / "lenient.yaml"
    config.write_text(
        CONFIG.read_text(encoding="utf-8")
        .replace("lenient: false", "lenient: true")
        .replace("toy_embeddings.txt", str(DATA / "toy_embeddings.txt")),
        encoding="utf-8")
    kb = tmp_path / "kb.nt"
    kb.write_text(
        (DATA / "toy_ontology.nt").read_text(encoding="utf-8")
        + "not a triple\n"
        + "<relative> <http://example.org/p> <http://example.org/o> .\n"
        + '<http://example.org/kb/seal> <http://example.org/vocab/synonym> "phoque"@fr .\n',
        encoding="utf-8")
    assert main(["build-index", "--config", str(config), "--out", str(tmp_path / "idx"),
                 "--kb", str(kb)]) == 0
    load = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("load "))
    # the toy KB itself holds one German literal
    assert load.endswith("153 triples, 54 entities, 2 lines skipped, "
                         "2 non-English literals dropped")


@pytest.mark.parametrize("bad_line, message", [
    ('<http://example.org/kb/seal> <http://example.org/vocab/synonym> "x\\uD800y" .\n'.encode(),
     "surrogate"),
    (b'<http://example.org/kb/seal> <http://example.org/vocab/synonym> "caf\xed\xa0\x80" .\n',
     "not valid UTF-8"),
], ids=["surrogate-escape", "invalid-utf8"])
def test_malformed_kb_text_exits_2(tmp_path, capsys, bad_line, message):
    kb = tmp_path / "kb.nt"
    toy = (DATA / "toy_ontology.nt").read_bytes()
    kb.write_bytes(toy + bad_line)
    line = toy.count(b"\n") + 1
    assert main(["build-index", "--config", str(CONFIG), "--out", str(tmp_path / "idx"),
                 "--kb", str(kb)]) == 2
    err = capsys.readouterr().err
    assert f"kb.nt:{line}:" in err and message in err
    assert not (tmp_path / "idx").exists()


def test_classify_closes_the_index(index_dir, tmp_path):
    # a file left open warns when it is collected; -W error turns the
    # warning into a message on stderr
    src = str(Path(kbtopics.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "kbtopics.cli",
         "classify", "--index", str(index_dir), "--corpus", str(CORPUS),
         "--out", str(tmp_path / "o.jsonl")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "ResourceWarning" not in done.stderr


def test_build_refuses_nonempty_dir_without_force(index_dir, capsys):
    assert main(["build-index", "--config", str(CONFIG), "--out", str(index_dir)]) == 1
    assert "--force" in capsys.readouterr().err


def test_build_force_overwrites(tmp_path):
    out = tmp_path / "idx"
    assert main(["build-index", "--config", str(CONFIG), "--out", str(out)]) == 0
    assert main(["build-index", "--config", str(CONFIG), "--out", str(out),
                 "--force"]) == 0


def test_build_force_over_format_3_index_leaves_no_stale_files(index_dir, tmp_path):
    out = format_3_copy(index_dir, tmp_path / "idx")
    assert main(["build-index", "--config", str(CONFIG), "--out", str(out), "--force"]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in index_dir.iterdir())
    assert json.loads((out / "manifest.json").read_text())["format_version"] \
        == index_mod.FORMAT_VERSION
    # the build directory was renamed into place, and the old index is gone
    assert [p.name for p in tmp_path.iterdir()] == ["idx"]


def test_failed_build_leaves_previous_index(tmp_path, monkeypatch, capsys):
    out = tmp_path / "idx"
    assert main(["build-index", "--config", str(CONFIG), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    write_columns = index_mod.write_columns

    def fail(path, columns):
        write_columns(path, columns)
        raise OSError("disk full")
    # the column file is already written when the build fails
    monkeypatch.setattr(index_mod, "write_columns", fail)
    assert main(["build-index", "--config", str(CONFIG), "--out", str(out), "--force"]) == 2
    assert "disk full" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert [p.name for p in tmp_path.iterdir()] == ["idx"]


def test_build_force_refuses_directory_without_index(tmp_path, capsys):
    out = tmp_path / "notes"
    out.mkdir()
    (out / "keep.txt").write_text("mine")
    assert main(["build-index", "--config", str(CONFIG), "--out", str(out), "--force"]) == 1
    assert "holds no index" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == ["keep.txt"]


def test_log_level_info_reports_the_build(tmp_path, capsys):
    assert main(["--log-level", "info", "build-index", "--config", str(CONFIG),
                 "--out", str(tmp_path / "a")]) == 0
    assert "built index: " in capsys.readouterr().err
    # warning, the default, keeps the library's info lines out of stderr
    assert main(["build-index", "--config", str(CONFIG), "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().err == ""
    assert not logging.getLogger("kbtopics").handlers


def test_build_kb_override_missing_file_fails_in_load_stage(tmp_path, capsys):
    code = main([
        "build-index", "--config", str(CONFIG),
        "--out", str(tmp_path / "idx"),
        "--kb", str(tmp_path / "nope.nt"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "[load]" in err


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["build-index", "--config", str(CONFIG)])  # --out missing
    assert exc.value.code == 1


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_classify_writes_one_line_per_document(index_dir, tmp_path, capsys):
    out = tmp_path / "topics.jsonl"
    assert main(["classify", "--index", str(index_dir), "--corpus", str(CORPUS),
                 "--out", str(out)]) == 0
    assert "classified 10 documents" in capsys.readouterr().out
    records = read_jsonl(out)
    corpus = read_jsonl(CORPUS)
    assert [r["id"] for r in records] == [c["id"] for c in corpus]
    for record in records:
        assert record["topics"], f"no topics for {record['id']}"
        for topic in record["topics"]:
            assert set(topic) == {"uri", "label", "score", "lemmas", "origin"}
            assert topic["origin"] in ("direct", "parent")


def test_classify_matches_gold_directs(index_dir, tmp_path):
    out = tmp_path / "topics.jsonl"
    main(["classify", "--index", str(index_dir), "--corpus", str(CORPUS),
          "--out", str(out)])
    gold = {c["id"]: set(c["gold"]) for c in read_jsonl(CORPUS)}
    for record in read_jsonl(out):
        directs = {
            t["uri"].rsplit("/", 1)[-1]
            for t in record["topics"] if t["origin"] == "direct"
        }
        assert directs == gold[record["id"]], record["id"]


def test_classify_jobs_output_identical(index_dir, tmp_path, monkeypatch):
    # fork at the first document even though the toy batch is small
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(pipeline, "_FORK_AFTER_S", 0.0)
    one = tmp_path / "one.jsonl"
    four = tmp_path / "four.jsonl"
    main(["classify", "--index", str(index_dir), "--corpus", str(CORPUS),
          "--out", str(one), "--jobs", "1"])
    main(["classify", "--index", str(index_dir), "--corpus", str(CORPUS),
          "--out", str(four), "--jobs", "4"])
    assert one.read_bytes() == four.read_bytes()


# sha256 of the toy corpus's classify output; JSON writes each score with
# repr, so the pins hold the scores bit for bit
TOY_TOPICS_SHA256 = {
    "coherence": "ef07f29119e44e8c9bd7350e8e5351e2f9a42dcc48b54608ebc3dfcf66b39f14",
    "no-coherence": "23e8ce5a660728cc19db9ee196426adb3e2781abe4f8fcf99c9418add8cd39ad",
}


@pytest.mark.parametrize("jobs", ["1", "4"])
@pytest.mark.parametrize("mode", sorted(TOY_TOPICS_SHA256))
def test_toy_classify_output_is_pinned(index_dir, tmp_path, monkeypatch, mode, jobs):
    # with four jobs, fork at the first document
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(pipeline, "_FORK_AFTER_S", 0.0)
    out = tmp_path / "topics.jsonl"
    flags = ["--no-coherence"] if mode == "no-coherence" else []
    assert main(["classify", "--index", str(index_dir), "--corpus", str(CORPUS),
                 "--out", str(out), "--jobs", jobs, *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TOY_TOPICS_SHA256[mode]


def test_no_coherence_flips_homonym(index_dir, tmp_path):
    with_c = tmp_path / "with.jsonl"
    without = tmp_path / "without.jsonl"
    main(["classify", "--index", str(index_dir), "--corpus", str(CORPUS),
          "--out", str(with_c)])
    main(["classify", "--index", str(index_dir), "--corpus", str(CORPUS),
          "--out", str(without), "--no-coherence"])

    def directs(path):
        row = next(r for r in read_jsonl(path) if r["id"] == "d10")
        return {t["uri"].rsplit("/", 1)[-1] for t in row["topics"]
                if t["origin"] == "direct"}

    assert "seal_pinniped" in directs(with_c)
    assert "seal_artifact" in directs(without)


def test_classify_without_stored_config_exits_1(index_dir, tmp_path, capsys):
    bare = tmp_path / "bare"
    bare.mkdir()
    for item in index_dir.iterdir():
        if item.name != CONFIG_COPY:
            (bare / item.name).write_bytes(item.read_bytes())
    code = main(["classify", "--index", str(bare), "--corpus", str(CORPUS),
                 "--out", str(tmp_path / "o.jsonl")])
    assert code == 1
    assert "no configuration" in capsys.readouterr().err


@pytest.mark.parametrize("config", [[], ["--config", str(CONFIG)]])
def test_classify_missing_index_exits_2(tmp_path, capsys, config):
    out = tmp_path / "o.jsonl"
    code = main(["classify", "--index", str(tmp_path / "none"), "--corpus", str(CORPUS),
                 "--out", str(out), *config])
    assert code == 2
    assert "cannot open index" in capsys.readouterr().err
    assert not out.exists()


def test_classify_explicit_config_overrides(index_dir, tmp_path):
    out = tmp_path / "topics.jsonl"
    code = main(["classify", "--index", str(index_dir), "--corpus", str(CORPUS),
                 "--out", str(out), "--config", str(CONFIG)])
    assert code == 0
    assert len(read_jsonl(out)) == 10


def test_classify_missing_corpus_exits_2(index_dir, tmp_path, capsys):
    code = main(["classify", "--index", str(index_dir),
                 "--corpus", str(tmp_path / "absent.jsonl"),
                 "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert "cannot read corpus" in capsys.readouterr().err


def test_classify_bad_jobs_exits_1(index_dir, tmp_path):
    assert main(["classify", "--index", str(index_dir), "--corpus", str(CORPUS),
                 "--out", str(tmp_path / "o.jsonl"), "--jobs", "0"]) == 1


def test_malformed_lines_become_error_objects(index_dir, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"id": "good", "title": "Mercury in tuna", "mentions": ["Mercury"]}\n'
        "this is not json\n"
        "\n"
        '{"title": "no id"}\n'
        '{"id": "good2", "abstract": "Whales eat krill.", "mentions": ["Whales"]}\n',
        encoding="utf-8",
    )
    out = tmp_path / "out.jsonl"
    assert main(["classify", "--index", str(index_dir), "--corpus", str(corpus),
                 "--out", str(out)]) == 0
    records = read_jsonl(out)
    assert len(records) == 4  # blank line vanishes, bad lines stay in position
    assert records[0]["id"] == "good" and "topics" in records[0]
    assert "line 2" in records[1]["error"]
    assert "line 4" in records[2]["error"] and "id" in records[2]["error"]
    assert records[3]["id"] == "good2" and "topics" in records[3]


def test_invalid_utf8_line_is_malformed(index_dir, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b'{"id": "good", "title": "Mercury in tuna", "mentions": ["Mercury"]}\n'
                       b'{"id": "bad", "title": "\xff"}\n'
                       b'{"id": "good2", "title": "Mercury", "mentions": ["Mercury"]}\n')
    out = tmp_path / "out.jsonl"
    assert main(["classify", "--index", str(index_dir), "--corpus", str(corpus),
                 "--out", str(out)]) == 0
    records = read_jsonl(out)
    assert [r["id"] for r in records] == ["good", None, "good2"]
    assert records[1]["error"].startswith("line 2: 'utf-8' codec can't decode byte 0xff")
    assert records[0]["topics"] and records[2]["topics"]
    assert "(1 malformed lines)" in capsys.readouterr().out


def test_only_newlines_end_corpus_lines(index_dir, tmp_path):
    # json.dumps(..., ensure_ascii=False) writes U+2028 and U+2029 raw;
    # they, U+0085 and a form feed are characters of a line, not its end
    odd = "Mercury\u2028in\u2029tuna\x85\x0c"
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        json.dumps({"id": "odd", "title": odd, "mentions": ["Mercury"]}, ensure_ascii=False)
        + "\r\nnot json\r"
        + json.dumps({"id": "last", "title": "Mercury", "mentions": ["Mercury"]}) + "\n",
        encoding="utf-8", newline="")
    out = tmp_path / "out.jsonl"
    assert main(["classify", "--index", str(index_dir), "--corpus", str(corpus),
                 "--out", str(out)]) == 0
    records = read_jsonl(out)
    assert [r["id"] for r in records] == ["odd", None, "last"]
    assert [t["uri"] for t in records[0]["topics"]] == [t["uri"] for t in records[2]["topics"]]
    assert records[0]["topics"]
    assert records[1]["error"].startswith("line 2: ")


def test_numeric_ids_are_coerced(index_dir, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": 7, "title": "Mercury", "mentions": ["Mercury"]}\n')
    out = tmp_path / "out.jsonl"
    assert main(["classify", "--index", str(index_dir), "--corpus", str(corpus),
                 "--out", str(out)]) == 0
    assert read_jsonl(out)[0]["id"] == "7"


def test_unicode_passes_through_unescaped(index_dir, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id": "é-1", "title": "Étude"}\n', encoding="utf-8")
    out = tmp_path / "out.jsonl"
    assert main(["classify", "--index", str(index_dir), "--corpus", str(corpus),
                 "--out", str(out)]) == 0
    assert "é-1" in out.read_text(encoding="utf-8")


def test_empty_corpus_is_fine(index_dir, tmp_path, capsys):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("")
    out = tmp_path / "out.jsonl"
    assert main(["classify", "--index", str(index_dir), "--corpus", str(corpus),
                 "--out", str(out)]) == 0
    assert "classified 0 documents" in capsys.readouterr().out
    assert out.read_text() == ""


def test_corrupt_index_exits_2(index_dir, tmp_path, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    for item in index_dir.iterdir():
        (broken / item.name).write_bytes(item.read_bytes())
    columns = broken / COLUMNS_FILE
    columns.write_bytes(columns.read_bytes()[:32])
    code = main(["classify", "--index", str(broken), "--corpus", str(CORPUS),
                 "--out", str(tmp_path / "o.jsonl")])
    assert code == 2


def copy_index(index_dir, dest):
    dest.mkdir()
    for item in index_dir.iterdir():
        (dest / item.name).write_bytes(item.read_bytes())
    return dest


def rehash(index):
    """Store the data files' current content hash in the index's manifest."""
    digest = hashlib.sha256()
    for name in (STRINGS_FILE, COLUMNS_FILE):
        digest.update((index / name).read_bytes())
    manifest = json.loads((index / "manifest.json").read_text(encoding="utf-8"))
    manifest["content_hash"] = digest.hexdigest()
    (index / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


def test_deleted_postings_line_exits_2(index_dir, tmp_path, capsys):
    # one posting deleted from the column file, which stays well formed: the
    # first of a term that has another (a term without postings is refused
    # before the content hash is compared)
    broken = copy_index(index_dir, tmp_path / "broken")
    columns = {name: array.copy() for name, array in
               read_columns((broken / COLUMNS_FILE).read_bytes()).items()}
    ptr = columns["posting_indptr"]
    term = int(np.flatnonzero(np.diff(ptr) > 1)[0])
    for name in ("posting_texts", "posting_tfs"):
        columns[name] = np.delete(columns[name], ptr[term])
    ptr[term + 1:] -= 1
    write_columns(broken / COLUMNS_FILE, columns)
    code = main(["classify", "--index", str(broken), "--corpus", str(CORPUS),
                 "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert "content hash" in capsys.readouterr().err


def test_invalid_related_iri_exits_2(index_dir, tmp_path, capsys):
    broken = copy_index(index_dir, tmp_path / "broken")
    columns = read_columns((broken / COLUMNS_FILE).read_bytes())
    last_related = int(columns["related_ids"][columns["related_indptr"][1] - 1])
    strings = json.loads((broken / STRINGS_FILE).read_text(encoding="utf-8"))
    strings["entities"][last_related] = "no scheme here"
    (broken / STRINGS_FILE).write_text(json.dumps(strings), encoding="utf-8")
    rehash(broken)  # so that only IRI validation can refuse the index
    code = main(["classify", "--index", str(broken), "--corpus", str(CORPUS),
                 "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert "not an absolute IRI" in capsys.readouterr().err


def test_token_without_postings_exits_2(index_dir, tmp_path, capsys):
    # the first token's postings deleted and the content hash recomputed:
    # only the layout check can refuse the index
    broken = copy_index(index_dir, tmp_path / "broken")
    columns = {name: array.copy() for name, array in
               read_columns((broken / COLUMNS_FILE).read_bytes()).items()}
    ptr = columns["posting_indptr"]
    for name in ("posting_texts", "posting_tfs"):
        columns[name] = columns[name][ptr[1]:]
    ptr[1:] -= ptr[1]
    write_columns(broken / COLUMNS_FILE, columns)
    rehash(broken)
    code = main(["classify", "--index", str(broken), "--corpus", str(CORPUS),
                 "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert "a term without postings" in capsys.readouterr().err


def format_3_copy(index_dir, dest):
    """A copy of the index as format 3 wrote it: a manifest saying 3 and
    the vectors in vectors.bin, the lexical ones row by row (magic, n_texts,
    dim, nnz, row pointers, keys, values, semantic rows); with files that no
    index of this format has."""
    copy_index(index_dir, dest)
    columns = read_columns((dest / COLUMNS_FILE).read_bytes())
    n_texts = len(columns["text_fields"])
    rows = rows_of(LexicalColumns(columns["gram_vocab"], columns["gram_indptr"],
                                  columns["gram_texts"], columns["gram_values"], n_texts),
                   range(n_texts))
    sem = columns["semantic"].reshape(n_texts, -1)
    (dest / "vectors.bin").write_bytes(b"".join([
        b"KBTVEC02", struct.pack("<3Q", *sem.shape, len(rows.keys)),
        rows.indptr.astype("<i8").tobytes(), rows.keys.astype("<u8").tobytes(),
        rows.values.astype("<f8").tobytes(), sem.astype("<f8").tobytes()]))
    manifest = json.loads((dest / "manifest.json").read_text(encoding="utf-8"))
    manifest["format_version"] = 3
    (dest / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    (dest / "records.jsonl").write_text("{}\n", encoding="utf-8")
    return dest


def test_format_3_index_exits_2(index_dir, tmp_path, capsys):
    old = format_3_copy(index_dir, tmp_path / "old")
    code = main(["classify", "--index", str(old), "--corpus", str(CORPUS),
                 "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert "index format 3 unsupported" in capsys.readouterr().err


def test_format_4_index_exits_2(index_dir, tmp_path, capsys):
    # format 4 kept the vectors in vectors.bin, and its manifest named no
    # encoders beyond the embedding dimension
    old = copy_index(index_dir, tmp_path / "old")
    manifest = json.loads((old / "manifest.json").read_text(encoding="utf-8"))
    manifest["format_version"] = 4
    del manifest["embedding_sha256"], manifest["ngram_sizes"]
    (old / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    (old / "vectors.bin").write_bytes(b"KBTVEC04")
    code = main(["classify", "--index", str(old), "--corpus", str(CORPUS),
                 "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert "index format 4 unsupported" in err and "rebuild" in err


def test_format_5_index_exits_2(index_dir, tmp_path, capsys):
    # format 5 numbered the records before the other entities and gave only
    # the records rows; its column file's magic was KBTCOL05
    old = copy_index(index_dir, tmp_path / "old")
    manifest = json.loads((old / "manifest.json").read_text(encoding="utf-8"))
    manifest["format_version"] = 5
    (old / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    (old / COLUMNS_FILE).write_bytes(b"KBTCOL05" + (old / COLUMNS_FILE).read_bytes()[8:])
    code = main(["classify", "--index", str(old), "--corpus", str(CORPUS),
                 "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert "index format 5 unsupported" in err and "rebuild" in err


def test_corrupt_gram_vocabulary_exits_2(index_dir, tmp_path, capsys):
    broken = copy_index(index_dir, tmp_path / "broken")
    columns = {name: array.copy() for name, array in
               read_columns((broken / COLUMNS_FILE).read_bytes()).items()}
    # the first two gram hashes swapped: the vocabulary no longer ascends
    columns["gram_vocab"][[0, 1]] = columns["gram_vocab"][[1, 0]]
    write_columns(broken / COLUMNS_FILE, columns)
    code = main(["classify", "--index", str(broken), "--corpus", str(CORPUS),
                 "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert "vocabulary not ascending" in capsys.readouterr().err


def test_format_2_index_exits_2(index_dir, tmp_path, capsys):
    old = copy_index(index_dir, tmp_path / "old")
    manifest = json.loads((old / "manifest.json").read_text(encoding="utf-8"))
    manifest["format_version"] = 2
    (old / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    code = main(["classify", "--index", str(old), "--corpus", str(CORPUS),
                 "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert "index format 2 unsupported" in capsys.readouterr().err


def test_flipped_semantic_byte_exits_2(index_dir, tmp_path, capsys):
    broken = copy_index(index_dir, tmp_path / "broken")
    manifest = json.loads((broken / "manifest.json").read_text(encoding="utf-8"))
    columns = broken / COLUMNS_FILE
    data = bytearray(columns.read_bytes())
    # lowest byte of the first semantic component, in the file's last
    # section: the file stays well formed
    data[-8 * manifest["text_count"] * manifest["embedding_dim"]] ^= 0x01
    columns.write_bytes(bytes(data))
    code = main(["classify", "--index", str(broken), "--corpus", str(CORPUS),
                 "--out", str(tmp_path / "o.jsonl")])
    assert code == 2
    assert "content hash" in capsys.readouterr().err


def test_every_index_data_file_is_hashed(index_dir, tmp_path, capsys):
    # a byte flipped in the middle of any file of the index but the manifest
    # and the config copy leaves it well formed; only the content hash can
    # refuse it
    names = sorted(p.name for p in index_dir.iterdir()
                   if p.name not in ("manifest.json", CONFIG_COPY))
    assert names
    for name in names:
        broken = copy_index(index_dir, tmp_path / f"flipped-{name}")
        data = bytearray((broken / name).read_bytes())
        data[len(data) // 2] ^= 0x01
        (broken / name).write_bytes(bytes(data))
        code = main(["classify", "--index", str(broken), "--corpus", str(CORPUS),
                     "--out", str(tmp_path / "o.jsonl")])
        assert (name, code) == (name, 2)
        assert "content hash" in capsys.readouterr().err, name


def encoder_config(tmp_path, embeddings=DATA / "toy_embeddings.txt", ngram_sizes="[3, 4]"):
    """The reference config with its encoder settings replaced."""
    config = tmp_path / "encoder.yaml"
    text = CONFIG.read_text(encoding="utf-8").replace("toy_embeddings.txt", str(embeddings))
    assert "ngram_sizes: [3, 4]" in text
    config.write_text(text.replace("ngram_sizes: [3, 4]", f"ngram_sizes: {ngram_sizes}"),
                      encoding="utf-8")
    return config


def edited_embeddings(tmp_path, edit):
    """The toy embedding table with ``edit`` applied to each row's values."""
    header, *rows = (DATA / "toy_embeddings.txt").read_text(encoding="utf-8").splitlines()
    rows = [row.split() for row in rows]
    rows = [[token, *edit(values)] for token, *values in rows]
    path = tmp_path / "edited.txt"
    path.write_text("\n".join([f"{len(rows)} {len(rows[0]) - 1}",
                               *(" ".join(row) for row in rows)]) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("change, message", [
    ("ngram", "n-gram sizes [2], but the index was built with [3, 4]"),
    ("dimension", "embedding dimension 15, but the index was built with 16"),
    ("values", "embedding table differs"),
])
def test_encoder_mismatch_exits_2(index_dir, tmp_path, capsys, change, message):
    # classify with encoders other than the build's: the vectors it would
    # compare no longer match the stored ones
    if change == "ngram":
        config = encoder_config(tmp_path, ngram_sizes="[2]")
    else:
        edit = (lambda v: v[:15]) if change == "dimension" else (lambda v: ["0.5", *v[1:]])
        config = encoder_config(tmp_path, edited_embeddings(tmp_path, edit))
    code = main(["classify", "--index", str(index_dir), "--corpus", str(CORPUS),
                 "--out", str(tmp_path / "o.jsonl"), "--config", str(config)])
    assert code == 2
    assert message in capsys.readouterr().err


def test_output_independent_of_hash_seed(tmp_path):
    src = str(Path(kbtopics.__file__).resolve().parents[1])
    outputs, hashes = set(), set()
    for seed in range(4):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        index, out = tmp_path / f"idx{seed}", tmp_path / f"topics{seed}.jsonl"
        for argv in (["build-index", "--config", str(CONFIG), "--out", str(index)],
                     ["classify", "--index", str(index), "--corpus", str(CORPUS),
                      "--out", str(out)]):
            done = subprocess.run([sys.executable, "-m", "kbtopics.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
        outputs.add(out.read_bytes())
        hashes.add(json.loads((index / "manifest.json").read_text())["content_hash"])
    assert len(outputs) == 1
    assert len(hashes) == 1


def test_internal_error_exits_3(index_dir, tmp_path, capsys, monkeypatch):
    import kbtopics.cli as cli_mod

    def boom(config, out_dir):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli_mod, "build_index_from_config", boom)
    code = main(["build-index", "--config", str(CONFIG),
                 "--out", str(tmp_path / "idx")])
    assert code == 3
    assert "internal error" in capsys.readouterr().err


def test_expand_debug_prints_neighbors_and_parents(index_dir, capsys):
    code = main(["expand-debug", "--index", str(index_dir),
                 "--entity", "http://example.org/kb/seal_pinniped"])
    out = capsys.readouterr().out
    assert code == 0
    assert "seal_pinniped" in out
    assert "neighborhood:" in out and "parents:" in out
    assert "marine_mammal" in out


def test_expand_debug_output_pinned(index_dir, capsys):
    # aflatoxin has two parents and a neighborhood of six, distances and
    # weights printed with repr
    code = main(["expand-debug", "--index", str(index_dir),
                 "--entity", "http://example.org/kb/aflatoxin"])
    assert code == 0
    kb = "http://example.org/kb/"
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in [
        f"entity\t{kb}aflatoxin",
        "neighborhood:",
        f"{kb}aflatoxin\t0.0",
        f"{kb}toxic_substances\t1.8371173070873834",
        f"{kb}mycotoxin\t2.0",
        f"{kb}maize\t3.1622776601683795",
        f"{kb}peanut\t3.1622776601683795",
        f"{kb}mold\t3.732050807568877",
        "parents:",
        f"{kb}mycotoxin\t0.6597539553864471",
        f"{kb}toxic_substances\t0.5841906810678655",
    ])


def test_expand_debug_unknown_entity_exits_2(index_dir, capsys):
    code = main(["expand-debug", "--index", str(index_dir),
                 "--entity", "http://example.org/kb/unicorn"])
    assert code == 2
    assert "not indexed" in capsys.readouterr().err


def test_expand_debug_invalid_iri_exits_1(index_dir, capsys):
    code = main(["expand-debug", "--index", str(index_dir), "--entity", "not an iri"])
    assert code == 1
    assert "invalid entity IRI" in capsys.readouterr().err


@pytest.mark.parametrize("error, code, prefix", [
    (ConfigError, 1, "error"),
    (IndexIntegrityError, 2, "error"),
    (PipelineError, 3, "internal error"),
])
def test_package_error_exit_code_and_stage_tag(tmp_path, capsys, monkeypatch, error, code, prefix):
    import kbtopics.cli as cli_mod

    def fail(config, out_dir):
        exc = error("went wrong")
        exc.stage = "parents"
        raise exc

    monkeypatch.setattr(cli_mod, "build_index_from_config", fail)
    assert main(["build-index", "--config", str(CONFIG), "--out", str(tmp_path / "idx")]) == code
    assert capsys.readouterr().err == f"{prefix} [parents]: went wrong\n"
