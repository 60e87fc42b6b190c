"""CLI behavior: exit codes, file handling, output format, determinism."""

import json
from pathlib import Path

import pytest

from kbtopics.cli import CONFIG_COPY, main

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


def test_build_refuses_nonempty_dir_without_force(index_dir, capsys):
    assert main(["build-index", "--config", str(CONFIG), "--out", str(index_dir)]) == 1
    assert "--force" in capsys.readouterr().err


def test_build_force_overwrites(tmp_path):
    out = tmp_path / "idx"
    assert main(["build-index", "--config", str(CONFIG), "--out", str(out)]) == 0
    assert main(["build-index", "--config", str(CONFIG), "--out", str(out),
                 "--force"]) == 0


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


def test_classify_jobs_output_identical(index_dir, tmp_path):
    one = tmp_path / "one.jsonl"
    four = tmp_path / "four.jsonl"
    main(["classify", "--index", str(index_dir), "--corpus", str(CORPUS),
          "--out", str(one), "--jobs", "1"])
    main(["classify", "--index", str(index_dir), "--corpus", str(CORPUS),
          "--out", str(four), "--jobs", "4"])
    assert one.read_bytes() == four.read_bytes()


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
    vectors = broken / "vectors.bin"
    vectors.write_bytes(vectors.read_bytes()[:32])
    code = main(["classify", "--index", str(broken), "--corpus", str(CORPUS),
                 "--out", str(tmp_path / "o.jsonl")])
    assert code == 2


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


def test_expand_debug_unknown_entity_exits_2(index_dir, capsys):
    code = main(["expand-debug", "--index", str(index_dir),
                 "--entity", "http://example.org/kb/unicorn"])
    assert code == 2
    assert "not indexed" in capsys.readouterr().err


def test_expand_debug_invalid_iri_exits_1(index_dir, capsys):
    code = main(["expand-debug", "--index", str(index_dir), "--entity", "not an iri"])
    assert code == 1
    assert "invalid entity IRI" in capsys.readouterr().err
