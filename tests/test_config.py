"""Config parsing: defaults, strict schema, path resolution, round-trips."""

import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest
import yaml

from kbtopics.config import (
    _GETTERS,
    _SECTIONS,
    AppConfig,
    dump_config,
    load_config,
    parse_config,
    to_dict,
)
from kbtopics.errors import ConfigError

DATA = Path(__file__).resolve().parents[1] / "data"
REFERENCE = DATA / "reference_config.yaml"


def test_empty_mapping_gives_all_defaults(tmp_path):
    cfg = parse_config({}, tmp_path)
    assert cfg.kb.paths == ()
    assert cfg.kb.lenient is False
    assert cfg.embedding_file is None
    assert cfg.ngram_sizes == (3, 4)
    assert cfg.edge_weights.f_l == 0.5
    assert cfg.edge_weights.f_g == 0.5
    assert cfg.edge_weights.c_max == 4
    assert cfg.edge_weights.default_base_weight == 2.0
    assert cfg.expansion.max_depth == 3
    assert cfg.expansion.max_distance == 4.0
    assert cfg.expansion.max_neighbors == 512
    assert cfg.parents.alpha == 0.3
    assert cfg.ranking.w_l == 1.0
    assert cfg.ranking.w_sm == 1.0
    assert cfg.ranking.w_sc == 0.5
    assert cfg.ranking.alpha == 4.0
    assert cfg.ranking.beta == 8.0
    assert cfg.coherence.top_m_per_mention == 3
    assert cfg.coherence.min_keep == 1
    assert cfg.coherence.gamma == 0.25
    assert cfg.coherence.prune_fraction == 0.5
    assert cfg.coherence.enabled is True
    assert cfg.selection.lambda_diversity == 0.2
    assert cfg.selection.kneedle_sensitivity == 1.0
    assert cfg.selection.min_topics == 3
    assert cfg.selection.include_parents is True
    assert cfg.retrieval.k == 30
    assert cfg.retrieval.label_field == "label"


def test_empty_yaml_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = load_config(path)
    assert cfg == parse_config({}, tmp_path)


def test_reference_config_loads():
    cfg = load_config(REFERENCE)
    assert len(cfg.kb.paths) == 1
    assert cfg.kb.paths[0].is_absolute()
    assert cfg.kb.paths[0].exists()
    assert cfg.embedding_file is not None and cfg.embedding_file.exists()
    label = next(
        tf for tf in cfg.registry.text_fields.values() if tf.name == "label"
    )
    assert label.weight == 2.0
    assert len(cfg.registry.parent_properties) == 2
    assert cfg.registry.cross_ref_prefixes == {"MSH": "http://example.org/mesh/"}


def test_non_mapping_config_rejected(tmp_path):
    with pytest.raises(ConfigError, match="mapping"):
        parse_config(["not", "a", "mapping"], tmp_path)


def test_unknown_top_level_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown keys.*typo"):
        parse_config({"typo": {}}, tmp_path)


@pytest.mark.parametrize(
    "section",
    [
        "kb", "registry", "edge_weights", "expansion", "parents",
        "encoder", "ranking", "coherence", "selection", "retrieval",
    ],
)
def test_unknown_nested_key_rejected(tmp_path, section):
    with pytest.raises(ConfigError, match=section):
        parse_config({section: {"bogus_key": 1}}, tmp_path)


def test_unknown_text_field_key_rejected(tmp_path):
    data = {
        "registry": {
            "text_fields": {
                "http://example.org/p": {"name": "label", "rank": 2}
            }
        }
    }
    with pytest.raises(ConfigError, match="rank"):
        parse_config(data, tmp_path)


def test_text_field_requires_name(tmp_path):
    data = {"registry": {"text_fields": {"http://example.org/p": {"search_weight": 1.0}}}}
    with pytest.raises(ConfigError, match="missing name"):
        parse_config(data, tmp_path)


def test_unknown_parent_property_key_rejected(tmp_path):
    data = {
        "registry": {
            "parent_properties": [
                {"predicate": "http://example.org/p", "mode": "forward"}
            ]
        }
    }
    with pytest.raises(ConfigError, match="mode"):
        parse_config(data, tmp_path)


def test_parent_direction_defaults_to_forward(tmp_path):
    data = {"registry": {"parent_properties": [{"predicate": "http://example.org/p"}]}}
    cfg = parse_config(data, tmp_path)
    assert cfg.registry.parent_properties[0][1] == "forward"


def test_bad_parent_direction_rejected(tmp_path):
    data = {
        "registry": {
            "parent_properties": [
                {"predicate": "http://example.org/p", "direction": "sideways"}
            ]
        }
    }
    with pytest.raises(ConfigError, match="sideways"):
        parse_config(data, tmp_path)


def test_cross_refs_without_target_rejected(tmp_path):
    data = {"registry": {"cross_refs": {"predicates": ["http://example.org/x"]}}}
    with pytest.raises(ConfigError, match="target"):
        parse_config(data, tmp_path)


def test_invalid_iri_rejected(tmp_path):
    data = {"registry": {"edge_base_weights": {"not an iri": 1.0}}}
    with pytest.raises(ConfigError):
        parse_config(data, tmp_path)


def test_iri_with_final_newline_rejected(tmp_path):
    data = {"registry": {"edge_base_weights": {"http://example.org/p\n": 1.0}}}
    with pytest.raises(ConfigError, match="not an absolute IRI"):
        parse_config(data, tmp_path)


def test_negative_edge_base_weight_rejected(tmp_path):
    data = {"registry": {"edge_base_weights": {"http://example.org/p": -1.0}}}
    with pytest.raises(ConfigError, match="positive"):
        parse_config(data, tmp_path)


@pytest.mark.parametrize(
    "data, fragment",
    [
        ({"ranking": {"w_l": "heavy"}}, "ranking.w_l"),
        ({"ranking": {"beta": 0}}, "beta"),
        ({"coherence": {"enabled": 1}}, "coherence.enabled"),
        ({"coherence": {"prune_fraction": 1.0}}, "prune_fraction"),
        ({"edge_weights": {"c_max": 1.5}}, "edge_weights.c_max"),
        ({"edge_weights": {"c_max": True}}, "edge_weights.c_max"),
        ({"edge_weights": {"memory_budget": 1_000_000}}, "memory_budget"),
        ({"kb": {"paths": "single.nt"}}, "kb.paths"),
        ({"kb": {"lenient": "yes"}}, "kb.lenient"),
        ({"encoder": {"ngram_sizes": []}}, "ngram_sizes"),
        ({"encoder": {"ngram_sizes": [0]}}, "ngram_sizes"),
        ({"encoder": {"ngram_sizes": [3, True]}}, "ngram_sizes"),
        ({"retrieval": {"k": 0}}, "k"),
        ({"retrieval": {"label_field": ""}}, "label_field"),
        ({"selection": {"min_topics": -1}}, "min_topics"),
        ({"expansion": {"max_depth": -1}}, "max_depth"),
        ({"parents": {"alpha": "strong"}}, "parents.alpha"),
    ],
)
def test_bad_values_rejected(tmp_path, data, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(data, tmp_path)


NAN, INF = float("nan"), float("inf")
P = "http://example.org/p"


@pytest.mark.parametrize(
    "data, fragment",
    [
        ({"registry": {"edge_base_weights": {P: NAN}}}, "edge_base_weights"),
        ({"registry": {"edge_base_weights": {P: INF}}}, "edge base weight"),
        ({"registry": {"text_fields": {P: {"name": "label", "search_weight": NAN}}}},
         "search_weight"),
        ({"registry": {"text_fields": {P: {"name": "label", "search_weight": INF}}}},
         "finite weight"),
        ({"edge_weights": {"default_base_weight": NAN}}, "default_base_weight"),
        ({"edge_weights": {"default_base_weight": INF}}, "default base weight"),
        ({"edge_weights": {"f_l": NAN}}, "f_l"),
        ({"edge_weights": {"f_g": NAN}}, "f_g"),
        ({"expansion": {"max_distance": NAN}}, "max_distance"),
        ({"ranking": {"w_l": NAN}}, "w_l"),
        ({"ranking": {"alpha": NAN}}, "alpha"),
        ({"ranking": {"w_l": INF}}, "ranking w_l must be finite"),
        ({"ranking": {"w_sm": INF}}, "ranking w_sm must be finite"),
        ({"ranking": {"w_sc": INF}}, "ranking w_sc must be finite"),
        ({"ranking": {"alpha": INF}}, "ranking alpha must be finite"),
        ({"ranking": {"alpha": -INF}}, "ranking alpha must be finite"),
        ({"ranking": {"beta": INF}}, "ranking beta must be finite"),
    ],
)
def test_non_finite_numbers_rejected(tmp_path, data, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(data, tmp_path)


@pytest.mark.parametrize("value", [".nan", ".inf"])
def test_yaml_non_finite_edge_base_weight_exits_1(tmp_path, capsys, value):
    from kbtopics.cli import main
    path = tmp_path / "c.yaml"
    path.write_text(f"registry:\n  edge_base_weights:\n    {P}: {value}\n", encoding="utf-8")
    assert main(["build-index", "--config", str(path), "--out", str(tmp_path / "i")]) == 1
    assert "edge" in capsys.readouterr().err


def test_infinite_max_distance_accepted(tmp_path):
    cfg = parse_config({"expansion": {"max_distance": INF}}, tmp_path)
    assert cfg.expansion.max_distance == INF


def test_yaml_infinite_ranking_beta_exits_1(tmp_path, capsys):
    from kbtopics.cli import main
    path = tmp_path / "c.yaml"
    path.write_text("ranking:\n  beta: .inf\n", encoding="utf-8")
    assert main(["build-index", "--config", str(path), "--out", str(tmp_path / "i")]) == 1
    assert capsys.readouterr().err == "error: ranking beta must be finite, got inf\n"


# A value of the wrong type for each field type the section getters read.
WRONG_TYPE = {"float": "x", "int": 1.5, "bool": 1, "str": 1}
SECTION_FIELDS = [(name, f) for name, params in _SECTIONS.items() for f in fields(params)]


@pytest.mark.parametrize("section, field", SECTION_FIELDS,
                         ids=[f"{name}.{f.name}" for name, f in SECTION_FIELDS])
def test_wrong_type_names_section_and_field(tmp_path, section, field):
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{field.name} must be")):
        parse_config({section: {field.name: WRONG_TYPE[field.type]}}, tmp_path)


FLOAT_FIELDS = [(name, f) for name, f in SECTION_FIELDS if f.type == "float"]
HUGE = 10**400  # a YAML integer of 401 digits, beyond any float


@pytest.mark.parametrize("section, field", FLOAT_FIELDS,
                         ids=[f"{name}.{f.name}" for name, f in FLOAT_FIELDS])
def test_integer_beyond_float_names_section_and_field(tmp_path, section, field):
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{field.name} is too large")):
        parse_config({section: {field.name: HUGE}}, tmp_path)


@pytest.mark.parametrize("data, key", [
    ({"registry": {"edge_base_weights": {P: HUGE}}}, f"registry.edge_base_weights[{P}]"),
    ({"registry": {"text_fields": {P: {"name": "label", "search_weight": HUGE}}}},
     f"registry.text_fields[{P}].search_weight"),
], ids=["edge_base_weight", "search_weight"])
def test_registry_integer_beyond_float_names_its_key(tmp_path, data, key):
    with pytest.raises(ConfigError, match=re.escape(f"{key} is too large")):
        parse_config(data, tmp_path)


def test_yaml_integer_beyond_float_exits_1(tmp_path, capsys):
    from kbtopics.cli import main
    path = tmp_path / "c.yaml"
    path.write_text(f"ranking:\n  w_l: {HUGE}\n", encoding="utf-8")
    assert main(["build-index", "--config", str(path), "--out", str(tmp_path / "i")]) == 1
    assert capsys.readouterr().err == "error: ranking.w_l is too large for a float\n"


def test_every_section_field_has_a_getter_and_a_plain_default():
    assert set(WRONG_TYPE) == set(_GETTERS)
    for _, f in SECTION_FIELDS:
        assert f.type in _GETTERS
        assert f.default is not MISSING and f.default_factory is MISSING


def test_reference_config_writes_out_every_section_default():
    raw = yaml.safe_load(REFERENCE.read_text(encoding="utf-8"))
    for name, params in _SECTIONS.items():
        want = {f.name: f.default for f in fields(params)}
        assert raw[name] == want
        assert {k: type(v) for k, v in raw[name].items()} == {k: type(v) for k, v in want.items()}


def test_relative_paths_resolve_against_config_dir(tmp_path):
    sub = tmp_path / "conf"
    sub.mkdir()
    path = sub / "app.yaml"
    path.write_text(
        "kb:\n  paths:\n    - kb.nt\nencoder:\n  embedding_file: emb.txt\n"
    )
    cfg = load_config(path)
    assert cfg.kb.paths[0] == (sub / "kb.nt").resolve()
    assert cfg.embedding_file == (sub / "emb.txt").resolve()


def test_absolute_paths_kept(tmp_path):
    cfg = parse_config({"kb": {"paths": ["/somewhere/kb.nt"]}}, tmp_path)
    assert cfg.kb.paths[0] == Path("/somewhere/kb.nt")


def test_missing_file_raises_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.yaml")


def test_invalid_yaml_raises_config_error(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("kb: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(path)


@pytest.mark.parametrize("content, fragment", [
    (b"ranking:\n  w_l: \xff\n", "cannot read config"),
    (b"ranking:\n  w_l: 1" + b"0" * 5000 + b"\n", "invalid YAML"),
], ids=["not-utf8", "5001-digit-integer"])
def test_undecodable_config_raises_config_error(tmp_path, content, fragment):
    path = tmp_path / "c.yaml"
    path.write_bytes(content)
    with pytest.raises(ConfigError, match=fragment):
        load_config(path)


def test_round_trip_through_dump(tmp_path):
    cfg = load_config(REFERENCE)
    dumped = dump_config(cfg)
    # the dump uses absolute paths, so it can be parsed from anywhere
    cfg2 = parse_config(yaml.safe_load(dumped), tmp_path)
    assert to_dict(cfg2) == to_dict(cfg)
    assert cfg2.config_hash() == cfg.config_hash()


def test_config_hash_stable_across_reloads():
    assert load_config(REFERENCE).config_hash() == load_config(REFERENCE).config_hash()


def test_config_hash_sensitive_to_values(tmp_path):
    base = parse_config({}, tmp_path)
    tweaked = parse_config({"ranking": {"beta": 9.0}}, tmp_path)
    assert base.config_hash() != tweaked.config_hash()


def test_default_config_hash_is_sha256_hex(tmp_path):
    digest = AppConfig().config_hash()
    assert len(digest) == 64
    assert set(digest) <= set("0123456789abcdef")
