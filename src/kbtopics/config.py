"""YAML configuration loading with strict schema validation.

One file drives both index building and classification. Every section maps
onto a parameter dataclass; unknown keys anywhere are rejected so typos fail
loudly instead of silently running on defaults. Relative paths are resolved
against the config file's directory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

import yaml

from .coherence import CoherenceParams
from .edges import EdgeWeightParams
from .errors import ConfigError
from .expansion import ExpansionParams
from .index import ParentParams
from .kb import Iri, PropertyRegistry, TextField
from .ranking import RankingParams
from .selection import SelectionParams
from .vectors import NGRAM_SIZES


@dataclass(frozen=True)
class KbSource:
    paths: tuple[Path, ...] = ()
    lenient: bool = False


@dataclass(frozen=True)
class RetrievalParams:
    k: int = 30
    label_field: str = "label"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"retrieval k must be at least 1, got {self.k}")
        if not self.label_field:
            raise ConfigError("label_field must be non-empty")


@dataclass(frozen=True)
class AppConfig:
    kb: KbSource = field(default_factory=KbSource)
    registry: PropertyRegistry = field(default_factory=PropertyRegistry)
    edge_weights: EdgeWeightParams = field(default_factory=EdgeWeightParams)
    expansion: ExpansionParams = field(default_factory=ExpansionParams)
    parents: ParentParams = field(default_factory=ParentParams)
    embedding_file: Path | None = None
    ngram_sizes: tuple[int, ...] = NGRAM_SIZES
    ranking: RankingParams = field(default_factory=RankingParams)
    coherence: CoherenceParams = field(default_factory=CoherenceParams)
    selection: SelectionParams = field(default_factory=SelectionParams)
    retrieval: RetrievalParams = field(default_factory=RetrievalParams)

    def config_hash(self) -> str:
        blob = json.dumps(to_dict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _require_mapping(value: Any, context: str) -> Mapping[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be a mapping, got {type(value).__name__}")
    for key in value:
        if not isinstance(key, str):
            raise ConfigError(f"{context} has a non-string key {key!r}")
    return value


def _reject_unknown(d: Mapping[str, Any], allowed: set[str], context: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {unknown}")


def _get_bool(d: Mapping[str, Any], key: str, default: bool, context: str) -> bool:
    value = d.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{context}.{key} must be a boolean, got {value!r}")
    return value


def _real(value: Any, name: str) -> float:
    """``value`` as a float; ``name`` is its key in error messages."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value != value:  # NaN
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is too large for a float") from None


def _get_real(d: Mapping[str, Any], key: str, default: float, context: str) -> float:
    return _real(d.get(key, default), f"{context}.{key}")


def _get_int(d: Mapping[str, Any], key: str, default: int, context: str) -> int:
    value = d.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{context}.{key} must be an integer, got {value!r}")
    return value


def _get_str(d: Mapping[str, Any], key: str, default: str, context: str) -> str:
    value = d.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{context}.{key} must be a string, got {value!r}")
    return value


# The flat parameter sections, each the AppConfig field of the same name.
# A section accepts exactly its dataclass's fields; each value is read by
# the getter for the field's type, with the field's default.
_SECTIONS: dict[str, type] = {
    "edge_weights": EdgeWeightParams,
    "expansion": ExpansionParams,
    "parents": ParentParams,
    "ranking": RankingParams,
    "coherence": CoherenceParams,
    "selection": SelectionParams,
    "retrieval": RetrievalParams,
}
_GETTERS = {"float": _get_real, "int": _get_int, "bool": _get_bool, "str": _get_str}
_TOP_KEYS = {"kb", "registry", "encoder", *_SECTIONS}


def _get_iri(value: Any, context: str) -> Iri:
    if not isinstance(value, str):
        raise ConfigError(f"{context} must be an IRI string, got {value!r}")
    try:
        return Iri(value)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _get_str_list(d: Mapping[str, Any], key: str, context: str) -> list[str]:
    value = d.get(key, [])
    if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
        raise ConfigError(f"{context}.{key} must be a list of strings")
    return value


def _parse_registry(raw: Mapping[str, Any], context: str) -> PropertyRegistry:
    allowed = {
        "text_fields", "edge_base_weights", "parent_properties",
        "close_match_predicates", "prune_predicates", "cross_refs",
    }
    _reject_unknown(raw, allowed, context)

    text_fields: dict[Iri, TextField] = {}
    for pred, spec in _require_mapping(raw.get("text_fields"), f"{context}.text_fields").items():
        fctx = f"{context}.text_fields[{pred}]"
        spec = _require_mapping(spec, fctx)
        _reject_unknown(spec, {"name", "search_weight"}, fctx)
        if "name" not in spec:
            raise ConfigError(f"{fctx}: missing name")
        text_fields[_get_iri(pred, fctx)] = TextField(
            name=_get_str(spec, "name", "", fctx),
            weight=_get_real(spec, "search_weight", 1.0, fctx),
        )

    edge_base_weights: dict[Iri, float] = {}
    for pred, w in _require_mapping(
        raw.get("edge_base_weights"), f"{context}.edge_base_weights"
    ).items():
        ectx = f"{context}.edge_base_weights[{pred}]"
        edge_base_weights[_get_iri(pred, ectx)] = _real(w, ectx)

    parent_properties: list[tuple[Iri, str]] = []
    raw_parents = raw.get("parent_properties", [])
    if not isinstance(raw_parents, list):
        raise ConfigError(f"{context}.parent_properties must be a list")
    for i, entry in enumerate(raw_parents):
        pctx = f"{context}.parent_properties[{i}]"
        entry = _require_mapping(entry, pctx)
        _reject_unknown(entry, {"predicate", "direction"}, pctx)
        direction = _get_str(entry, "direction", "forward", pctx)
        parent_properties.append((_get_iri(entry.get("predicate"), pctx), direction))

    cross_refs = _require_mapping(raw.get("cross_refs"), f"{context}.cross_refs")
    _reject_unknown(cross_refs, {"predicates", "prefixes", "target"}, f"{context}.cross_refs")
    prefixes = {}
    for prefix, ns in _require_mapping(
        cross_refs.get("prefixes"), f"{context}.cross_refs.prefixes"
    ).items():
        if not isinstance(ns, str):
            raise ConfigError(f"{context}.cross_refs.prefixes[{prefix}] must be a string")
        prefixes[prefix] = ns
    target = cross_refs.get("target")

    return PropertyRegistry(
        text_fields=text_fields,
        edge_base_weights=edge_base_weights,
        parent_properties=tuple(parent_properties),
        close_match_predicates=frozenset(
            _get_iri(v, f"{context}.close_match_predicates")
            for v in _get_str_list(raw, "close_match_predicates", context)
        ),
        prune_predicates=frozenset(
            _get_iri(v, f"{context}.prune_predicates")
            for v in _get_str_list(raw, "prune_predicates", context)
        ),
        cross_ref_predicates=frozenset(
            _get_iri(v, f"{context}.cross_refs.predicates")
            for v in _get_str_list(cross_refs, "predicates", f"{context}.cross_refs")
        ),
        cross_ref_prefixes=prefixes,
        cross_ref_target=None if target is None else _get_iri(target, f"{context}.cross_refs.target"),
    )


def _resolve(path_str: str, base: Path) -> Path:
    p = Path(path_str)
    return p if p.is_absolute() else (base / p).resolve()


def parse_config(data: Mapping[str, Any], base_dir: Path) -> AppConfig:
    data = _require_mapping(data, "config")
    _reject_unknown(data, _TOP_KEYS, "config")
    try:
        kb_raw = _require_mapping(data.get("kb"), "kb")
        _reject_unknown(kb_raw, {"paths", "lenient"}, "kb")
        kb = KbSource(
            paths=tuple(_resolve(p, base_dir) for p in _get_str_list(kb_raw, "paths", "kb")),
            lenient=_get_bool(kb_raw, "lenient", False, "kb"),
        )

        registry = _parse_registry(_require_mapping(data.get("registry"), "registry"), "registry")

        enc = _require_mapping(data.get("encoder"), "encoder")
        _reject_unknown(enc, {"embedding_file", "ngram_sizes"}, "encoder")
        embedding_file = None
        if "embedding_file" in enc:
            embedding_file = _resolve(
                _get_str(enc, "embedding_file", "", "encoder"), base_dir
            )
        sizes_raw = enc.get("ngram_sizes", list(NGRAM_SIZES))
        if (
            not isinstance(sizes_raw, list)
            or not sizes_raw
            or any(isinstance(s, bool) or not isinstance(s, int) or s < 1 for s in sizes_raw)
        ):
            raise ConfigError("encoder.ngram_sizes must be a non-empty list of positive integers")

        sections = {}
        for name, params in _SECTIONS.items():
            raw = _require_mapping(data.get(name), name)
            _reject_unknown(raw, {f.name for f in fields(params)}, name)
            sections[name] = params(**{
                f.name: _GETTERS[f.type](raw, f.name, f.default, name) for f in fields(params)
            })
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    return AppConfig(
        kb=kb,
        registry=registry,
        embedding_file=embedding_file,
        ngram_sizes=tuple(sizes_raw),
        **sections,
    )


def load_config(path: str | Path) -> AppConfig:
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = yaml.safe_load(raw)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an integer too long to convert
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    if data is None:
        data = {}
    return parse_config(data, path.parent.resolve())


def to_dict(config: AppConfig) -> dict[str, Any]:
    """Plain-data form of a config; parse_config inverts it exactly.

    Paths come out absolute, so the dict is location-independent."""
    reg = config.registry
    out: dict[str, Any] = {
        "kb": {
            "paths": [str(p) for p in config.kb.paths],
            "lenient": config.kb.lenient,
        },
        "registry": {
            "text_fields": {
                str(pred): {"name": tf.name, "search_weight": tf.weight}
                for pred, tf in sorted(reg.text_fields.items())
            },
            "edge_base_weights": {
                str(pred): w for pred, w in sorted(reg.edge_base_weights.items())
            },
            "parent_properties": [
                {"predicate": str(pred), "direction": direction}
                for pred, direction in reg.parent_properties
            ],
            "close_match_predicates": sorted(str(p) for p in reg.close_match_predicates),
            "prune_predicates": sorted(str(p) for p in reg.prune_predicates),
            "cross_refs": {
                "predicates": sorted(str(p) for p in reg.cross_ref_predicates),
                "prefixes": dict(sorted(reg.cross_ref_prefixes.items())),
                "target": None if reg.cross_ref_target is None else str(reg.cross_ref_target),
            },
        },
        "encoder": {
            "ngram_sizes": list(config.ngram_sizes),
        },
        **{name: asdict(getattr(config, name)) for name in _SECTIONS},
    }
    if config.embedding_file is not None:
        out["encoder"]["embedding_file"] = str(config.embedding_file)
    return out


def dump_config(config: AppConfig) -> str:
    return yaml.safe_dump(to_dict(config), sort_keys=True, allow_unicode=True)
