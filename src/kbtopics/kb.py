"""In-memory knowledge base: triple parsing, cleaning, and text projection.

Triples are read from a line-oriented N-Triples-compatible subset: IRIs in
angle brackets, literals in double quotes with optional ``@lang`` tag or
``^^<datatype>`` suffix (the datatype is parsed and discarded), a terminating
`` .``, and ``#`` comments. Blank nodes are rejected. Only untagged and
English-tagged literals are kept; literals in other languages are dropped at
load time and counted.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Literal as TypingLiteral

from .errors import ConfigError, DataError, TripleParseError

logger = logging.getLogger(__name__)

# scheme ":" then one or more characters that are neither whitespace nor
# one of <>"{}|^`\ ; "$" also matches before a final newline
_IRI_RE = re.compile(r'^[A-Za-z][A-Za-z0-9+.\-]*:[^\s<>"{}|^`\\]+$')

Direction = TypingLiteral["forward", "inverse"]


class Iri(str):
    """An absolute IRI. Subclasses ``str`` so it sorts, hashes, and
    serializes like one."""

    __slots__ = ()

    def __new__(cls, value: str) -> "Iri":
        if not _IRI_RE.match(value):
            raise ValueError(f"not an absolute IRI: {value!r}")
        return super().__new__(cls, value)

    @property
    def local_name(self) -> str:
        """Tail after the last '#' or '/', for display fallbacks."""
        return re.split(r"[#/]", self)[-1] or str(self)


@dataclass(frozen=True, slots=True)
class Literal:
    text: str
    lang: str | None = None


@dataclass(frozen=True, slots=True)
class Triple:
    subject: Iri
    predicate: Iri
    obj: Iri | Literal

    @property
    def has_iri_object(self) -> bool:
        return isinstance(self.obj, Iri)


@dataclass(frozen=True)
class TextField:
    name: str
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigError(f"text field {self.name!r} needs a positive weight")


@dataclass(frozen=True)
class PropertyRegistry:
    """Declares what each predicate means to the pipeline.

    The three numeric weight families are deliberately separate: full-text
    search weights live in ``text_fields``, traversal base weights in
    ``edge_base_weights``, and parent weights are derived later from link
    counts.
    """

    text_fields: dict[Iri, TextField] = field(default_factory=dict)
    edge_base_weights: dict[Iri, float] = field(default_factory=dict)
    parent_properties: tuple[tuple[Iri, Direction], ...] = ()
    close_match_predicates: frozenset[Iri] = frozenset()
    prune_predicates: frozenset[Iri] = frozenset()
    cross_ref_predicates: frozenset[Iri] = frozenset()
    cross_ref_prefixes: dict[str, str] = field(default_factory=dict)
    cross_ref_target: Iri | None = None

    def __post_init__(self) -> None:
        for pred, w in self.edge_base_weights.items():
            if w <= 0:
                raise ConfigError(f"edge base weight for {pred} must be positive, got {w}")
        for pred, direction in self.parent_properties:
            if direction not in ("forward", "inverse"):
                raise ConfigError(f"parent property {pred}: bad direction {direction!r}")
        if self.cross_ref_predicates and self.cross_ref_target is None:
            raise ConfigError("cross_ref_predicates configured without a cross_ref_target")


@dataclass(frozen=True)
class KnowledgeBase:
    """Deduplicated triple collection, immutable after construction.

    ``from_triples`` builds it in one pass over the triples, which also
    collects ``entities`` (distinct IRIs in subject or object position,
    predicates excluded) and indexes the triples by subject and, for the
    registry's inverse parent properties, by (predicate, IRI object).
    """

    triples: tuple[Triple, ...]
    registry: PropertyRegistry
    entities: frozenset[Iri] = field(repr=False)
    _by_subject: dict[Iri, tuple[Triple, ...]] = field(repr=False)
    _by_object: dict[tuple[Iri, Iri], tuple[Iri, ...]] = field(repr=False)

    @classmethod
    def from_triples(cls, triples: Iterable[Triple], registry: PropertyRegistry) -> "KnowledgeBase":
        unique = tuple(dict.fromkeys(triples))
        by_subject: dict[Iri, list[Triple]] = {}
        by_object: dict[tuple[Iri, Iri], list[Iri]] = {}
        objects: set[Iri] = set()
        inverse = {p for p, d in registry.parent_properties if d == "inverse"}
        for t in unique:
            by_subject.setdefault(t.subject, []).append(t)
            if isinstance(t.obj, Iri):
                objects.add(t.obj)
                if t.predicate in inverse:
                    by_object.setdefault((t.predicate, t.obj), []).append(t.subject)
        return cls(
            unique,
            registry,
            frozenset(objects.union(by_subject)),
            {s: tuple(ts) for s, ts in by_subject.items()},
            {k: tuple(ss) for k, ss in by_object.items()},
        )

    def __len__(self) -> int:
        return len(self.triples)

    def subject_triples(self, entity: Iri) -> tuple[Triple, ...]:
        return self._by_subject.get(entity, ())

    def subjects_with(self, predicate: Iri, obj: Iri) -> tuple[Iri, ...]:
        """Subjects of the triples ``(?, predicate, obj)``, in triple order.

        Only inverse parent properties are indexed; any other predicate
        gives ``()``.
        """
        return self._by_object.get((predicate, obj), ())


# ---------------------------------------------------------------------------
# Triple file parsing
# ---------------------------------------------------------------------------

_ECHAR = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _unescape_literal(raw: str, where: tuple[str, int]) -> str:
    out: list[str] = []
    i = 0
    n = len(raw)
    while i < n:
        c = raw[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        if i + 1 >= n:
            raise TripleParseError("dangling escape in literal", *where)
        e = raw[i + 1]
        if e in _ECHAR:
            out.append(_ECHAR[e])
            i += 2
        elif e == "u" or e == "U":
            width = 4 if e == "u" else 8
            hexpart = raw[i + 2 : i + 2 + width]
            if len(hexpart) != width:
                raise TripleParseError("truncated \\u escape in literal", *where)
            try:
                out.append(chr(int(hexpart, 16)))
            except ValueError:
                raise TripleParseError(f"bad \\u escape {hexpart!r} in literal", *where) from None
            i += 2 + width
        else:
            raise TripleParseError(f"unknown escape \\{e} in literal", *where)
    return "".join(out)


def _take_iri(line: str, pos: int, where: tuple[str, int]) -> tuple[Iri, int]:
    if pos >= len(line) or line[pos] != "<":
        if line[pos : pos + 2] == "_:":
            raise TripleParseError("blank nodes are not supported", *where)
        raise TripleParseError(f"expected IRI at column {pos + 1}", *where)
    end = line.find(">", pos + 1)
    if end < 0:
        raise TripleParseError("unterminated IRI", *where)
    try:
        return Iri(line[pos + 1 : end]), end + 1
    except ValueError as exc:
        raise TripleParseError(str(exc), *where) from None


def _take_literal(line: str, pos: int, where: tuple[str, int]) -> tuple[Literal, int]:
    i = pos + 1
    while i < len(line):
        if line[i] == "\\":
            i += 2
            continue
        if line[i] == '"':
            break
        i += 1
    else:
        raise TripleParseError("unterminated literal", *where)
    text = _unescape_literal(line[pos + 1 : i], where)
    i += 1
    lang: str | None = None
    if line[i : i + 1] == "@":
        m = re.match(r"[A-Za-z]+(-[A-Za-z0-9]+)*", line[i + 1 :])
        if not m:
            raise TripleParseError("malformed language tag", *where)
        lang = m.group(0)
        i += 1 + len(lang)
    elif line[i : i + 2] == "^^":
        _, i = _take_iri(line, i + 2, where)  # datatype parsed then discarded
    return Literal(text, lang), i


def _skip_ws(line: str, pos: int) -> int:
    while pos < len(line) and line[pos] in " \t":
        pos += 1
    return pos


def _english(lang: str | None) -> bool:
    return lang is None or lang.lower() == "en" or lang.lower().startswith("en-")


@dataclass
class LoadStats:
    """Lines left out while reading triple files."""

    skipped_lines: int = 0
    dropped_non_english: int = 0


def parse_triple_line(line: str, path: str = "", lineno: int = 0) -> Triple:
    """Parse a single ``s p o .`` line; raises TripleParseError on anything
    malformed."""
    where = (path, lineno)
    pos = _skip_ws(line, 0)
    subject, pos = _take_iri(line, pos, where)
    pos = _skip_ws(line, pos)
    predicate, pos = _take_iri(line, pos, where)
    pos = _skip_ws(line, pos)
    obj: Iri | Literal
    if pos < len(line) and line[pos] == '"':
        obj, pos = _take_literal(line, pos, where)
    else:
        obj, pos = _take_iri(line, pos, where)
    pos = _skip_ws(line, pos)
    if line[pos:] != ".":
        raise TripleParseError("missing terminating '.'", *where)
    return Triple(subject, predicate, obj)


def iter_triple_file(
    path: str | Path, strict: bool = True, stats: LoadStats | None = None
) -> Iterator[Triple]:
    """Yield triples from a file, dropping non-English literals.

    In strict mode a malformed line aborts with TripleParseError; in lenient
    mode it is skipped and counted.
    """
    path = Path(path)
    try:
        handle = path.open("r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read triple file {path}: {exc}") from exc
    with handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                triple = parse_triple_line(line, str(path), lineno)
            except TripleParseError:
                if strict:
                    raise
                if stats is not None:
                    stats.skipped_lines += 1
                continue
            if isinstance(triple.obj, Literal) and not _english(triple.obj.lang):
                if stats is not None:
                    stats.dropped_non_english += 1
                continue
            yield triple


# ---------------------------------------------------------------------------
# Cleaning operations
# ---------------------------------------------------------------------------

_XREF_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_.\-]*):(\S+)$")


@dataclass
class CrossRefReport:
    converted: int = 0
    unresolved: int = 0


def normalize_cross_refs(kb: KnowledgeBase) -> tuple[KnowledgeBase, CrossRefReport]:
    """Replace ``PREFIX:ID`` reference literals with close-match triples.

    Literals under a cross-reference predicate whose prefix is in the
    configured prefix map become ``(s, cross_ref_target, <ns+id>)``.
    Unresolvable references stay in place and are counted. Idempotent.
    """
    reg = kb.registry
    report = CrossRefReport()
    if not reg.cross_ref_predicates:
        return kb, report
    out: list[Triple] = []
    for t in kb.triples:
        if t.predicate in reg.cross_ref_predicates and isinstance(t.obj, Literal):
            m = _XREF_RE.match(t.obj.text)
            ns = reg.cross_ref_prefixes.get(m.group(1)) if m else None
            if ns is not None:
                try:
                    resolved = Iri(ns + m.group(2))
                except ValueError:
                    report.unresolved += 1
                    out.append(t)
                    continue
                out.append(Triple(t.subject, reg.cross_ref_target, resolved))
                report.converted += 1
                continue
            report.unresolved += 1
        out.append(t)
    if report.unresolved:
        logger.info("cross-ref normalization: %d converted, %d unresolved",
                    report.converted, report.unresolved)
    return KnowledgeBase.from_triples(out, reg), report


def prune_triples(kb: KnowledgeBase) -> tuple[KnowledgeBase, int]:
    """Drop every triple whose predicate is registered for pruning."""
    prune = kb.registry.prune_predicates
    if not prune:
        return kb, 0
    kept = [t for t in kb.triples if t.predicate not in prune]
    removed = len(kb.triples) - len(kept)
    return KnowledgeBase.from_triples(kept, kb.registry), removed


def entity_texts(kb: KnowledgeBase, entity: Iri) -> list[tuple[str, str, float]]:
    """All registered text-field literals of an entity.

    Returns (field_name, text, search_weight) tuples ordered by field name
    then text; unknown entities yield an empty list.
    """
    fields = kb.registry.text_fields
    rows = [
        (fields[t.predicate].name, t.obj.text, fields[t.predicate].weight)
        for t in kb.subject_triples(entity)
        if isinstance(t.obj, Literal) and t.predicate in fields
    ]
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows
