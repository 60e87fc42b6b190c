"""In-memory knowledge base: triple parsing, cleaning, and text projection.

Triples are read from a line-oriented N-Triples-compatible subset: IRIs in
angle brackets, literals in double quotes with optional ``@lang`` tag or
``^^<datatype>`` suffix (the datatype is parsed and discarded), a terminating
`` .``, and ``#`` comments. Blank nodes are rejected. Only untagged and
English-tagged literals are kept; literals in other languages are dropped at
load time and counted.

A line is first matched whole by one pattern for the common shapes (three
IRIs, or two IRIs and a literal with no backslash), whose strings go to the
KB tables as they are. Any other line (escapes, invalid UTF-8, blank nodes,
bad IRIs or tags) goes to the character parser, which gives every error.

The parsed triples are interned once into a ``KnowledgeBase`` of integer id
arrays, which numbers the entities in sorted IRI order. Cross-reference
normalization and pruning are array operations that give a new one, and
the text projection reads every entity's texts in one pass over it.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Iterable, Iterator, Literal as TypingLiteral, NamedTuple

import numpy as np

from .errors import ConfigError, DataError, TripleParseError

logger = logging.getLogger(__name__)

# scheme ":" then one or more characters that are neither whitespace, a
# lone surrogate (not a character) nor one of <>"{}|^`\
_IRI = r'[A-Za-z][A-Za-z0-9+.\-]*:[^\s<>"{}|^`\\\ud800-\udfff]+'
_IRI_RE = re.compile(_IRI)
_IRI_LINES_RE = re.compile(f"(?:{_IRI}\n)*")
_LANG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
# a whole line of a common shape: groups subject, predicate, then object IRI
# or literal text and language tag; a datatype is matched and discarded
_LINE_RE = re.compile(rf'<({_IRI})>[ \t]*<({_IRI})>[ \t]*(?:<({_IRI})>|'
                      rf'"([^"\\\ud800-\udfff]*)"(?:@({_LANG})|\^\^<{_IRI}>)?)[ \t]*\.')

_SURROGATE_RE = re.compile("[\ud800-\udfff]")
# the character parser's pieces: a quoted literal (escapes skipped whole);
# one escape in it (\u and four characters, fewer only at the end; \U and
# eight; any other character; or the end; each kind in its own group); a
# language tag; a run of spaces and tabs
_QUOTED_RE = re.compile(r'"((?:[^"\\]|\\.)*)"', re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(?:u(.{0,4})|U(.{0,8})|(.)|$)", re.DOTALL)
_LANG_RE = re.compile(_LANG)
_WS_RE = re.compile(r"[ \t]*")

Direction = TypingLiteral["forward", "inverse"]


class Iri(str):
    """An absolute IRI. Subclasses ``str`` so it sorts, hashes, and
    serializes like one."""

    __slots__ = ()

    def __new__(cls, value: str) -> "Iri":
        if not _IRI_RE.fullmatch(value):
            raise ValueError(f"not an absolute IRI: {value!r}")
        return super().__new__(cls, value)

    @property
    def local_name(self) -> str:
        """Tail after the last '#' or '/', for display fallbacks."""
        return re.split(r"[#/]", self)[-1] or str(self)


def check_iris(names: list[str]) -> None:
    """ValueError, with ``Iri``'s message for the first invalid name, unless
    every name is an absolute IRI; one pattern match over all of them."""
    joined = "\n".join([*names, ""])
    # a name that holds a newline would pass as two
    if joined.count("\n") != len(names) or not _IRI_LINES_RE.fullmatch(joined):
        for name in names:
            Iri(name)


class Literal(NamedTuple):
    text: str
    lang: str | None = None


class Triple(NamedTuple):
    subject: Iri
    predicate: Iri
    obj: Iri | Literal


@dataclass(frozen=True)
class TextField:
    name: str
    weight: float

    def __post_init__(self) -> None:
        if not 0 < self.weight < math.inf:
            raise ConfigError(
                f"text field {self.name!r} needs a positive finite weight, got {self.weight}")


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
            if not 0 < w < math.inf:
                raise ConfigError(
                    f"edge base weight for {pred} must be positive and finite, got {w}")
        for pred, direction in self.parent_properties:
            if direction not in ("forward", "inverse"):
                raise ConfigError(f"parent property {pred}: bad direction {direction!r}")
        if self.cross_ref_predicates and self.cross_ref_target is None:
            raise ConfigError("cross_ref_predicates configured without a cross_ref_target")


@dataclass(frozen=True, eq=False)
class KnowledgeBase:
    """Distinct triples as three id arrays, in the order they first occurred.

    Triple i is ``(entities[subject_ids[i]], predicates[predicate_ids[i]],
    o)``: o is ``entities[object_ids[i]]`` if ``object_ids[i] >= 0``, else
    the literal ``literals[~object_ids[i]]`` (a literal is its text and
    language tag). ``entities``, the IRIs in subject or object position, are
    sorted: this numbering, the only one, is what edges, expansion and
    parents use, and ids compare as IRIs do.
    """

    registry: PropertyRegistry
    entities: list[Iri]
    predicates: list[Iri]
    literals: list[Literal]
    subject_ids: np.ndarray  # int64, as are the other two
    predicate_ids: np.ndarray
    object_ids: np.ndarray

    @classmethod
    def intern(cls, triples: Iterable[tuple], registry: PropertyRegistry) -> "KnowledgeBase":
        """The KB of the ``(subject, predicate, object)`` tuples, read in one
        pass; an object is an IRI string or a ``(text, lang)`` tuple."""
        iris: dict[str, int] = {}
        predicates: dict[str, int] = {}
        literals: dict[tuple[str, str | None], int] = {}
        ids: list[int] = []
        for s, p, o in triples:
            ids += (iris.setdefault(s, len(iris)), predicates.setdefault(p, len(predicates)),
                    ~literals.setdefault(o, len(literals)) if isinstance(o, tuple)
                    else iris.setdefault(o, len(iris)))
        s, p, o = np.array(ids, dtype=np.int64).reshape(-1, 3).T
        return cls._of(registry, [Iri(n) for n in iris], [Iri(q) for q in predicates],
                       [Literal(*lit) for lit in literals], s, p, o)

    @classmethod
    def _of(cls, registry: PropertyRegistry, names: list[Iri], predicates: list[Iri],
            literals: list[Literal], s: np.ndarray, p: np.ndarray, o: np.ndarray):
        """The KB of the id triples over ``names`` (in any order, repeats and
        unused names allowed): entities renumbered, first occurrences kept."""
        entities = sorted({names[i] for i in set(s.tolist()).union(o[o >= 0].tolist())})
        position = dict(zip(entities, range(len(entities))))
        new_id = np.array([position.get(name, -1) for name in names], dtype=np.int64)
        s, o = new_id[s], np.where(o >= 0, new_id[np.maximum(o, 0)], o)
        order = np.lexsort((o, p, s))  # stable: equal triples stay in order
        spo = np.stack((s, p, o))[:, order]
        first = np.ones(order.shape[0], dtype=bool)
        first[1:] = np.any(spo[:, 1:] != spo[:, :-1], axis=0)
        keep = np.sort(order[first])
        return cls(registry, entities, predicates, literals, s[keep], p[keep], o[keep])

    def __len__(self) -> int:
        return self.subject_ids.shape[0]

    def with_predicate(self, predicates: Collection[Iri]) -> np.ndarray:
        """Per triple, whether its predicate is one of ``predicates``."""
        return np.array([q in predicates for q in self.predicates], dtype=bool)[self.predicate_ids]


# ---------------------------------------------------------------------------
# Triple file parsing
# ---------------------------------------------------------------------------

_ECHAR = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _unescape_literal(raw: str, where: tuple[str, int]) -> str:
    def unescape(m: re.Match) -> str:
        kind = m.lastindex  # 1 \u, 2 \U, 3 another character, None the end
        if kind is None:
            raise TripleParseError("dangling escape in literal", *where)
        if kind == 3:
            if m.group(3) not in _ECHAR:
                raise TripleParseError(f"unknown escape \\{m.group(3)} in literal", *where)
            return _ECHAR[m.group(3)]
        hexpart = m.group(kind)
        if len(hexpart) != 4 * kind:
            raise TripleParseError("truncated \\u escape in literal", *where)
        try:
            code = int(hexpart, 16)
            char = chr(code)
        except ValueError:
            raise TripleParseError(f"bad \\u escape {hexpart!r} in literal", *where) from None
        if 0xD800 <= code <= 0xDFFF:
            raise TripleParseError(
                f"\\u escape {hexpart!r} in literal is a surrogate, not a character", *where)
        return char

    return _ESCAPE_RE.sub(unescape, raw)


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
    m = _QUOTED_RE.match(line, pos)
    if not m:
        raise TripleParseError("unterminated literal", *where)
    text, i = _unescape_literal(m.group(1), where), m.end()
    lang: str | None = None
    if line[i : i + 1] == "@":
        m = _LANG_RE.match(line, i + 1)
        if not m:
            raise TripleParseError("malformed language tag", *where)
        lang, i = m.group(0), m.end()
    elif line[i : i + 2] == "^^":
        _, i = _take_iri(line, i + 2, where)  # datatype parsed then discarded
    return Literal(text, lang), i


def _skip_ws(line: str, pos: int) -> int:
    return _WS_RE.match(line, pos).end()


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
    if _SURROGATE_RE.search(line):  # what undecodable bytes were read as
        raise TripleParseError("not valid UTF-8", *where)
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
) -> Iterator[tuple]:
    """Yield a file's triples as ``KnowledgeBase.intern`` takes them,
    dropping non-English literals: plain strings where the line pattern
    matches, else the character parser's ``Triple``.

    In strict mode a malformed line, or one that is not valid UTF-8, aborts
    with a DataError naming the file and line (TripleParseError for a
    malformed triple); in lenient mode it is skipped and counted.
    """
    path = Path(path)
    try:
        # undecodable bytes become lone surrogates, which valid UTF-8 never
        # decodes to, so that the line holding them is known
        handle = path.open("r", encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise DataError(f"cannot read triple file {path}: {exc}") from exc
    with handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if m := _LINE_RE.fullmatch(line):
                s, p, o, text, lang = m.groups()
                triple = (s, p, o or (text, lang))
            elif not line or line.startswith("#"):
                continue
            else:
                try:
                    triple = parse_triple_line(line, str(path), lineno)
                except TripleParseError:
                    if strict:
                        raise
                    if stats is not None:
                        stats.skipped_lines += 1
                    continue
            if isinstance(triple[2], tuple) and not _english(triple[2][1]):
                if stats is not None:
                    stats.dropped_non_english += 1
                continue
            yield triple


# ---------------------------------------------------------------------------
# Cleaning operations
# ---------------------------------------------------------------------------

_XREF_RE = re.compile(r"([A-Za-z][A-Za-z0-9_.\-]*):(\S+)")


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
    predicates = list(dict.fromkeys(kb.predicates + [reg.cross_ref_target]))
    target = predicates.index(reg.cross_ref_target)
    names = list(kb.entities)  # then each resolved IRI; _of merges repeats
    p, o = kb.predicate_ids.copy(), kb.object_ids.copy()
    for i in np.flatnonzero(kb.with_predicate(reg.cross_ref_predicates) & (o < 0)).tolist():
        m = _XREF_RE.fullmatch(kb.literals[~o[i]].text)
        ns = reg.cross_ref_prefixes.get(m.group(1)) if m else None
        try:
            resolved = None if ns is None else Iri(ns + m.group(2))
        except ValueError:
            resolved = None
        if resolved is None:
            report.unresolved += 1
            continue
        names.append(resolved)
        p[i], o[i] = target, len(names) - 1
        report.converted += 1
    if report.unresolved:
        logger.info("cross-ref normalization: %d converted, %d unresolved",
                    report.converted, report.unresolved)
    return KnowledgeBase._of(reg, names, predicates, kb.literals, kb.subject_ids, p, o), report


def prune_triples(kb: KnowledgeBase) -> tuple[KnowledgeBase, int]:
    """Drop every triple whose predicate is registered for pruning."""
    prune = kb.registry.prune_predicates
    if not prune:
        return kb, 0
    keep = ~kb.with_predicate(prune)
    pruned = KnowledgeBase._of(kb.registry, kb.entities, kb.predicates, kb.literals,
                               kb.subject_ids[keep], kb.predicate_ids[keep],
                               kb.object_ids[keep])
    return pruned, len(kb) - len(pruned)


class EntityTexts(NamedTuple):
    """Text rows as columns: entity i (KB id ``ids[i]``, ascending) has rows
    ``[indptr[i], indptr[i + 1])``, by field name, then text, then triple
    order; each row a text, its field's id (into ``fields``, the names with
    rows, sorted: the KB's triple order cannot change them) and search weight."""

    ids: np.ndarray
    indptr: np.ndarray
    fields: list[str]
    field_ids: np.ndarray
    weights: np.ndarray
    texts: list[str]


def entity_texts(kb: KnowledgeBase) -> EntityTexts:
    """The registered text-field literals of the entities that have any."""
    fields = [kb.registry.text_fields.get(q) for q in kb.predicates]
    texts = kb.with_predicate(kb.registry.text_fields) & (kb.object_ids < 0)
    subjects, predicates = kb.subject_ids[texts], kb.predicate_ids[texts]
    literals, literal_of = np.unique(~kb.object_ids[texts], return_inverse=True)
    values = [kb.literals[i].text for i in literals.tolist()]
    # field names and texts ranked in Python's str order (NumPy U arrays
    # drop trailing NULs); the stable sort keeps triple order among equals
    names = sorted({f.name for f in fields if f is not None})
    field_rank = np.array([names.index(f.name) if f else -1 for f in fields], dtype=np.intp)
    rank = {text: i for i, text in enumerate(sorted(set(values)))}
    text_rank = np.array([rank[text] for text in values], dtype=np.intp)
    order = np.lexsort((text_rank[literal_of], field_rank[predicates], subjects))
    ranked, field_of = np.unique(field_rank[predicates[order]], return_inverse=True)
    weight = np.array([f.weight if f else 0.0 for f in fields], dtype=np.float64)
    ids, starts = np.unique(subjects[order], return_index=True)
    return EntityTexts(ids, np.append(starts, order.shape[0]),
                       [names[r] for r in ranked.tolist()], field_of,
                       weight[predicates[order]],
                       [values[t] for t in literal_of[order].tolist()])
