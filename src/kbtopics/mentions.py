"""Mention extraction from documents.

The default detector is a rule-based chunker: sentences are split on
./!/? followed by whitespace and a capital letter (with an abbreviation
guard), and mentions are maximal runs of up to four adjacent content words.
A document can instead carry externally supplied mentions (gold annotations
or an upstream NER system); the "provided" detector passes those through so
later stages can be tested independently of detection quality.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib.resources import files
from pathlib import Path
from typing import Literal as TypingLiteral

MentionSource = TypingLiteral["text", "keyword"]

_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9'\-]*")
_BOUNDARY_RE = re.compile(r"[.!?]+(?=\s)")
_STRIP_CHARS = " \t\r\n.,;:!?()[]{}\"'`"


def _load_wordlist(path: str | Path | None, default_name: str) -> frozenset[str]:
    if path is None:
        text = files("kbtopics.resources").joinpath(default_name).read_text("utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    words = set()
    for line in text.splitlines():
        line = line.strip().lower()
        if line and not line.startswith("#"):
            words.add(line)
    return frozenset(words)


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    return _load_wordlist(path, "stopwords.txt")


def load_abbreviations(path: str | Path | None = None) -> frozenset[str]:
    return _load_wordlist(path, "abbreviations.txt")


def load_lemma_exceptions(path: str | Path | None = None) -> frozenset[str]:
    return _load_wordlist(path, "lemma_exceptions.txt")


_LEMMA_EXCEPTIONS = load_lemma_exceptions()


@dataclass(frozen=True)
class Document:
    id: str
    title: str = ""
    abstract: str = ""
    keywords: tuple[str, ...] = ()
    provided_mentions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("document id must be non-empty")


@dataclass(frozen=True)
class Mention:
    surface: str
    lemma: str
    sentence: str
    source: MentionSource = "text"
    char_span: tuple[int, int] | None = None


def document_text(doc: Document) -> str:
    """The text mentions are located in: title and abstract joined by a
    blank line (a hard sentence boundary)."""
    if doc.title and doc.abstract:
        return doc.title + "\n\n" + doc.abstract
    return doc.title or doc.abstract


def lemmatize(surface: str) -> str:
    """Lowercase, strip surrounding punctuation, singularize the last word.

    Suffix rules on the final token, unless it is listed as an exception:
    ies -> y, sses -> ss, ses -> se, plain s dropped except after s/u/i.
    Idempotent by construction: every rule's output no longer matches any
    rule (ends in y, ss, or e, or lost its only trailing s).
    """
    text = " ".join(surface.lower().split()).strip(_STRIP_CHARS)
    if not text:
        return ""
    head, _, last = text.rpartition(" ")
    if last in _LEMMA_EXCEPTIONS:
        return text
    if len(last) > 3 and last.endswith("ies"):
        last = last[:-3] + "y"
    elif len(last) > 4 and last.endswith("sses"):
        last = last[:-2]
    elif len(last) > 3 and last.endswith("ses"):
        last = last[:-1]
    elif len(last) > 3 and last.endswith("s") and last[-2] not in "sui":
        last = last[:-1]
    return f"{head} {last}" if head else last


def split_sentences(text: str, abbreviations: frozenset[str]) -> list[tuple[int, int]]:
    """(start, end) spans of sentences within text.

    Boundaries: terminal punctuation followed by whitespace and a capital,
    unless the preceding token is a known abbreviation or a single-letter
    initial; blank lines always separate sentences.
    """
    hard_parts: list[tuple[int, int]] = []
    pos = 0
    for block in re.split(r"\n\s*\n", text):
        start = text.index(block, pos)
        hard_parts.append((start, start + len(block)))
        pos = start + len(block)

    spans: list[tuple[int, int]] = []
    for block_start, block_end in hard_parts:
        block = text[block_start:block_end]
        cursor = 0
        for m in _BOUNDARY_RE.finditer(block):
            after = block[m.end() :].lstrip()
            if not after or not after[0].isupper():
                continue
            words = block[: m.end()].split()
            token = words[-1].lower().lstrip("([{'\"") if words else ""
            if token in abbreviations or re.fullmatch(r"[a-z]\.", token):
                continue
            spans.append((block_start + cursor, block_start + m.end()))
            cursor = len(block) - len(after)
        if cursor < len(block):
            spans.append((block_start + cursor, block_start + len(block)))

    trimmed: list[tuple[int, int]] = []
    for s, e in spans:
        segment = text[s:e]
        if not segment.strip():
            continue
        s += len(segment) - len(segment.lstrip())
        e -= len(segment) - len(segment.rstrip())
        trimmed.append((s, e))
    return trimmed


@dataclass(frozen=True)
class RuleBasedDetector:
    """Chunks each sentence into maximal runs of adjacent content words.

    A content word starts with a letter and is not a stopword; adjacency
    means only whitespace between words. Runs longer than max_tokens are
    split into consecutive windows.
    """

    stopwords: frozenset[str] = field(default_factory=load_stopwords)
    abbreviations: frozenset[str] = field(default_factory=load_abbreviations)
    max_tokens: int = 4

    def detect(self, doc: Document) -> list[Mention]:
        text = document_text(doc)
        mentions: list[Mention] = []
        for s_start, s_end in split_sentences(text, self.abbreviations):
            sentence = text[s_start:s_end]
            run: list[re.Match] = []
            for word in _WORD_RE.finditer(sentence):
                adjacent = (
                    run
                    and sentence[run[-1].end() : word.start()].strip() == ""
                )
                content = word.group().lower() not in self.stopwords
                if content and (adjacent or not run):
                    run.append(word)
                    continue
                self._emit(run, sentence, s_start, mentions)
                run = [word] if content else []
            self._emit(run, sentence, s_start, mentions)
        return mentions

    def _emit(self, run: list[re.Match], sentence: str, offset: int,
              out: list[Mention]) -> None:
        for i in range(0, len(run), self.max_tokens):
            window = run[i : i + self.max_tokens]
            if not window:
                continue
            start, end = window[0].start(), window[-1].end()
            surface = sentence[start:end]
            out.append(Mention(
                surface=surface,
                lemma=lemmatize(surface),
                sentence=sentence,
                source="text",
                char_span=(offset + start, offset + end),
            ))


@dataclass(frozen=True)
class ProvidedMentionDetector:
    """Passes through mentions attached to the document itself.

    Spans are located by first occurrence in the document text; a mention
    that does not appear verbatim keeps char_span=None but is still usable
    (its sentence context falls back to the surface itself).
    """

    abbreviations: frozenset[str] = field(default_factory=load_abbreviations)

    def detect(self, doc: Document) -> list[Mention]:
        text = document_text(doc)
        sentences = split_sentences(text, self.abbreviations)
        mentions: list[Mention] = []
        for surface in doc.provided_mentions:
            pos = text.find(surface)
            span = (pos, pos + len(surface)) if pos >= 0 else None
            sentence = surface
            if span is not None:
                for s_start, s_end in sentences:
                    if s_start <= span[0] < s_end:
                        sentence = text[s_start:s_end]
                        break
            mentions.append(Mention(
                surface=surface,
                lemma=lemmatize(surface),
                sentence=sentence,
                source="text",
                char_span=span,
            ))
        return mentions


def merge_keywords(mentions: list[Mention], doc: Document) -> list[Mention]:
    """Append keyword mentions not already covered by an existing lemma.

    A keyword acts as its own sentence context.
    """
    out = list(mentions)
    seen = {m.lemma for m in out}
    for keyword in doc.keywords:
        lemma = lemmatize(keyword)
        if not lemma or lemma in seen:
            continue
        seen.add(lemma)
        out.append(Mention(
            surface=keyword, lemma=lemma, sentence=keyword,
            source="keyword", char_span=None,
        ))
    return out
