"""Command-line surface: index building, batch classification, diagnostics.

Exit codes: 0 success, 1 usage or configuration problem, 2 bad input data,
3 internal failure. Classification reads and writes JSONL in input order;
a malformed corpus line becomes an in-band error object instead of aborting
the batch.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any

from .config import KbSource, load_config
from .errors import ConfigError, DataError, IndexFormatError, KbTopicsError
from .index import MANIFEST_FILE, CandidateIndex
from .kb import Iri
from .mentions import Document
from .pipeline import CONFIG_COPY, build_index_from_config, open_classifier
from .selection import TopicResult

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this CLI reserves 2 for data
    problems, so usage failures are remapped to 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="kbtopics",
        description="Topical classification of publications against a knowledge base.",
    )
    parser.add_argument(
        "--log-level", default="warning", choices=("debug", "info", "warning", "error"),
        help="least severe log messages written to stderr (default warning)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgumentParser)

    build = sub.add_parser("build-index", help="preprocess a knowledge base into an index directory")
    build.add_argument("--config", required=True, help="YAML configuration file")
    build.add_argument("--out", required=True, help="index output directory")
    build.add_argument(
        "--kb", action="append", default=None, metavar="FILE",
        help="triple file (repeatable; overrides kb.paths from the config)",
    )
    build.add_argument("--force", action="store_true",
                       help="replace the index in the output directory")

    classify = sub.add_parser("classify", help="classify a JSONL corpus against an index")
    classify.add_argument("--index", required=True, help="index directory")
    classify.add_argument("--corpus", required=True, help="input JSONL, one document per line")
    classify.add_argument("--out", required=True, help="output JSONL path")
    classify.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")
    classify.add_argument(
        "--no-coherence", action="store_true",
        help="skip the document-global coherence adjustment",
    )
    classify.add_argument(
        "--config", default=None,
        help="override the configuration stored in the index directory",
    )

    debug = sub.add_parser("expand-debug", help="print an entity's stored neighborhood and parents")
    debug.add_argument("--index", required=True, help="index directory")
    debug.add_argument("--entity", required=True, help="entity IRI")

    return parser


def cmd_build_index(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.kb:
        paths = tuple(Path(p).resolve() for p in args.kb)
        config = replace(config, kb=KbSource(paths=paths, lenient=config.kb.lenient))
    out = Path(args.out)
    if out.is_dir() and any(out.iterdir()) and not args.force:
        raise ConfigError(
            f"output directory {out} is not empty; pass --force to rebuild"
        )
    report = build_index_from_config(config, out)
    for timing in report.timings:
        print(f"{timing.name:<13} {timing.seconds:8.3f}s  {timing.detail}")
    print(f"index written to {out} ({report.manifest.record_count} records)")
    return EXIT_OK


def _document_from_json(obj: Any) -> Document:
    if not isinstance(obj, dict):
        raise ValueError("corpus line must be a JSON object")
    if "id" not in obj:
        raise ValueError("document is missing an id")
    doc_id = obj["id"]
    if isinstance(doc_id, (int, float)) and not isinstance(doc_id, bool):
        doc_id = str(doc_id)
    if not isinstance(doc_id, str) or not doc_id:
        raise ValueError(f"document id must be a non-empty string, got {obj['id']!r}")

    def text_field(key: str) -> str:
        value = obj.get(key, "")
        if not isinstance(value, str):
            raise ValueError(f"{key} must be a string")
        return value

    def str_list(key: str) -> tuple[str, ...]:
        value = obj.get(key, [])
        if not isinstance(value, list) or any(not isinstance(v, str) for v in value):
            raise ValueError(f"{key} must be a list of strings")
        return tuple(value)

    return Document(
        id=doc_id,
        title=text_field("title"),
        abstract=text_field("abstract"),
        keywords=str_list("keywords"),
        provided_mentions=str_list("mentions"),
    )


def _topic_to_json(topic: TopicResult) -> dict[str, Any]:
    return {
        "uri": str(topic.entity),
        "label": topic.label,
        "score": topic.final_score,
        "lemmas": sorted(topic.supporting_lemmas),
        "origin": topic.origin,
    }


def cmd_classify(args: argparse.Namespace) -> int:
    index_dir = Path(args.index)
    if not (index_dir / MANIFEST_FILE).is_file():  # as opening it would, before its config
        raise IndexFormatError(f"cannot open index at {index_dir}: no {MANIFEST_FILE}")
    config_path = Path(args.config) if args.config else index_dir / CONFIG_COPY
    if not config_path.exists():
        raise ConfigError(
            f"no configuration found at {config_path}; "
            "pass --config or rebuild the index"
        )
    config = load_config(config_path)
    if args.no_coherence:
        config = replace(config, coherence=replace(config.coherence, enabled=False))

    corpus = Path(args.corpus)
    try:
        # split as bytes: only \n, \r\n and \r end a line, not the other
        # line breaks str.splitlines knows, which JSON strings may hold raw
        lines = corpus.read_bytes().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read corpus {corpus}: {exc}") from exc

    entries: list[tuple[str, Any]] = []
    for lineno, line in enumerate(lines, start=1):
        obj: Any = None
        try:
            raw = line.decode("utf-8").strip()
            if not raw:
                continue
            obj = json.loads(raw)
            entries.append(("doc", _document_from_json(obj)))
        except (ValueError, TypeError) as exc:
            doc_id = obj.get("id") if isinstance(obj, dict) else None
            entries.append(
                ("error", {"id": doc_id, "error": f"line {lineno}: {exc}"})
            )

    started = time.perf_counter()
    docs = [payload for kind, payload in entries if kind == "doc"]
    with open_classifier(index_dir, config) as classifier:
        topic_lists = classifier.classify_batch(docs, jobs=args.jobs)

    results = iter(topic_lists)
    out_lines = []
    errors = 0
    for kind, payload in entries:
        if kind == "doc":
            record = {
                "id": payload.id,
                "topics": [_topic_to_json(t) for t in next(results)],
            }
        else:
            record = payload
            errors += 1
        out_lines.append(json.dumps(record, ensure_ascii=False))

    out_path = Path(args.out)
    try:
        with out_path.open("w", encoding="utf-8") as handle:
            for line in out_lines:
                handle.write(line + "\n")
    except OSError as exc:
        raise DataError(f"cannot write output {out_path}: {exc}") from exc

    elapsed = time.perf_counter() - started
    print(
        f"classified {len(docs)} documents ({errors} malformed lines) "
        f"in {elapsed:.2f}s -> {out_path}"
    )
    return EXIT_OK


def cmd_expand_debug(args: argparse.Namespace) -> int:
    try:
        entity = Iri(args.entity)
    except ValueError as exc:
        raise ConfigError(f"invalid entity IRI: {exc}") from exc
    with CandidateIndex.open(args.index) as index:
        pos = index.position(entity)
        if pos is None:
            raise DataError(f"entity not indexed: {entity}")
        print(f"entity\t{entity}")
        for title, rows in (("neighborhood", index.related), ("parents", index.parents)):
            print(f"{title}:")
            for i in range(*rows.indptr[pos:pos + 2].tolist()):
                print(f"{index.names[rows.ids[i]]}\t{float(rows.distances[i])!r}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "build-index": cmd_build_index,
        "classify": cmd_classify,
        "expand-debug": cmd_expand_debug,
    }
    # the library's messages as Python prints them when nothing is
    # configured, from the chosen level up
    log = logging.getLogger("kbtopics")
    handler = logging.StreamHandler(sys.stderr)
    level = log.level
    log.addHandler(handler)
    log.setLevel(args.log_level.upper())
    try:
        return handlers[args.command](args)
    except KbTopicsError as exc:
        code = (EXIT_USAGE if isinstance(exc, ConfigError)
                else EXIT_DATA if isinstance(exc, DataError) else EXIT_INTERNAL)
        stage = getattr(exc, "stage", "")
        tag = f" [{stage}]" if stage else ""
        prefix = "internal error" if code == EXIT_INTERNAL else "error"
        print(f"{prefix}{tag}: {exc}", file=sys.stderr)
        return code
    except Exception as exc:  # last resort: never trace-dump on users
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
