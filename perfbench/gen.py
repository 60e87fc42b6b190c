"""Deterministic synthetic knowledge base and corpus for the benchmark.

Everything is drawn from ``random.Random`` seeded with a string, so the same
workload and seed give byte-identical files in any process, independent of
PYTHONHASHSEED. The program under test only ever sees what ``write_inputs``
puts on disk and the ``Document`` values built from ``documents``.

The KB is a forest of clusters. Each cluster has a category entity; members
point at it with ``skos:broader`` or are listed by it through
``vocab:hasMember`` (an inverse parent property), categories point at
domains, and ``skos:related`` links stay inside a cluster so neighborhoods
are dense and local. ``closeMatch`` pairs and resolved MeSH cross-references
add long-range edges. The KB also carries what the loader must clean up:
unresolved cross-references, pruned bookkeeping predicates, non-English
labels and duplicate lines.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

KB = "http://bench.example.org/kb/"
MESH = "http://example.org/mesh/"
VOCAB = "http://example.org/vocab/"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
SKOS = "http://www.w3.org/2004/02/skos/core#"
BROADER = SKOS + "broader"
RELATED = SKOS + "related"
CLOSE_MATCH = SKOS + "closeMatch"
SYNONYM = VOCAB + "synonym"
HAS_MEMBER = VOCAB + "hasMember"
XREF = VOCAB + "hasDbXref"
EDITORIAL = VOCAB + "editorialNote"
CURATED_BY = VOCAB + "curatedBy"

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "t", "v", "z",
           "br", "dr", "gl", "kr", "pl", "tr", "st", "sk", "th", "ch", "sh")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou", "ea")
_CODAS = ("", "n", "r", "l", "m", "k", "x", "th", "nd", "rt")


WORDS_PER_OOV = 2.5   # mean number of labels sharing one invented word
VOCAB_SHARE = 0.3     # share of labels that also carry a real word
CLOSE_WEIGHT = 0.2    # base weight of closeMatch edges
MAX_NEIGHBORS = 64


@dataclass(frozen=True)
class Shape:
    """Inputs of one workload, and how often a run builds and classifies."""

    entities: int               # labelled topic entities (categories included)
    cluster: int                # members per category
    related_per_entity: float   # mean skos:related links, inside the cluster
    edge_weight: float          # base weight of broader/related/hasMember edges
    builds: int                 # index builds per run
    passes: int                 # passes over the documents per run, at least
    docs: int                   # timed documents per pass
    hot: int = 0                # size of the hot subset (classify-hot only)
    mentions: tuple[int, int] = (0, 0)   # provided mentions per document
    rule_detected: bool = False


SHAPES = {
    "build": Shape(entities=6000, cluster=30, related_per_entity=1.5, edge_weight=0.3,
                   builds=2, passes=2, docs=100, mentions=(3, 6)),
    "classify-cold": Shape(entities=4000, cluster=30, related_per_entity=1.5,
                           edge_weight=0.3, builds=1, passes=2, docs=150,
                           rule_detected=True),
    "classify-hot": Shape(entities=1200, cluster=40, related_per_entity=4.0,
                          edge_weight=0.25, builds=5, passes=2, docs=150, hot=240,
                          mentions=(10, 20)),
}


@dataclass(frozen=True)
class Entity:
    uri: str
    label: str
    synonyms: tuple[str, ...]


@dataclass
class Model:
    """What the generator knows about the KB it wrote."""

    shape: Shape
    entities: list[Entity]
    topics: list[int]            # indices of leaf topic entities
    hot: list[int]               # indices of the hot subset
    domains: list[str]           # URIs above the categories
    triples: int = 0             # distinct triples the loader keeps
    lines: int = 0               # lines written, duplicates included


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"kbtopics-bench/{workload}/{seed}/{stream}")


def load_vocabulary(embedding_file: Path) -> list[str]:
    """Embedding tokens usable as label words.

    Words the lemmatizer would change (a trailing plural ``s``) are left out
    so that a label and its detected mention share every token.
    """
    words = []
    for lineno, line in enumerate(embedding_file.read_text(encoding="utf-8").splitlines()):
        parts = line.split()
        if not parts or (lineno == 0 and len(parts) == 2):
            continue
        if parts[0].isalpha() and not parts[0].endswith("s"):
            words.append(parts[0])
    return words


def _invent_words(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                       for _ in range(rng.randint(2, 3))) + rng.choice(_CODAS)
        if word in taken or word.endswith("s"):
            continue
        taken.add(word)
        out.append(word)
    return out


def build_model(workload: str, seed: int, vocabulary: list[str]) -> Model:
    shape = SHAPES[workload]
    rng = _rng(workload, seed, "kb")
    taken = set(vocabulary)
    n = shape.entities
    common = _invent_words(rng, max(1, int(2 * n / WORDS_PER_OOV)), taken)
    hot_words = _invent_words(rng, max(1, int(2 * shape.hot / WORDS_PER_OOV)), taken)

    def label_for(words: list[str], real_word: bool) -> str:
        picked = rng.sample(words, 2)
        if real_word:
            picked.insert(rng.randint(0, 2), rng.choice(vocabulary))
        return " ".join(picked)

    n_clusters = max(1, n // (shape.cluster + 1))
    hot_clusters = -(-shape.hot // shape.cluster) if shape.hot else 0
    entities: list[Entity] = []
    topics: list[int] = []
    hot: list[int] = []
    for i in range(n):
        is_topic = i >= n_clusters
        is_hot = is_topic and len(hot) < shape.hot \
            and (i - n_clusters) % n_clusters < hot_clusters
        words = hot_words if is_hot else common
        real = not is_hot and rng.random() < VOCAB_SHARE
        label = label_for(words, real)
        synonyms = {f"{rng.choice(words)} {rng.choice(label.split())}"
                    for _ in range(rng.choice((0, 1, 1, 2)))} - {label}
        entities.append(Entity(f"{KB}e{i:05d}", label, tuple(sorted(synonyms))))
        if is_topic:
            topics.append(i)
        if is_hot:
            hot.append(i)
    domains = [f"{KB}domain{d:03d}" for d in range(max(1, n_clusters // 12))]
    return Model(shape=shape, entities=entities, topics=topics, hot=hot, domains=domains)


def _lit(text: str, lang: str | None = "en") -> str:
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"' + (f"@{lang}" if lang else "")


def kb_lines(workload: str, seed: int, model: Model) -> list[str]:
    """N-Triples lines of the KB, in a fixed shuffled order."""
    rng = _rng(workload, seed, "edges")
    shape = model.shape
    ents = model.entities
    n = len(ents)
    n_clusters = max(1, n // (shape.cluster + 1))
    domains = model.domains
    n_domains = len(domains)
    kept: list[str] = []      # distinct triples the loader keeps
    dropped: list[str] = []   # non-English literals

    def iri(uri: str) -> str:
        return f"<{uri}>"

    def add(s: str, p: str, o: str) -> None:
        kept.append(f"{iri(s)} {iri(p)} {o} .")

    for d, uri in enumerate(domains):
        add(uri, RDFS_LABEL, _lit(f"domain {rng.choice(('alpha', 'beta', 'gamma'))} {d}"))

    members: list[list[int]] = [[] for _ in range(n_clusters)]
    for i in model.topics:
        members[(i - n_clusters) % n_clusters].append(i)

    for i, e in enumerate(ents):
        add(e.uri, RDFS_LABEL, _lit(e.label, "en" if rng.random() < 0.7 else None))
        for syn in e.synonyms:
            add(e.uri, SYNONYM, _lit(syn, "en" if rng.random() < 0.5 else None))
        if rng.random() < 0.15:
            dropped.append(f"{iri(e.uri)} {iri(RDFS_LABEL)} "
                           f"{_lit(e.label.title(), rng.choice(('de', 'fr', 'es')))} .")
        if i < n_clusters:
            add(e.uri, BROADER, iri(domains[i % n_domains]))
        if rng.random() < 0.1:
            add(e.uri, EDITORIAL, _lit(f"reviewed batch {rng.randint(1, 40)}"))
        if rng.random() < 0.1:
            add(e.uri, CURATED_BY, iri(f"{KB}curator{rng.randint(0, 15):02d}"))
        roll = rng.random()
        if roll < 0.2:
            add(e.uri, XREF, _lit(f"MSH:D{rng.randint(0, n // 6):06d}", None))
        elif roll < 0.25:
            add(e.uri, XREF, _lit(f"UMLS:C{rng.randint(0, 10**6):07d}", None))

    for c, group in enumerate(members):
        category = ents[c].uri
        for i in group:
            if rng.random() < 0.3:
                add(category, HAS_MEMBER, iri(ents[i].uri))
            else:
                add(ents[i].uri, BROADER, iri(category))
            links = int(shape.related_per_entity) + (
                rng.random() < shape.related_per_entity % 1)
            for _ in range(links):
                j = rng.choice(group)
                if j != i:
                    add(ents[i].uri, RELATED, iri(ents[j].uri))
            if rng.random() < 0.05:
                add(ents[i].uri, CLOSE_MATCH, iri(ents[rng.choice(model.topics)].uri))

    distinct = list(dict.fromkeys(kept))
    model.triples = len(distinct)
    lines = distinct + dropped
    lines += [rng.choice(distinct) for _ in range(len(distinct) // 30)]
    rng.shuffle(lines)
    model.lines = len(lines)
    return lines


def config_dict(model: Model, kb_path: Path, embedding_path: Path) -> dict:
    """Benchmark configuration: the reference registry, with edge base
    weights lowered so that neighborhoods reach tens of entities."""
    shape = model.shape
    return {
        "kb": {"paths": [str(kb_path)], "lenient": False},
        "registry": {
            "text_fields": {
                RDFS_LABEL: {"name": "label", "search_weight": 2.0},
                SYNONYM: {"name": "synonym", "search_weight": 1.0},
            },
            "edge_base_weights": {
                BROADER: shape.edge_weight,
                RELATED: shape.edge_weight,
                CLOSE_MATCH: CLOSE_WEIGHT,
                HAS_MEMBER: shape.edge_weight,
            },
            "parent_properties": [
                {"predicate": BROADER, "direction": "forward"},
                {"predicate": HAS_MEMBER, "direction": "inverse"},
            ],
            "close_match_predicates": [CLOSE_MATCH],
            "prune_predicates": [EDITORIAL, CURATED_BY],
            "cross_refs": {"predicates": [XREF], "prefixes": {"MSH": MESH},
                           "target": CLOSE_MATCH},
        },
        "expansion": {"max_depth": 3, "max_distance": 4.0,
                      "max_neighbors": MAX_NEIGHBORS},
        "encoder": {"embedding_file": str(embedding_path), "ngram_sizes": [3, 4]},
    }


def write_inputs(workload: str, seed: int, out: Path, embedding_source: Path) -> Model:
    """Write kb.nt, embeddings.txt and config.yaml into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    embeddings = out / "embeddings.txt"
    embeddings.write_bytes(embedding_source.read_bytes())
    model = build_model(workload, seed, load_vocabulary(embeddings))
    kb_path = out / "kb.nt"
    kb_path.write_text("\n".join(kb_lines(workload, seed, model)) + "\n", encoding="utf-8")
    # YAML is a superset of JSON
    (out / "config.yaml").write_text(
        json.dumps(config_dict(model, kb_path, embeddings), indent=1), encoding="utf-8")
    return model


# ---------------------------------------------------------------------------
# documents

_OPENERS = ("The", "In", "For", "With", "Between", "Under", "After", "During")
_GLUE = ("of the", "and the", "in the", "with", "for the", "between the", "from")


@dataclass(frozen=True)
class Doc:
    id: str
    title: str
    abstract: str
    keywords: tuple[str, ...]
    mentions: tuple[str, ...]
    gold: str                    # URI planted in the document
    warmup: bool = False


def _surface(rng: random.Random, e: Entity) -> str:
    return rng.choice((e.label,) + e.synonyms)


def _sentence(rng: random.Random, surfaces: list[str]) -> str:
    parts = [rng.choice(_OPENERS), surfaces[0]]
    for s in surfaces[1:]:
        parts += [rng.choice(_GLUE), s]
    return " ".join(parts) + "."


def _text(rng: random.Random, surfaces: list[str]) -> str:
    sentences = []
    i = 0
    while i < len(surfaces):
        step = rng.randint(1, 3)
        sentences.append(_sentence(rng, surfaces[i:i + step]))
        i += step
    return " ".join(sentences)


def _deck(rng: random.Random, pool: list[int]):
    """Endless draws from ``pool``: each item once per round, rounds shuffled.

    Every entity of the pool is mentioned about equally often, so the cost
    of a pass depends on the KB and not on which entities a seed happens
    to draw more often.
    """
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


def documents(workload: str, seed: int, model: Model):
    """Endless deterministic document stream.

    classify-hot first yields warm-up documents that mention every hot
    entity once under each surface form, so afterwards every retrieval hit
    is already in the block cache; those carry ``warmup=True``.
    """
    rng = _rng(workload, seed, "docs")
    shape = model.shape
    ents = model.entities
    if shape.hot:
        surfaces = [s for i in model.hot for s in (ents[i].label,) + ents[i].synonyms]
        for n, start in enumerate(range(0, len(surfaces), shape.mentions[1])):
            chunk = surfaces[start:start + shape.mentions[1]]
            yield Doc(f"warm{n:04d}", chunk[0], _text(rng, chunk), (), tuple(chunk),
                      gold="", warmup=True)
    draw = _deck(rng, model.hot or model.topics)
    n = 0
    while True:
        gold = ents[next(draw)]
        if shape.rule_detected:
            others = [ents[next(draw)] for _ in range(rng.randint(2, 6))]
            second = rng.choice(gold.synonyms) if gold.synonyms else gold.label
            body = [_surface(rng, e) for e in others] + [gold.label, second]
            rng.shuffle(body)
            yield Doc(f"d{n:06d}", _sentence(rng, [gold.label, _surface(rng, others[0])]),
                      _text(rng, body), (gold.label,), (), gold.uri)
        else:
            count = rng.randint(*shape.mentions)
            others = [ents[next(draw)] for _ in range(count - 2)]
            second = rng.choice(gold.synonyms) if gold.synonyms else gold.label
            mentions = [_surface(rng, e) for e in others] + [gold.label, second]
            rng.shuffle(mentions)
            yield Doc(f"d{n:06d}", _sentence(rng, mentions[:2]),
                      _text(rng, mentions), (), tuple(mentions), gold.uri)
        n += 1
