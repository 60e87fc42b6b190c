"""Acceptance gate: nine end-to-end checks, numbered 01 and 03-10, one
printed verdict line each.

Every test prints a PASS or FAIL line on the real stdout so the verdicts
survive pytest's output capture, then asserts. The oracles are local
reimplementations rather than imports from the unit tests, so the gate stays
independent of the rest of the suite.
"""

import json
import math
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from kbtopics.cli import main
from kbtopics.config import load_config
from kbtopics.edges import EdgeWeightParams, compute_edge_weights, link_counts
from kbtopics.expansion import ExpansionParams
from kbtopics.index import CandidateIndex
from kbtopics.kb import Iri, KnowledgeBase, Literal, PropertyRegistry, Triple
from kbtopics.mentions import Document
from kbtopics.pipeline import open_classifier
from kbtopics.ranking import RankingParams, activation
from kbtopics.selection import SelectionParams, kneedle_cutoff
from kbtopics.vectors import EmbeddingTable, lexical_vector, semantic_vector

from oracles import edges_of, expand_iris, graph_of, record_iris, record_text_ids, record_texts
from row_table import MentionVectors, RowTable, rows_of, score_candidate

DATA = Path(__file__).resolve().parents[1] / "data"
CONFIG = DATA / "reference_config.yaml"
CORPUS = DATA / "toy_corpus.jsonl"

EX = "http://example.org/"


_CAPFD = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    # verdict lines must reach the real stdout even under -p capture=fd
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {name}"
    if detail:
        line += f" ({detail})"
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def iri(name: str) -> Iri:
    return Iri(EX + name)


def leaf(uri) -> str:
    return str(uri).rsplit("/", 1)[-1]


# ---------------------------------------------------------------------------
# shared fixtures: one toy index for the whole module


@pytest.fixture(scope="module")
def toy_config():
    return load_config(CONFIG)


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_index")
    assert main(["build-index", "--config", str(CONFIG), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def classifier(index_dir, toy_config):
    with open_classifier(index_dir, toy_config) as clf:
        yield clf


@pytest.fixture(scope="module")
def no_coherence(index_dir, toy_config):
    config = replace(toy_config, coherence=replace(toy_config.coherence, enabled=False))
    with open_classifier(index_dir, config) as clf:
        yield clf


def load_corpus():
    docs = []
    with CORPUS.open(encoding="utf-8") as fh:
        for line in fh:
            raw = json.loads(line)
            doc = Document(
                id=raw["id"],
                title=raw["title"],
                abstract=raw["abstract"],
                keywords=tuple(raw["keywords"]),
                provided_mentions=tuple(raw["mentions"]),
            )
            docs.append((doc, frozenset(raw["gold"])))
    return docs


# ---------------------------------------------------------------------------
# criterion 1: edge weighting against a brute-force oracle


def registry_of(base_weights) -> PropertyRegistry:
    return PropertyRegistry(
        edge_base_weights={iri(p): w for p, w in base_weights.items()}
    )


def random_triples(rng: np.random.Generator, n_entities: int, n_triples: int) -> list[Triple]:
    spo = []
    for _ in range(n_triples):
        s = int(rng.integers(n_entities))
        o = int(rng.integers(n_entities))
        p = int(rng.integers(3))
        spo.append((f"e{s:02d}", f"p{p}", f"e{o:02d}"))
    for _ in range(max(n_triples // 6, 1)):
        s = int(rng.integers(n_entities))
        spo.append((f"e{s:02d}", "label", "lit:some text"))
    return [Triple(iri(s), iri(p), Literal(o[4:]) if o.startswith("lit:") else iri(o))
            for s, p, o in spo]


def oracle_edges(triples: list[Triple], registry: PropertyRegistry,
                 params: EdgeWeightParams) -> list[tuple[Iri, Iri, float]]:
    """Full-scan reference: dedupe, recount links, regroup, rescore,
    retruncate."""
    triples = list(dict.fromkeys(triples))
    links: dict[Iri, int] = {}
    pool = {t.subject for t in triples} | {
        t.obj for t in triples if isinstance(t.obj, Iri)
    }
    for e in pool:
        links[e] = sum(1 for t in triples if t.subject == e) + sum(
            1 for t in triples if isinstance(t.obj, Iri) and t.obj == e
        )
    records = []
    for t in triples:
        if isinstance(t.obj, Iri):
            records.append((t.subject, t.predicate, t.obj, "spo"))
            records.append((t.obj, t.predicate, t.subject, "ops"))
    out = []
    for s, p, d in sorted({(r[0], r[1], r[3]) for r in records}):
        members = [r for r in records if r[0] == s and r[1] == p and r[3] == d]
        g = len(members)
        w_p = registry.edge_base_weights.get(p, params.default_base_weight)
        scored = sorted(
            (w_p * links[o] ** params.f_l * g ** params.f_g, o)
            for _, _, o, _ in members
        )
        out.extend((s, o, w) for w, o in scored[: params.c_max])
    return out


def test_criterion_01_edge_weight_oracle():
    rng = np.random.default_rng(20250814)
    started = time.perf_counter()
    n_kbs = 100
    n_edges = mismatched = 0
    for _ in range(n_kbs):
        triples = random_triples(rng, int(rng.integers(5, 26)), int(rng.integers(20, 201)))
        registry = registry_of({"p0": 0.5, "p1": 1.0})
        kb = KnowledgeBase.intern(triples, registry)
        params = EdgeWeightParams(
            f_l=float(rng.uniform(0.2, 0.8)),
            f_g=float(rng.uniform(0.2, 0.8)),
            c_max=int(rng.integers(1, 6)),
            default_base_weight=float(rng.uniform(0.5, 3.0)),
        )
        got = Counter(edges_of(compute_edge_weights(kb, link_counts(kb), params), kb.entities))
        want = Counter(oracle_edges(triples, registry, params))  # exact, to the last bit
        mismatched += got != want
        n_edges += sum(want.values())
    elapsed = time.perf_counter() - started
    ok = mismatched == 0 and elapsed < 10.0
    verdict(1, "edge weights match brute-force oracle bit for bit",
            ok, f"{n_kbs} KBs, {n_edges} edges, {mismatched} KBs differ, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: neighborhood expansion against shortest-path oracles


def random_edges(rng, n_nodes, n_edges):
    seen = {}
    for _ in range(n_edges):
        s, t = int(rng.integers(n_nodes)), int(rng.integers(n_nodes))
        if s == t:
            continue
        w = float(rng.uniform(0.05, 1.5))
        key = (s, t)
        if key not in seen or w < seen[key]:
            seen[key] = w
    return [(f"n{s:03d}", f"n{t:03d}", w) for (s, t), w in seen.items()]


def expand(edges, seed, params):
    """The seed's neighborhood as {entity: distance}."""
    graph = graph_of(((iri(s), iri(t), w) for s, t, w in edges), [seed])
    return dict(expand_iris(graph, [seed], params)[seed].neighbors)


def walk_all_paths(edges, seed, max_depth, max_distance):
    """Literal exhaustive walk over every edge sequence of at most max_depth
    hops whose running cost stays within max_distance; keeps the minimum."""
    out_edges: dict[Iri, list[tuple[Iri, float]]] = {}
    for s, t, w in edges:
        out_edges.setdefault(iri(s), []).append((iri(t), w))
    best = {seed: 0.0}

    def walk(node, cost, hops):
        if hops == max_depth:
            return
        for nxt, w in out_edges.get(node, ()):
            nc = cost + w
            if nc > max_distance:
                continue
            if nxt not in best or nc < best[nxt]:
                best[nxt] = nc
            walk(nxt, nc, hops + 1)

    walk(seed, 0.0, 0)
    return best


def test_criterion_03_expansion_oracles():
    rng = np.random.default_rng(42)
    n_graphs = 50
    for _ in range(n_graphs):
        n = int(rng.integers(20, 101))
        edges = random_edges(rng, n, n * 6)
        max_distance = float(rng.uniform(1.5, 3.5))
        got = expand(
            edges, iri("n000"),
            ExpansionParams(max_depth=n, max_distance=max_distance, max_neighbors=n + 1),
        )
        index = {f"n{i:03d}": i for i in range(n)}
        mat = np.zeros((n, n))
        for s, t, w in edges:
            mat[index[s], index[t]] = w
        dist = dijkstra(csr_matrix(mat), indices=0)
        want = {iri(f"n{i:03d}"): dist[i] for i in range(n) if dist[i] <= max_distance}
        assert set(got) == set(want)
        for k, v in want.items():
            assert abs(got[k] - v) <= 1e-9

    n_bounded = 0
    for depth in (1, 2, 3):
        for seed in range(12):
            g = np.random.default_rng(1000 * depth + seed)
            edges = random_edges(g, 12, 30)
            params = ExpansionParams(max_depth=depth, max_distance=2.5, max_neighbors=64)
            got = expand(edges, iri("n000"), params)
            want = walk_all_paths(edges, iri("n000"), depth, 2.5)
            assert set(got) == set(want)
            for k, v in want.items():
                assert abs(got[k] - v) <= 1e-9
            n_bounded += 1
    verdict(3, "expansion equals shortest-path and bounded-walk oracles",
            True, f"{n_graphs} graphs vs dijkstra, {n_bounded} depth-bounded")


# ---------------------------------------------------------------------------
# criterion 4: bulk scoring kernel against a per-row loop


def cosine_sparse(a, b):
    if len(b) < len(a):
        a, b = b, a
    return sum(v * b[k] for k, v in a.items() if k in b)


def naive_score(mention, block, params, vectors):
    total = 0.0
    a = lambda x: (1.0 + math.exp(params.alpha - params.beta * x)) ** -2
    lex_rows, sem_matrix = vectors.load_vectors(block.text_ids)
    for i, lex_row in enumerate(lex_rows):
        lex = cosine_sparse(lex_row, mention.lex)
        sem = float(np.dot(sem_matrix[i], mention.sem))
        ctx = float(np.dot(sem_matrix[i], mention.ctx))
        d = params.w_l * a(lex) + params.w_sm * a(sem) + params.w_sc * a(ctx)
        total += block.field_weights[i] * d / (1.0 + block.distances[i])
    return total


def random_block(rng, table, n_rows, dim=8):
    lex_rows = []
    for _ in range(n_rows):
        n_keys = int(rng.integers(1, 6))
        keys = rng.integers(0, 50, size=n_keys)
        vals = rng.uniform(0.1, 1.0, size=n_keys)
        vals /= np.linalg.norm(vals)
        lex_rows.append({int(k): float(v) for k, v in zip(keys, vals)})
    sem = rng.normal(size=(n_rows, dim))
    sem /= np.linalg.norm(sem, axis=1, keepdims=True)
    if n_rows > 1:
        sem[1] = 0.0
    return table.block(
        0,
        lex_rows,
        sem,
        field_weights=rng.uniform(0.5, 3.0, size=n_rows),
        distances=rng.uniform(0.0, 4.0, size=n_rows),
    )


def random_mention(rng, dim=8) -> MentionVectors:
    keys = rng.integers(0, 50, size=4)
    vals = rng.uniform(0.1, 1.0, size=4)
    vals /= np.linalg.norm(vals)
    sem = rng.normal(size=dim)
    sem /= np.linalg.norm(sem)
    ctx = rng.normal(size=dim)
    ctx /= np.linalg.norm(ctx)
    return MentionVectors(
        lex={int(k): float(v) for k, v in zip(keys, vals)}, sem=sem, ctx=ctx
    )


def test_criterion_04_ranking_kernel():
    rng = np.random.default_rng(7)
    n_pairs = 1000
    worst = 0.0
    table = RowTable(8)
    for _ in range(n_pairs):
        params = RankingParams(
            w_l=float(rng.uniform(0.0, 2.0)),
            w_sm=float(rng.uniform(0.1, 2.0)),
            w_sc=float(rng.uniform(0.0, 2.0)),
            alpha=float(rng.uniform(2.0, 6.0)),
            beta=float(rng.uniform(4.0, 12.0)),
        )
        block = random_block(rng, table, n_rows=int(rng.integers(1, 8)))
        mention = random_mention(rng)
        got = score_candidate(mention, block, table, params)
        want = naive_score(mention, block, params, table)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-6

    verdict(4, "bulk scoring matches per-row loop",
            worst <= 1e-6, f"{n_pairs} pairs, max |ds| {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 5: activation shape


def test_criterion_05_activation_shape():
    exact = activation(4.0 / 8.0) == 0.25
    ok = bool(exact)
    for alpha, beta in ((4.0, 8.0), (2.0, 5.0), (6.0, 12.0)):
        grid = activation(np.linspace(-1.0, 1.0, 10_000), alpha, beta)
        ok = ok and bool(np.all(np.diff(grid) > 0))
        ok = ok and bool(np.all(grid > 0.0)) and bool(np.all(grid < 1.0))
        ok = ok and activation(alpha / beta, alpha, beta) == 0.25
    verdict(5, "activation: a(alpha/beta)=0.25 exact, strictly rising in (0,1)", ok)


# ---------------------------------------------------------------------------
# criterion 6: knee recovery on planted two-slope curves


def kneedle_oracle(scores, sensitivity=1.0):
    """Offline reference: local maxima of the difference curve with the
    drop-below-threshold acceptance rule. Returns the knee index or None."""
    n = len(scores)
    if n < 2:
        return None
    span = scores[0] - scores[-1]
    if span <= 0:
        return None
    y = (np.asarray(scores, dtype=np.float64) - scores[-1]) / span
    x = np.linspace(0.0, 1.0, n)
    d = y - (1.0 - x)
    maxima = [i for i in range(1, n - 1) if d[i] > d[i - 1] and d[i] >= d[i + 1]]
    for pos, lmx in enumerate(maxima):
        threshold = d[lmx] - sensitivity / (n - 1)
        end = maxima[pos + 1] if pos + 1 < len(maxima) else n
        for j in range(lmx + 1, end):
            if d[j] < threshold:
                return lmx
    return None


def planted_knee_curve(rng, n, knee):
    gentle = rng.uniform(0.01, 0.1)
    steep = rng.uniform(1.0, 3.0)
    scores = [100.0]
    for i in range(1, n):
        slope = gentle if i <= knee else steep
        scores.append(scores[-1] - slope)
    return scores


def test_criterion_06_knee_recovery():
    rng = np.random.default_rng(99)
    params = SelectionParams(min_topics=1)
    n_curves = 100
    hit_planted = 0
    for _ in range(n_curves):
        n = int(rng.integers(8, 41))
        knee = int(rng.integers(2, n - 3))
        scores = planted_knee_curve(rng, n, knee)
        # noiseless curves are well posed: cutoff and oracle must agree exactly
        assert kneedle_oracle(scores, params.kneedle_sensitivity) == knee
        assert kneedle_cutoff(scores, params) == knee + 1
        span = scores[0] - scores[-1]
        noisy = sorted(
            (s + float(rng.uniform(-0.01, 0.01)) * span for s in scores),
            reverse=True,
        )
        if abs(kneedle_cutoff(noisy, params) - (knee + 1)) <= 1:
            hit_planted += 1
    ok = hit_planted >= 95
    verdict(6, "knee cut matches oracle clean, recovers noisy knees within +-1",
            ok, f"{hit_planted}/{n_curves} noisy hits")


# ---------------------------------------------------------------------------
# criterion 7: stored vectors equal recomputation


def test_criterion_07_cache_transparency(index_dir, toy_config):
    table = EmbeddingTable.load(toy_config.embedding_file)
    sizes = toy_config.ngram_sizes
    n_texts = 0
    worst_sem = 0.0
    # the lexical vectors are stored by gram; read back per text
    with CandidateIndex.open(index_dir) as idx:
        for uri in record_iris(idx):
            ids = record_text_ids(idx, uri)
            lex, sem = rows_of(idx.lexical, ids), idx.semantic[list(ids)]
            for (_, text, _), lv, sv in zip(record_texts(idx, uri), lex, sem):
                assert lv == lexical_vector(text, sizes)
                fresh = semantic_vector(text, table)
                worst_sem = max(worst_sem, float(np.max(np.abs(sv - fresh)))
                                if sv.size else 0.0)
                n_texts += 1
    ok = n_texts > 0 and worst_sem <= 1e-7
    verdict(7, "stored vectors equal recomputation",
            ok, f"{n_texts} texts, max |dv| {worst_sem:.2e}")


# ---------------------------------------------------------------------------
# criterion 8: the toy corpus classifies exactly, coherence resolves homonym


def direct_set(topics):
    return {leaf(t.entity) for t in topics if t.origin == "direct"}


def test_criterion_08_toy_corpus_exact(classifier, no_coherence):
    corpus = load_corpus()
    tp = fp = fn = 0
    all_exact = True
    for doc, gold in corpus:
        got = direct_set(classifier.classify_document(doc))
        tp += len(got & gold)
        fp += len(got - gold)
        fn += len(gold - got)
        all_exact = all_exact and got == gold
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0

    homonym_doc, homonym_gold = next((d, g) for d, g in corpus if d.id == "d10")
    with_coherence = direct_set(classifier.classify_document(homonym_doc))
    without = direct_set(no_coherence.classify_document(homonym_doc))
    flips = (
        with_coherence == homonym_gold
        and "seal_pinniped" in with_coherence
        and "seal_pinniped" not in without
    )
    ok = all_exact and precision == 1.0 and recall == 1.0 and flips
    verdict(8, "toy corpus exact, homonym needs coherence",
            ok, f"P {precision:.2f} R {recall:.2f}, off-coherence picks "
                f"{sorted(without - homonym_gold) or 'nothing new'}")


# ---------------------------------------------------------------------------
# criterion 9: classify command speed and thread scaling


def synthetic_corpus(path: Path, n_docs: int) -> None:
    """Abstracts heavy enough that per-document work dominates the fixed
    startup cost: each one splices three base documents together."""
    base = []
    with CORPUS.open(encoding="utf-8") as fh:
        for line in fh:
            base.append(json.loads(line))
    with path.open("w", encoding="utf-8") as out:
        for i in range(n_docs):
            parts = [base[(i + k) % len(base)] for k in range(3)]
            doc = {
                "id": f"s{i:03d}",
                "title": f"Survey {i}: " + "; ".join(p["title"] for p in parts),
                "abstract": " ".join(p["abstract"] for p in parts),
                "keywords": sorted({kw for p in parts for kw in p["keywords"]}),
                "mentions": [m for p in parts for m in p["mentions"]],
            }
            out.write(json.dumps(doc) + "\n")


def classify_once(index_dir, corpus, out, jobs):
    started = time.perf_counter()
    code = main([
        "classify", "--index", str(index_dir), "--corpus", str(corpus),
        "--out", str(out), "--jobs", str(jobs),
    ])
    assert code == 0
    return time.perf_counter() - started


def test_criterion_09_performance(index_dir, tmp_path):
    corpus = tmp_path / "synthetic.jsonl"
    synthetic_corpus(corpus, 50)
    # A run takes about 0.15 s, so single runs vary by more than the 10%
    # margin: alternate the modes twenty times and keep each mode's best run.
    t1 = math.inf
    t4 = math.inf
    for _ in range(20):
        t1 = min(t1, classify_once(index_dir, corpus, tmp_path / "out1.jsonl", 1))
        t4 = min(t4, classify_once(index_dir, corpus, tmp_path / "out4.jsonl", 4))
    ok = t1 < 5.0 and t4 <= 1.1 * t1
    verdict(9, "50 abstracts under 5s, --jobs 4 within 10% of --jobs 1",
            ok, f"jobs1 {t1:.3f}s, jobs4 {t4:.3f}s")


# ---------------------------------------------------------------------------
# criterion 10: byte-identical rebuild and reclassification


def test_criterion_10_reproducibility(tmp_path):
    outputs = []
    hashes = []
    for run in ("a", "b"):
        index_dir = tmp_path / f"index_{run}"
        result = tmp_path / f"out_{run}.jsonl"
        assert main(["build-index", "--config", str(CONFIG), "--out", str(index_dir)]) == 0
        manifest = json.loads((index_dir / "manifest.json").read_text(encoding="utf-8"))
        hashes.append(manifest["content_hash"])
        assert main([
            "classify", "--index", str(index_dir), "--corpus", str(CORPUS),
            "--out", str(result),
        ]) == 0
        outputs.append(result.read_bytes())
    ok = outputs[0] == outputs[1] and hashes[0] == hashes[1] and len(outputs[0]) > 0
    verdict(10, "two build+classify runs are byte-identical",
            ok, f"{len(outputs[0])} bytes, content hash {hashes[0][:12]}")
