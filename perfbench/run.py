"""kbtopics benchmark: one workload, one seed, one line of JSON results.

    python3 perfbench/run.py --workload classify-cold --seed 1 --seconds 15 --trace 0

Run from the root of a checkout, in a fresh process per run: peak RSS is
then the run's own and no block cache is shared between runs. The
benchmark generates a synthetic KB and document stream from the seed
(gen.py), builds the index with the checkout's ``src``, opens it, classifies
in a closed loop with one client (``jobs=1``), checks the outputs, and
prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``), last line JSON. Every timed call goes through the public
library API, not the CLI. Workloads, metrics and their expected links are
described in perfbench/README.md.

A run builds the index, opens it EXTRA_OPENS times to time set-up, then
classifies in passes; the workload's further builds alternate with the
passes. After the workload's number of passes, passes go on until
``--seconds`` of serving have passed. A pass opens a fresh classifier and
classifies the workload's documents, after its warm-up prefix if it has
one, so every pass does identical work from an empty block cache. A traced
run ends with one more pass over the same documents, traced.

Times are reported at reference speed: a sampler (speed.py) times a fixed
unit of work throughout the run, and each timed operation is scaled by the
unit's speed around it, so that the speed the shared machine happens to
give a run cancels out.

Exit status 0 means every operation succeeded and every output check held.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # before numpy is first imported
    os.environ[_var] = "1"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from speed import Span, Speed  # noqa: E402
from tracing import Tracer  # noqa: E402

WORK = HERE / ".work"
EMBEDDINGS = ROOT / "data" / "toy_embeddings.txt"
DEADLINE_S = 170
EXTRA_OPENS = 1         # opens before the first pass; each pass opens once more

# lowest acceptable share of documents whose planted entity is in the output;
# about 0.1 under the lowest rate seen over seeds 1-10 at the seed code
GOLD_FLOOR = {"build": 0.6, "classify-cold": 0.6, "classify-hot": 0.6}

STAGES = {  # BuildReport stage name -> per-layer metric
    "load": "kb.load_s",
    "cross-refs": "kb.cross_refs_s",
    "prune": "kb.prune_s",
    "edge-weights": "edges.weight_s",
    "expansion": "expansion.expand_s",
    "parents": "index.parents_s",
    "index": "index.write_s",
}
INDEX_FILES = ("manifest.json", "records.jsonl", "postings.jsonl", "vectors.bin")
# span name -> per-layer metrics derived from it; for classify spans the
# first one is the span's self time
SPAN_METRICS = {
    "expansion.expand_all": ("expansion.hood_mean", "expansion.hood_max",
                             "expansion.hood_capped_share"),
    "index.open": ("index.open_s",),
    "vectors.table_load": ("vectors.table_load_s",),
    "pipeline.classify": ("pipeline.self_s", "selection.topics_mean"),
    "mentions.detect": ("mentions.detect_s", "mentions.per_doc"),
    "vectors.encode": ("vectors.encode_s",),
    "index.query": ("index.query_s", "index.query_calls", "index.hits_per_query",
                    "pipeline.block_cache_hit_rate"),
    "index.block_load": ("index.block_load_s", "index.block_loads",
                         "index.block_rows_mean", "pipeline.block_cache_hit_rate"),
    "vector_store.read": ("vector_store.read_s", "vector_store.reads"),
    "ranking.rank": ("ranking.rank_s", "ranking.rows_scored", "ranking.rows_per_s"),
    "coherence.similarity": ("coherence.similarity_s", "coherence.nodes_mean",
                             "coherence.pairs_linked_mean"),
    "coherence.prune": ("coherence.prune_s",),
    "coherence.boost": ("coherence.boost_s",),
    "selection": ("selection.s",),
}
CLASSIFY_SPANS = ("pipeline.classify", "mentions.detect", "vectors.encode", "index.query",
                  "index.block_load", "vector_store.read", "ranking.rank",
                  "coherence.similarity", "coherence.prune", "coherence.boost", "selection")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(path: Path) -> dict[str, int]:
    return {str(p.relative_to(path)): p.stat().st_size
            for p in sorted(path.rglob("*")) if p.is_file()}


def detail_count(report, stage: str, pattern: str) -> int | None:
    for timing in report.timings:
        if timing.name == stage:
            m = re.search(pattern, timing.detail)
            return int(m.group(1)) if m else None
    return None


def percentile(values: list[float], q: int) -> float:
    """q-th percentile, as statistics.quantiles(n=100) places it."""
    return statistics.quantiles(values, n=100)[q - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Builds:
    """Timed ``build_index_from_config`` calls into fresh directories."""

    def __init__(self, api, config, work: Path, speed: Speed):
        self.api = api
        self.config = config
        self.work = work
        self.speed = speed
        self.spans: list[Span] = []
        self.seconds: list[float] = []      # at reference speed, after the run
        self.stage_times: dict[str, list[float]] = {}
        self.failed = 0
        self.report = None
        self.index: Path | None = None

    def once(self) -> None:
        target = self.work / f"index{len(self.spans) + self.failed}"
        gc.collect()
        try:
            report, span = self.speed.timed(
                lambda: self.api.build_index_from_config(self.config, target))
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        if self.index is not None:
            shutil.rmtree(self.index)
        self.index = target
        self.report = report
        self.spans.append(span)
        for timing in report.timings:
            self.stage_times.setdefault(timing.name, []).append(timing.seconds)

    def stages(self) -> dict[str, float]:
        return {name: statistics.median(v) for name, v in self.stage_times.items()}


def to_document(api, d: gen.Doc):
    return api.Document(id=d.id, title=d.title, abstract=d.abstract,
                        keywords=d.keywords, provided_mentions=d.mentions)


def check_topics(topics, entities: set[str]) -> str | None:
    """Why the classifier's output for one document is malformed, if it is."""
    seen = set()
    prev = math.inf
    for t in topics:
        if not math.isfinite(t.final_score) or t.final_score <= 0:
            return f"score {t.final_score} for {t.entity}"
        if t.final_score > prev:
            return "topics not sorted by descending score"
        if t.entity in seen or t.entity not in entities:
            return f"duplicate or unknown topic {t.entity}"
        if t.origin not in ("direct", "parent"):
            return f"bad origin {t.origin}"
        seen.add(t.entity)
        prev = t.final_score
    return None


def digest_line(doc_id: str, topics) -> str:
    return json.dumps([doc_id, [[str(t.entity), t.origin, sorted(t.supporting_lemmas),
                                 f"{t.final_score:.6f}"] for t in topics]])


class Passes:
    """Closed-loop classification by one client, in passes."""

    def __init__(self, api, args, model: gen.Model, builds: Builds, speed: Speed):
        self.api = api
        self.speed = speed
        self.args = args
        self.model = model
        self.builds = builds
        self.entities = {e.uri for e in model.entities} | set(model.domains)
        self.setup_spans: list[Span] = []
        self.setup_times: list[float] = []      # at reference speed, after the run
        self.attempted = 0
        self.failed = 0
        self.bad_outputs: list[str] = []
        self.digests: list[str] = []
        self.gold_hits = 0

    def open(self, tracer: Tracer):
        gc.collect()
        self.attempted += 1
        tracer.enabled = bool(self.args.trace)
        try:
            classifier, span = self.speed.timed(
                lambda: self.api.open_classifier(self.builds.index, self.builds.config))
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            tracer.enabled = False
        self.setup_spans.append(span)
        return classifier

    def run_pass(self, classifier, tracer: Tracer | None = None) -> list[Span]:
        """Latency span of each timed document, in stream order."""
        latencies: list[Span] = []
        digest = hashlib.sha256()
        gold_hits = measured = 0
        for d in gen.documents(self.args.workload, self.args.seed, self.model):
            if measured == self.model.shape.docs:
                break
            measured += not d.warmup
            self.attempted += 1
            if tracer is not None:
                tracer.doc = d.id
                tracer.enabled = not d.warmup
            doc = to_document(self.api, d)
            try:
                topics, span = self.speed.timed(lambda: classifier.classify_document(doc))
            except Exception:
                traceback.print_exc()
                self.failed += 1
                continue
            finally:
                if tracer is not None:
                    tracer.enabled = False
            problem = check_topics(topics, self.entities)
            if problem is not None:
                self.bad_outputs.append(f"{d.id}: {problem}")
            if not d.warmup:
                latencies.append(span)
                digest.update(digest_line(d.id, topics).encode() + b"\n")
                gold_hits += any(t.entity == d.gold for t in topics)
        if not self.digests:
            self.gold_hits = gold_hits
        self.digests.append(digest.hexdigest())
        return latencies


def install_classify_tracing(tracer: Tracer) -> None:
    import kbtopics.index as index
    import kbtopics.pipeline as pipeline

    def mentions(t, _a, result):
        t.counts["mentions"] += len(result)

    def hits(t, _a, result):
        t.counts["hits"] += len(result)
        t.samples["hit_uris"].extend(str(h.record.uri) for h in result)

    def rows(t, _a, result):
        t.counts["block_rows"] += len(result.lex_rows)

    def reads(t, args, _r):
        # one lexical and one semantic read per handle
        t.counts["vector_reads"] += 2 * len(args[1])

    def ranked(t, args, _r):
        t.counts["rows_scored"] += sum(len(b) for b in args[1])

    def graph(t, _a, result):
        t.samples["nodes"].append(len(result.nodes))
        t.samples["pairs"].append(len(result.edges))

    def topics(t, _a, result):
        t.samples["topics"].append(len(result))

    # Vector reads are timed per entity through load_vectors, one level above
    # the per-row VectorStore reads, so that the wrapper's own cost stays a
    # small share of what it measures.
    for owner, attr, name, observe in [
        (pipeline.Classifier, "classify_document", "pipeline.classify", topics),
        (pipeline.Classifier, "detect", "mentions.detect", mentions),
        (index.CandidateIndex, "query", "index.query", hits),
        (index.CandidateIndex, "candidate_block", "index.block_load", rows),
        (index.CandidateIndex, "load_vectors", "vector_store.read", reads),
        (pipeline, "lexical_vector", "vectors.encode", None),
        (pipeline, "semantic_vector", "vectors.encode", None),
        (pipeline, "rank_candidates", "ranking.rank", ranked),
        (pipeline, "build_similarity", "coherence.similarity", graph),
        (pipeline, "greedy_prune", "coherence.prune", None),
        (pipeline, "apply_boosts", "coherence.boost", None),
        (pipeline, "aggregate", "selection", None),
        (pipeline, "enhance_with_parents", "selection", None),
        (pipeline, "kneedle_cutoff", "selection", None),
    ]:
        tracer.install(owner, attr, name, observe)


def serve(api, args, work: Path, model: gen.Model) -> dict:
    """Build, open and classify; the measurements of one run, times at
    reference speed (speed.py)."""
    config = api.load_config(work / "config.yaml")
    speed = Speed()
    speed.start()
    try:
        out = timed_work(api, args, work, model, config, speed)
    finally:
        speed.stop()
    builds, runner = out["builds"], out.get("runner")
    builds.seconds = [speed.scaled(s) for s in builds.spans]
    if runner is not None:
        runner.setup_times = [speed.scaled(s) for s in runner.setup_spans]
        out["raw_passes"] = [[s.raw for s in p] for p in out["passes"]]
        out["passes"] = [[speed.scaled(s) for s in p] for p in out["passes"]]
        if "traced_latencies" in out:
            out["raw_traced_s"] = sum(s.raw for s in out["traced_latencies"])
            out["traced_latencies"] = [speed.scaled(s) for s in out["traced_latencies"]]
    return out


def timed_work(api, args, work: Path, model: gen.Model, config, speed: Speed) -> dict:
    """Everything a run times, while the speed sampler runs; times as spans."""
    import kbtopics.index as index
    import kbtopics.pipeline as pipeline
    import kbtopics.vectors as vectors

    shape = gen.SHAPES[args.workload]
    builds = Builds(api, config, work, speed)
    tracer = Tracer(clock=speed.clock)
    if args.trace:
        def hoods(t, _args, result):
            t.samples["hoods"] = [len(h) for h in result.values()]
        tracer.install(pipeline, "expand_all", "expansion.expand_all", hoods)
        tracer.enabled = True
    builds.once()
    tracer.enabled = False
    tracer.uninstall()
    out: dict = {"builds": builds, "build_rss_mb": peak_rss_mb(),
                 "hoods": tracer.samples.pop("hoods", None), "passes": []}
    if builds.index is None:
        return out

    runner = Passes(api, args, model, builds, speed)
    out["runner"] = runner
    if args.trace:
        tracer.install(index.CandidateIndex, "open", "index.open")
        tracer.install(vectors.EmbeddingTable, "load", "vectors.table_load")
    for _ in range(EXTRA_OPENS):
        runner.open(tracer)

    passes = out["passes"]
    serving = 0.0

    def one_pass() -> bool:
        nonlocal serving
        t0 = time.perf_counter()
        classifier = runner.open(tracer)
        if classifier is None:
            return False
        passes.append(runner.run_pass(classifier))
        serving += time.perf_counter() - t0
        return True

    # Rebuilds alternate with passes, so that the samples of one operation
    # fall in different stretches of the run, not back to back.
    for round_ in range(max(shape.passes, shape.builds)):
        if 0 < round_ < shape.builds:
            builds.once()
        if round_ < shape.passes and not one_pass():
            break
    while len(passes) >= shape.passes and serving < args.seconds:
        if not one_pass():
            break
    out["peak_rss_mb"] = peak_rss_mb()

    if args.trace and passes:
        # the same documents again from a fresh classifier, tracer on
        classifier = runner.open(tracer)
        if classifier is not None:
            install_classify_tracing(tracer)
            out["traced_latencies"] = runner.run_pass(classifier, tracer)
            del classifier
        tracer.uninstall()
        hot = {model.entities[i].uri for i in model.hot}
        hit_uris = tracer.samples.pop("hit_uris", [])
        out.update({
            "setup_layers": {
                name: statistics.median(s[2] - s[1] for s in tracer.spans if s[0] == name)
                for name in ("index.open", "vectors.table_load")
                if any(s[0] == name for s in tracer.spans)
            },
            "self_times": tracer.self_times(),
            "calls": tracer.calls(),
            "counts": dict(tracer.counts),
            "samples": dict(tracer.samples),
            "distinct_hits": len(set(hit_uris)),
            "hot_hit_share": (sum(u in hot for u in hit_uris) / len(hit_uris)
                              if hot and hit_uris else None),
        })
        tracer.write(work / "spans.jsonl")
    out["unmeasured"] = sorted(tracer.unmeasured)
    return out


def doc_latencies(passes: list[list[float]]) -> list[float]:
    """Each document's median over the passes.

    Every pass repeats identical work; at reference speed what is left
    between passes is noise in the speed estimate, which is as likely to
    read low as high, so the median and not the fastest pass.
    """
    return [statistics.median(times) for times in zip(*passes)]


def end_to_end(builds: Builds, index_bytes: dict, out: dict) -> dict:
    lat = doc_latencies(out["passes"])
    runner = out["runner"]
    return {
        "build_s": metric(statistics.median(builds.seconds), "s"),
        "setup_s": metric(statistics.median(runner.setup_times), "s"),
        "docs_per_s": metric(len(lat) / sum(lat), "docs/s"),
        "doc_latency_p50_ms": metric(1e3 * statistics.median(lat), "ms"),
        "doc_latency_p90_ms": metric(1e3 * percentile(lat, 90), "ms"),
        "peak_rss_mb": metric(out["peak_rss_mb"], "MB"),
        "index_mb": metric(sum(index_bytes.values()) / 1e6, "MB"),
        "gold_hit_rate": metric(runner.gold_hits / len(lat), "ratio"),
    }


def per_layer(builds: Builds, counts: dict, index_bytes: dict,
              out: dict) -> tuple[dict, list[str]]:
    unmeasured = {m for span in out["unmeasured"] for m in SPAN_METRICS[span]}
    result = {}
    stages = builds.stages()
    for stage, name in STAGES.items():
        result[name] = metric(stages.get(stage, 0.0), "s")
        if stage not in stages:
            unmeasured.add(name)
    for name, value in counts.items():
        result[name] = metric(value or 0, "count")
        if value is None:
            unmeasured.add(name)
    hoods = out["hoods"] or [0]
    result["expansion.hood_mean"] = metric(statistics.mean(hoods), "count")
    result["expansion.hood_max"] = metric(max(hoods), "count")
    result["expansion.hood_capped_share"] = metric(
        sum(h >= gen.MAX_NEIGHBORS for h in hoods) / len(hoods), "ratio")
    for f in INDEX_FILES:
        result[f"index.bytes.{f}"] = metric(index_bytes.get(f, 0), "bytes")
        if f not in index_bytes:
            unmeasured.add(f"index.bytes.{f}")
    result["build.peak_rss_mb"] = metric(out["build_rss_mb"], "MB")
    for span, name in (("index.open", "index.open_s"),
                       ("vectors.table_load", "vectors.table_load_s")):
        result[name] = metric(out["setup_layers"].get(span, 0.0), "s")

    self_times, calls, tcounts = out["self_times"], out["calls"], out["counts"]
    samples = out["samples"]
    traced = out["traced_latencies"]
    result["pipeline.classify_s"] = metric(out["raw_traced_s"], "s")
    for span in CLASSIFY_SPANS:
        result[SPAN_METRICS[span][0]] = metric(self_times.get(span, 0.0), "s")
    queries = calls.get("index.query", 0)
    loads = calls.get("index.block_load", 0)
    hits = tcounts.get("hits", 0)
    rank_s = self_times.get("ranking.rank", 0.0)
    result.update({
        "mentions.per_doc": metric(tcounts.get("mentions", 0) / len(traced), "count"),
        "index.query_calls": metric(queries, "count"),
        "index.hits_per_query": metric(hits / queries if queries else 0.0, "count"),
        "index.block_loads": metric(loads, "count"),
        "index.block_rows_mean": metric(
            tcounts.get("block_rows", 0) / loads if loads else 0.0, "count"),
        "vector_store.reads": metric(tcounts.get("vector_reads", 0), "count"),
        "pipeline.block_cache_hit_rate": metric(1 - loads / hits if hits else 0.0, "ratio"),
        "ranking.rows_scored": metric(tcounts.get("rows_scored", 0), "count"),
        "ranking.rows_per_s": metric(
            tcounts.get("rows_scored", 0) / rank_s if rank_s else 0.0, "rows/s"),
        "coherence.nodes_mean": metric(statistics.mean(samples.get("nodes") or [0]), "count"),
        "coherence.pairs_linked_mean": metric(
            statistics.mean(samples.get("pairs") or [0]), "count"),
        "selection.topics_mean": metric(statistics.mean(samples.get("topics") or [0]), "count"),
        "trace.overhead": metric(sum(out["passes"][-1]) / sum(traced), "ratio"),
    })
    return result, sorted(unmeasured)


def properties(builds: Builds, counts: dict, out: dict, wall: float) -> dict:
    """Measured shape of the workload's inputs, printed beside the metrics."""
    lat = doc_latencies(out["passes"])
    raw_lat = doc_latencies(out["raw_passes"])
    p90 = percentile(lat, 90)
    props = {
        "raw_build_s": round(statistics.median(s.raw for s in builds.spans), 4),
        "raw_setup_s": round(statistics.median(s.raw for s in out["runner"].setup_spans), 4),
        "raw_docs_per_s": round(len(raw_lat) / sum(raw_lat), 3),
        "raw_over_reference_time": round(sum(raw_lat) / sum(lat), 3),
        "triples": counts["kb.triples"],
        "entities": counts["kb.entities"],
        "builds_timed": len(builds.seconds),
        "passes": len(out["passes"]),
        "run_wall_s": round(wall, 1),
        "build_share_of_timed": round(sum(s.raw for s in builds.spans) / (
            sum(s.raw for s in builds.spans) + sum(s.raw for s in out["runner"].setup_spans)
            + sum(map(sum, out["raw_passes"]))), 3),
        "docs_timed": len(lat),
        "p90_samples_beyond": sum(x > p90 for x in lat),
    }
    if out["hoods"]:
        props["hood_mean"] = round(statistics.mean(out["hoods"]), 2)
        props["hood_max"] = max(out["hoods"])
    if "counts" in out:
        queries = out["calls"].get("index.query", 0)
        props["candidates_per_mention"] = round(
            out["counts"].get("hits", 0) / queries, 2) if queries else None
        props["distinct_blocks_touched"] = out["distinct_hits"]
        props["hot_share_of_blocks_touched"] = out["hot_hit_share"]
    return props


def pin_to_one_cpu() -> None:
    """Keep the run on one CPU, the last it may use.

    On a shared machine each CPU has its own load from neighbours, and a
    process that migrates between CPUs takes on a different mix of them in
    each run. CPU 0 often also handles more interrupts than the others.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def import_library():
    """Import kbtopics from the checkout's src."""
    sys.path.insert(0, str(SRC))
    import kbtopics
    found = Path(kbtopics.__file__).resolve().parent
    if found != SRC / "kbtopics":
        raise ImportError(f"kbtopics imported from {found}, expected {SRC / 'kbtopics'}")
    return kbtopics


def run(args) -> int:
    started = time.monotonic()
    if not (SRC / "kbtopics" / "__init__.py").is_file() or not EMBEDDINGS.is_file():
        print(f"no kbtopics sources under {ROOT}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    api = import_library()
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    model = gen.write_inputs(args.workload, args.seed, work, EMBEDDINGS)
    try:
        out = serve(api, args, work, model)
        builds = out["builds"]
        index_bytes = dir_bytes(builds.index) if builds.index else {}
    finally:
        for leftover in [work / "kb.nt", *work.glob("index*")]:
            if leftover.is_dir():
                shutil.rmtree(leftover, ignore_errors=True)
            else:
                leftover.unlink(missing_ok=True)
    runner = out.get("runner")
    failed = builds.failed + (runner.failed if runner else 0)
    attempted = len(builds.seconds) + builds.failed + (runner.attempted if runner else 0)
    if builds.report is None:
        print("error: index build failed", file=sys.stderr)
        return 1
    if failed:
        print(f"error: {failed} of {attempted} operations failed", file=sys.stderr)
        return 1
    if len(out["passes"]) < gen.SHAPES[args.workload].passes or (
            args.trace and "traced_latencies" not in out):
        print("error: too few passes were classified", file=sys.stderr)
        return 1

    report = builds.report
    counts = {
        "kb.triples": detail_count(report, "load", r"(\d+) triples"),
        "kb.entities": detail_count(report, "load", r"(\d+) entities"),
        "edges.weighted_edges": detail_count(report, "edge-weights", r"(\d+) weighted edges"),
    }
    e2e = end_to_end(builds, index_bytes, out)
    floor = GOLD_FLOOR[args.workload]
    problems = list(runner.bad_outputs[:20])
    if len(set(runner.digests)) > 1:
        problems.append("topics differ between passes over the same documents")
    if e2e["gold_hit_rate"]["value"] < floor:
        problems.append(f"gold hit rate {e2e['gold_hit_rate']['value']:.3f} below {floor}")

    print(f"workload {args.workload}, seed {args.seed}: {model.triples} distinct triples "
          f"in {model.lines} lines, {len(model.entities)} labelled entities; "
          f"one client, jobs=1, trace {args.trace}")
    props = properties(builds, counts, out, time.monotonic() - started)
    notes = {
        "build_s": f"({props['triples']} triples, {props['entities']} entities loaded; "
                   f"median of {props['builds_timed']} builds)",
        "docs_per_s": f"(each document's median of {props['passes']} passes)",
        "doc_latency_p90_ms": f"({props['docs_timed']} samples, "
                              f"{props['p90_samples_beyond']} beyond)",
    }
    if args.trace:
        metrics, unmeasured = per_layer(builds, counts, index_bytes, out)
    else:
        metrics, unmeasured = e2e, []
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']:7s} {notes.get(name, '')}".rstrip())
    print(f"  {'error_rate':32s} {failed / attempted:14.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    print("properties: " + json.dumps(props, sort_keys=True))
    if unmeasured:
        print("unmeasured (reported as 0): " + ", ".join(unmeasured))
    print(f"digest: {runner.digests[0]} (topics of the {props['docs_timed']} documents "
          f"of a pass; {len(runner.digests)} passes)")
    for p in problems:
        print(f"check failed: {p}")
    (work / "result.json").write_text(json.dumps(
        {"build_seconds": builds.seconds, "raw_build_seconds": [s.raw for s in builds.spans],
         "setup_seconds": runner.setup_times,
         "raw_setup_seconds": [s.raw for s in runner.setup_spans],
         "passes": out["passes"], "raw_passes": out["raw_passes"], "properties": props, "metrics": metrics},
        sort_keys=True, indent=1), encoding="utf-8")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def on_deadline(_signum, _frame):
    print(f"error: the run went past its {DEADLINE_S} s deadline", file=sys.stderr)
    sys.stderr.flush()
    os._exit(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
