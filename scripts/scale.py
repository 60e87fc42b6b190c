"""Scaling sweep: build, open and classify at several KB sizes.

    python3 scripts/scale.py [--out BENCH_scale.json]

Run from the root of a checkout; it imports ``kbtopics`` from the
checkout's ``src/``. Each of ``SIZES`` (entity counts) is generated by
``perfbench/gen.py`` with the ``classify-cold`` workload's shape, seed
``SEED`` and only its entity count changed (gen.py is imported, not
modified), and runs in its own process, so that its peak RSS is its own.
Per size it records:

- the distinct triples kept and the lines written;
- the build's seconds per stage, and in all;
- the bytes of the index's data files (``strings.json``, ``columns.bin``);
- the seconds to open a classifier on the index;
- per-document p50 and p90 latency: the best of ``PASSES`` passes over the
  workload's documents, each pass with a fresh classifier;
- peak RSS, and the peak before the build (the generator's own share).

Times are wall-clock seconds on the machine that runs it, not the
benchmark's reference speed. Work files go to a temporary directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy is first imported
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from kbtopics import Document, build_index_from_config, load_config, open_classifier  # noqa: E402
from kbtopics.index import COLUMNS_FILE, STRINGS_FILE  # noqa: E402

SHAPE = "classify-cold"
SIZES = (1000, 4000, 16000, 64000)
SEED = 1
PASSES = 3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one_size(entities: int, work: Path) -> dict:
    """Generate, build, open and classify at one size."""
    workload = f"{SHAPE}-{entities}"
    gen.SHAPES[workload] = dataclasses.replace(gen.SHAPES[SHAPE], entities=entities)
    model = gen.write_inputs(workload, SEED, work, ROOT / "data" / "toy_embeddings.txt")
    config = load_config(work / "config.yaml")
    generator_rss = peak_rss_mb()
    started = time.perf_counter()
    report = build_index_from_config(config, work / "index")
    build_s = time.perf_counter() - started
    docs = []
    for d in gen.documents(workload, SEED, model):
        if len(docs) == model.shape.docs:
            break
        docs.append(Document(id=d.id, title=d.title, abstract=d.abstract,
                             keywords=d.keywords, provided_mentions=d.mentions))
    opens, passes = [], []
    for _ in range(PASSES):
        started = time.perf_counter()
        classifier = open_classifier(work / "index", config)
        opens.append(time.perf_counter() - started)
        times = []
        for doc in docs:
            started = time.perf_counter()
            classifier.classify_document(doc)
            times.append(time.perf_counter() - started)
        classifier.close()
        passes.append(times)
    latencies = [min(times) for times in zip(*passes)]
    stages = {t.name: round(t.seconds, 4) for t in report.timings}
    return {
        "entities": entities,
        "triples": model.triples,
        "lines": model.lines,
        "build_s": round(build_s, 4),
        "stages_s": stages,
        "load_us_per_triple": round(1e6 * stages["load"] / model.triples, 3),
        "index_bytes": {name: (work / "index" / name).stat().st_size
                        for name in (STRINGS_FILE, COLUMNS_FILE)},
        "open_s": round(statistics.median(opens), 4),
        "docs": len(latencies),
        "doc_p50_ms": round(1e3 * statistics.median(latencies), 3),
        "doc_p90_ms": round(1e3 * statistics.quantiles(latencies, n=10)[-1], 3),
        "rss_before_build_mb": round(generator_rss, 1),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_scale.json")
    parser.add_argument("--one", type=int, help=argparse.SUPPRESS)  # child: one size
    args = parser.parse_args(argv)
    if args.one is not None:
        with tempfile.TemporaryDirectory(prefix="kbtopics-scale-") as work:
            print(json.dumps(one_size(args.one, Path(work))))
        return 0
    rows = []
    for entities in SIZES:
        child = subprocess.run(
            [sys.executable, __file__, "--one", str(entities)],
            check=True, capture_output=True, text=True)
        rows.append(json.loads(child.stdout.splitlines()[-1]))
        print(json.dumps(rows[-1]), flush=True)
    result = {"shape": SHAPE, "seed": SEED, "passes": PASSES,
              "python": platform.python_version(), "cpus": os.cpu_count(), "sizes": rows}
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
