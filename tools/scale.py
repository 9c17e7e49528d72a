"""Corpus, pipeline and X-means wall time on an N-record store, in a fresh interpreter per run.

    python3 tools/scale.py [--records N] [--checkout DIR] [--runs R] [--k-max K]

The store holds N geotagged tweets in 10 Gaussian blobs of equal size
(sigma 0.01 deg). Their centres are drawn uniformly in lat 6.0 to 6.5 and
lon -75.7 to -75.2 with ``default_rng(7)``, and every text holds one of the
default keywords. This tool writes ``tweet.jsonl`` itself, one canonical
envelope per line and no fsync, so a 1M-record store takes seconds to build
and every checkout reads the same bytes.

Each run starts a new interpreter with CHECKOUT/src on the path. It opens
the store read-only, times ``pipeline.build_corpus(store, keywords, bbox)``,
then times ``pipeline.run_pipeline`` with the default ``PipelineConfig``
(eps 5 km, min_pts 5, k = 10), then ``xmeans(x, XMeansConfig(10, K))`` on
the rows DBSCAN kept (K = 10 by default). It prints one JSON line: the three
wall times, the interpreter's peak RSS (numpy and all results included),
and the clustered, noise and purged record counts with the cluster count.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PHRASES = ("arriba Medellín", "gran FIESTA hoy", "I'm at Parque Lleras 4sq.com/x")

CHILD = """
import json, resource, sys, time
from geozones.pipeline import PipelineConfig, XMeansConfig, build_corpus, run_pipeline, xmeans
from geozones.store import DocumentStore
cfg = PipelineConfig(store_dir=sys.argv[1])
with DocumentStore(cfg.store_dir, read_only=True) as store:
    start = time.perf_counter()
    build_corpus(store, cfg.keywords, cfg.bbox)
    corpus_s = time.perf_counter() - start
start = time.perf_counter()
result = run_pipeline(cfg)
pipeline_s = time.perf_counter() - start
start = time.perf_counter()
xmeans(result.records.x, XMeansConfig(10, int(sys.argv[2])))
xmeans_s = time.perf_counter() - start
print(json.dumps({
    "build_corpus_s": round(corpus_s, 4),
    "run_pipeline_s": round(pipeline_s, 4),
    "xmeans_s": round(xmeans_s, 4),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "records": len(result.records),
    "noise": len(result.noise),
    "purged": len(result.purged),
    "clusters": result.labeling.n_clusters,
}))
"""


def write_store(directory: Path, n: int) -> None:
    """``tweet.jsonl`` with n canonical envelopes, the bytes ``DocumentStore.put`` writes."""
    rng = np.random.default_rng(7)
    centres = np.c_[rng.uniform(6.0, 6.5, 10), rng.uniform(-75.7, -75.2, 10)]
    sizes = np.full(10, n // 10) + (np.arange(10) < n % 10)
    points = np.concatenate([c + rng.normal(0.0, 0.01, size=(m, 2)) for c, m in zip(centres, sizes)])
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "tweet.jsonl", "w", encoding="utf-8") as fh:
        for doc_id, (lat, lon) in enumerate(points.tolist()):
            body = {
                "coordinates": {"coordinates": {"latitude": lat, "longitude": lon}, "type": "Point"},
                "source": "scale",
                "text": f"{PHRASES[doc_id % len(PHRASES)]} #{doc_id}",
            }
            text = json.dumps(body, ensure_ascii=False, separators=(",", ":"), sort_keys=True)
            fh.write(f'{{"body":{text},"doc_id":{doc_id},"len":{len(text.encode("utf-8"))}}}\n')


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=100_000)
    parser.add_argument("--checkout", type=Path, default=ROOT, help="repository checkout whose pipeline runs")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--k-max", type=int, default=10, help="X-means timed on the kept rows with k 10..K")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="geozones-scale-") as tmp:
        store = Path(tmp) / "store"
        write_store(store, args.records)
        env = dict(os.environ, PYTHONPATH=str(args.checkout.resolve() / "src"))
        env.pop("ZONE_SEED", None)
        for _ in range(args.runs):
            subprocess.run([sys.executable, "-c", CHILD, str(store), str(args.k_max)], env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
