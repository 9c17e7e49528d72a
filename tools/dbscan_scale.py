"""DBSCAN wall time and peak RSS on a fixed input, in a fresh interpreter per run.

    python3 tools/dbscan_scale.py {paper-medellin,blobs-100k} [--checkout DIR] [--runs N]

Inputs, both built with this checkout's code so two checkouts get the same
points, and both clustered with eps 5 km and min_pts 5:

- ``paper-medellin``: the 6.6k clusterable points of the perfbench workload
  at seed 11 (payloads generated at scale 1, ingested with the CLI, read
  back with ``pipeline.build_corpus``).
- ``blobs-100k``: 100k points in 10 Gaussian blobs of 10k (sigma 0.01 deg),
  centres drawn uniformly inside the study area from a fixed seed.

Each run loads the points in a new interpreter with CHECKOUT/src on the
path, times ``clustering.dbscan`` alone and prints one JSON line with
``wall_s``, the interpreter's peak RSS (``peak_rss_mb``, numpy and the
points included), the cluster count and the noise count.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from geozones.corpus import DEFAULT_STUDY_AREA  # noqa: E402
from geozones.pipeline import PipelineConfig, build_corpus  # noqa: E402
from geozones.store import DocumentStore  # noqa: E402
from perfbench.workloads import generate  # noqa: E402

CHILD = """
import json, resource, sys, time
import numpy as np
from geozones.clustering import DbscanConfig, dbscan
x = np.load(sys.argv[1])
start = time.perf_counter()
labeling = dbscan(x, DbscanConfig(eps_km=5.0, min_pts=5))
wall = time.perf_counter() - start
print(json.dumps({
    "wall_s": round(wall, 4),
    "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    "clusters": labeling.n_clusters,
    "noise": int((labeling.labels < 0).sum()),
}))
"""


def medellin_points(work: Path) -> np.ndarray:
    generate("paper-medellin", 11, work / "payload", scale=1.0)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "geozones.cli", "ingest", "--input", str(work / "payload" / "tweet"),
         "--kind", "tweet", "--store", str(work / "store")],
        env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    cfg = PipelineConfig(store_dir=work / "store")
    with DocumentStore(work / "store", read_only=True) as store:
        records, _ = build_corpus(store, cfg.keywords, cfg.bbox)
    return np.array([(r.position.lat_deg, r.position.lon_deg) for r in records])


def blob_points() -> np.ndarray:
    area = DEFAULT_STUDY_AREA
    rng = np.random.default_rng(2015)
    centres = np.c_[rng.uniform(area.min_lat, area.max_lat, 10), rng.uniform(area.min_lon, area.max_lon, 10)]
    return np.concatenate([c + rng.normal(0.0, 0.01, size=(10_000, 2)) for c in centres])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("points", choices=("paper-medellin", "blobs-100k"))
    parser.add_argument("--checkout", type=Path, default=ROOT, help="repository checkout whose dbscan runs")
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="dbscan-scale-") as tmp:
        work = Path(tmp)
        x = medellin_points(work) if args.points == "paper-medellin" else blob_points()
        np.save(work / "points.npy", x)
        env = dict(os.environ, PYTHONPATH=str(args.checkout.resolve() / "src"))
        for _ in range(args.runs):
            subprocess.run([sys.executable, "-c", CHILD, str(work / "points.npy")], env=env, check=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
