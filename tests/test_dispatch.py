"""Labels, GeoJSON bytes and report are the same with numpy's AVX-512 kernels turned off.

numpy picks SIMD kernels for the CPU when it is imported. Its AVX-512 arcsin
and log are not libm and round some inputs differently, so a decision that
rests on them can differ between hosts. A child process started with
``tools.fingerprint.avx512_off_env`` takes the baseline kernels; the same work
runs there and here, and the results must be equal. On a CPU without AVX-512
both sides take the same kernels, and the test can show no difference.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from geozones.clustering import DbscanConfig, XMeansConfig, dbscan
from geozones.geo import GeoPoint, haversine_distance
from geozones.pipeline import PipelineConfig, run_pipeline
from tools.fingerprint import avx512_off_env

from .conftest import make_blobs, populate_store

ROOT = Path(__file__).resolve().parent.parent
# Their distance reads 6.731296013719693 km through numpy's AVX-512 arcsin and
# 6.731296013719695 km through the baseline one.
PAIR = [GeoPoint(6.25, -75.5), GeoPoint(6.243357856319039, -75.43947011193363)]
PAIR_EPS_KM = 6.731296013719693
FAR = [GeoPoint(-60.0 + 3.0 * i, 100.0) for i in range(40)]


def build_store(directory: Path, seed: int) -> None:
    """Two blobs, points drawn uniformly in the study area at least 20 km from the pair, and the pair."""
    rng = np.random.default_rng(seed)
    points = make_blobs([(6.5, -75.2), (6.0, -75.7)], sigma=0.01, n_per=30, seed=seed)
    drawn = [GeoPoint(lat, lon) for lat, lon in zip(rng.uniform(5.9, 6.6, 40), rng.uniform(-75.8, -75.1, 40))]
    points += [p for p in drawn if min(haversine_distance(p, q) for q in PAIR) > 20.0] + PAIR
    populate_store(directory, points, texts=["fiesta en Medellín"] * len(points))


def results(directory: Path, tag: str) -> dict:
    """The padded pair's labels, and the report and GeoJSON text of ``run_pipeline`` on each store in ``directory``."""
    pair = dbscan(PAIR + FAR, DbscanConfig(eps_km=PAIR_EPS_KM, min_pts=2)).labels.tolist()
    runs = {}
    for store in sorted(directory.glob("store-*")):
        output = directory / f"{tag}-{store.name}.geojson"
        cfg = PipelineConfig(
            store_dir=str(store),
            xmeans=XMeansConfig(k_min=2, k_max=5),
            dbscan=DbscanConfig(eps_km=PAIR_EPS_KM, min_pts=2),
            output_path=str(output),
            include_members=True,
        )
        runs[store.name] = [run_pipeline(cfg).report, output.read_text(encoding="utf-8")]
    return {"pair": pair, "runs": runs}


def test_results_equal_with_avx512_off(tmp_path):
    for seed in range(3):
        build_store(tmp_path / f"store-{seed}", seed)
    env = avx512_off_env()
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    child = subprocess.run(
        [sys.executable, "-c", "import json, sys; from pathlib import Path; from tests.test_dispatch import results; "
         "print(json.dumps(results(Path(sys.argv[1]), 'child')))", str(tmp_path)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr[-2000:]
    here = results(tmp_path, "parent")
    assert json.loads(child.stdout) == here
    assert here["pair"][:2] == [-1, -1]  # within eps only through the AVX-512 arcsin
