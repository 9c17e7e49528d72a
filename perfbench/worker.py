"""One measured pass in a fresh interpreter: ingest into an empty store,
run the pipeline, check the outputs, write a JSON result file.

run.py starts it; to debug one pass by hand:

    python3 perfbench/worker.py --workload NAME --payload DIR --store DIR \
        --output FILE.geojson --result FILE.json --mode plain|trace

``plain`` measures with nothing wrapped. ``trace`` wraps geozones'
public functions (see tracing.py) and reports per-layer figures.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from contextlib import nullcontext, redirect_stderr
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(HERE)]

from checks import SUMMARY_LINE, Checks, check_ingest, check_pipeline  # noqa: E402
from tracing import Tracer, span_targets  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

KINDS = ("tweet", "photo")


def ingest(payload: Path, store: Path, tracer) -> tuple[float, dict, object]:
    """The CLI's ingest flow for each payload kind; returns (seconds, outputs, stats)."""
    from geozones import cli

    outputs = {}
    stats = None
    t0 = time.perf_counter()
    with tracer.span("ingest") if tracer else nullcontext():
        for kind in KINDS:
            if (payload / kind).is_dir():
                out, err = io.StringIO(), io.StringIO()
                with redirect_stderr(err):
                    stats = cli.ingest_command(payload / kind, kind, store, out=out)
                outputs[kind] = (out.getvalue(), err.getvalue())
    return time.perf_counter() - t0, outputs, stats


def pipeline_config(workload, store: Path, output: Path):
    from geozones import DbscanConfig, PipelineConfig, XMeansConfig

    return PipelineConfig(
        store_dir=str(store),
        xmeans=XMeansConfig(k_min=workload.k_min, k_max=workload.k_max),
        dbscan=DbscanConfig(eps_km=workload.eps_km, min_pts=workload.min_pts),
        output_path=str(output),
        include_members=workload.include_members,
        workers=1,
    )


def layer_metrics(tracer: Tracer, outputs: dict, payload: Path, store: Path, output: Path):
    """Per-layer figures from the spans, named as in BENCHMARK.json.

    Returns (metrics, missing): a figure whose wrapped target no longer
    exists is listed in ``missing`` and left out of ``metrics``.
    """
    totals = tracer.totals()
    lost = set(tracer.missing)

    def total(span):
        return totals.get(span, {}).get("total_s", 0.0)

    def self_s(span):
        return totals.get(span, {}).get("self_s", 0.0)

    def calls(span):
        return totals.get(span, {}).get("calls", 0)

    def args_of(span):
        return tracer.results[span][0]

    def result_of(span):
        return tracer.results[span][1]

    summaries = [tuple(map(int, m)) for out, _ in outputs.values() for m in SUMMARY_LINE.findall(out)]
    records = sum(parsed for parsed, _ in summaries)
    files = sum(
        1 for kind in outputs for p in (payload / kind).iterdir() if p.is_file() and not p.name.startswith(".")
    )
    store_bytes = sum(
        (store / f"{k}.jsonl").stat().st_size for k in KINDS if (store / f"{k}.jsonl").exists()
    )
    puts_us = np.array(tracer.durations("store.put")) * 1e6
    recipes = {
        "ingest.parse_s": ("ingest.parse", lambda: total("ingest.parse")),
        "ingest.files": (None, lambda: files),
        "ingest.skipped": (None, lambda: sum(skipped for _, skipped in summaries)),
        "ingest.self_s": ("ingest.command", lambda: self_s("ingest.command")),
        "store.put_s": ("store.put", lambda: total("store.put")),
        "store.put_p50_us": ("store.put", lambda: float(np.percentile(puts_us, 50))),
        "store.put_p99_us": ("store.put", lambda: float(np.percentile(puts_us, 99))),
        "store.fsync_s": ("store.fsync", lambda: total("store.fsync")),
        "store.fsyncs": ("store.fsync", lambda: calls("store.fsync")),
        "store.bytes_per_record": (None, lambda: store_bytes / records),
        "store.open_s": ("store.open_ro", lambda: total("store.open_ro")),
        "store.scan_s": ("store.scan", lambda: total("store.scan")),
        "store.scan_docs": ("store.scan", lambda: tracer.counts["store.scan.items"]),
        "corpus.build_self_s": ("corpus.build", lambda: self_s("corpus.build")),
        "corpus.normalize_s": ("corpus.normalize", lambda: total("corpus.normalize")),
        "corpus.filter_keywords_s": ("corpus.filter_keywords", lambda: total("corpus.filter_keywords")),
        "corpus.filter_bbox_s": ("corpus.filter_bbox", lambda: total("corpus.filter_bbox")),
        "corpus.dedupe_s": ("corpus.dedupe", lambda: total("corpus.dedupe")),
        "corpus.records_in": ("corpus.filter_keywords", lambda: len(args_of("corpus.filter_keywords")[0])),
        "corpus.keyword_dropped": (
            "corpus.filter_keywords",
            lambda: len(args_of("corpus.filter_keywords")[0]) - len(result_of("corpus.filter_keywords")),
        ),
        "corpus.bbox_purged": ("corpus.filter_bbox", lambda: len(result_of("corpus.filter_bbox")[1])),
        "corpus.dup_dropped": (
            "corpus.dedupe",
            lambda: len(args_of("corpus.dedupe")[0]) - len(result_of("corpus.dedupe")),
        ),
        "clustering.dbscan_s": ("clustering.dbscan", lambda: total("clustering.dbscan")),
        "clustering.dbscan_peak_mb": (
            "clustering.dbscan",
            lambda: tracer.counts["clustering.dbscan.rss_growth_mb"],
        ),
        "clustering.haversine_to_many_calls": (
            "clustering.haversine_to_many_calls",
            lambda: tracer.counts["clustering.haversine_to_many_calls"],
        ),
        "clustering.dbscan_clusters": (
            "clustering.dbscan",
            lambda: result_of("clustering.dbscan").n_clusters,
        ),
        "clustering.dbscan_noise": (
            "clustering.dbscan",
            lambda: int((np.asarray(result_of("clustering.dbscan").labels) < 0).sum()),
        ),
        "clustering.xmeans_s": ("clustering.xmeans", lambda: total("clustering.xmeans")),
        "clustering.kmeans_calls": ("clustering.kmeans", lambda: calls("clustering.kmeans")),
        "clustering.kmeans_s": ("clustering.kmeans", lambda: total("clustering.kmeans")),
        "clustering.xmeans_k": ("clustering.xmeans", lambda: result_of("clustering.xmeans").n_clusters),
        "coverage.summarize_s": ("coverage.summarize", lambda: total("coverage.summarize")),
        "coverage.circle_s": ("coverage.circle", lambda: total("coverage.circle")),
        "coverage.haversine_calls": (
            "coverage.haversine_calls",
            lambda: tracer.counts["coverage.haversine_calls"],
        ),
        "export.build_s": ("export.build", lambda: total("export.build")),
        "export.write_s": ("export.write", lambda: total("export.write")),
        "export.bytes": (None, lambda: output.stat().st_size),
        "pipeline.self_s": (None, lambda: self_s("pipeline")),
        "trace.ingest_s": (None, lambda: total("ingest")),
        "trace.pipeline_s": (None, lambda: total("pipeline")),
    }
    metrics: dict[str, float] = {}
    missing: list[str] = []
    for name, (span, recipe) in recipes.items():
        gone = [t for t in span_targets(span) if t in lost]
        if gone:
            missing.append(f"{name}: wrapped target missing ({', '.join(gone)})")
        else:
            metrics[name] = recipe()
    return metrics, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--payload", required=True, type=Path)
    parser.add_argument("--store", required=True, type=Path)
    parser.add_argument("--output", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--mode", choices=("plain", "trace"), default="plain")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    truth = json.loads((args.payload / "truth.json").read_text(encoding="utf-8"))
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install()

    from geozones import pipeline

    from tests.geojson_schema import validate_geojson

    out: dict = {"mode": args.mode}
    out["ingest_s"], outputs, stats = ingest(args.payload, args.store, tracer)
    out["files"] = sum(truth["files"][kind] for kind in outputs)

    # A plain pass repeats the pipeline on its store when ingest dominates
    # the pass, so both figures get enough samples in one run.
    cfg = pipeline_config(workload, args.store, args.output)
    out["pipeline_s"], out["geojson_sha256"] = [], []
    for _ in range(1 if tracer else workload.pipeline_runs):
        t0 = time.perf_counter()
        with tracer.span("pipeline") if tracer else nullcontext():
            result = pipeline.run_pipeline(cfg)
        out["pipeline_s"].append(time.perf_counter() - t0)
        raw = args.output.read_bytes()
        out["geojson_sha256"].append(hashlib.sha256(raw).hexdigest())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks run after every timed region.
    checks = Checks()
    for kind, (out_text, err_text) in outputs.items():
        stored = stats.tweet_count if kind == "tweet" else stats.photo_count
        check_ingest(checks, truth, kind, out_text, err_text, stored)
    check_pipeline(checks, truth, result, json.loads(raw), validate_geojson)
    out["checks"] = checks.result()

    if tracer:
        out["layers"], out["missing"] = layer_metrics(tracer, outputs, args.payload, args.store, args.output)
        out["self_times"] = tracer.totals()
    args.result.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
