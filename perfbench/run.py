"""geozones end-to-end benchmark.

Runs one seeded workload through the user's flow (the CLI's ingest into
an empty store, then run_pipeline to GeoJSON), checks every output against
the generator's ground truth, and prints the metrics. Each measured pass
runs in a fresh interpreter, so peak RSS is that pass's own. The load is
a closed loop with a single caller in one thread (workers=1).

    python3 perfbench/run.py --workload paper-medellin --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics. The exit
code is 0 only when every check passed. ``--write-spec`` regenerates
BENCHMARK.json at the repository root from the definitions below.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, generate  # noqa: E402

RUN_SECONDS = 50
# Workloads listed in BENCHMARK.json. zones-many stays runnable by name; it is
# left out because three workloads only fit the hour of repeated runs at 30 s
# a run, and at 30 s host speed swings spread its medians past the bounds.
BENCHMARK_WORKLOADS = ("paper-medellin", "ingest-mixed")
SETUP_PROBES_PER_PASS = 3
WORKER_TIMEOUT_S = 170.0
FSYNC_POLICY = "one fsync per DocumentStore.put (no batching)"

END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ingest_rec_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "pipeline_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
)
PER_LAYER = tuple(
    {"name": name, "unit": unit, "better": better}
    for name, unit, better in (
        ("ingest.parse_s", "s", "lower"),
        ("ingest.files", "count", "higher"),
        ("ingest.skipped", "count", "lower"),
        ("ingest.self_s", "s", "lower"),
        ("store.put_s", "s", "lower"),
        ("store.put_p50_us", "us", "lower"),
        ("store.put_p99_us", "us", "lower"),
        ("store.fsync_s", "s", "lower"),
        ("store.fsyncs", "count", "lower"),
        ("store.bytes_per_record", "B", "lower"),
        ("store.open_s", "s", "lower"),
        ("store.scan_s", "s", "lower"),
        ("store.scan_docs", "count", "lower"),
        ("corpus.build_self_s", "s", "lower"),
        ("corpus.normalize_s", "s", "lower"),
        ("corpus.filter_keywords_s", "s", "lower"),
        ("corpus.filter_bbox_s", "s", "lower"),
        ("corpus.dedupe_s", "s", "lower"),
        ("corpus.records_in", "count", "lower"),
        ("corpus.keyword_dropped", "count", "lower"),
        ("corpus.bbox_purged", "count", "lower"),
        ("corpus.dup_dropped", "count", "lower"),
        ("clustering.dbscan_s", "s", "lower"),
        ("clustering.dbscan_peak_mb", "MB", "lower"),
        ("clustering.haversine_to_many_calls", "count", "lower"),
        ("clustering.dbscan_clusters", "count", "lower"),
        ("clustering.dbscan_noise", "count", "lower"),
        ("clustering.xmeans_s", "s", "lower"),
        ("clustering.kmeans_calls", "count", "lower"),
        ("clustering.kmeans_s", "s", "lower"),
        ("clustering.xmeans_k", "count", "lower"),
        ("coverage.summarize_s", "s", "lower"),
        ("coverage.circle_s", "s", "lower"),
        ("coverage.haversine_calls", "count", "lower"),
        ("export.build_s", "s", "lower"),
        ("export.write_s", "s", "lower"),
        ("export.bytes", "B", "lower"),
        ("pipeline.self_s", "s", "lower"),
        ("trace.ingest_s", "s", "lower"),
        ("trace.pipeline_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    )
)


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOADS[n].why} for n in BENCHMARK_WORKLOADS],
        "end_to_end": list(END_TO_END),
        "per_layer": list(PER_LAYER),
    }


def machine_info(work: Path) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "store_filesystem": _filesystem_of(work),
        "fsync_policy": FSYNC_POLICY,
        "note": "fsync and disk latencies are those of this host's storage stack (often a VM or container), not of a device",
    }


def _filesystem_of(path: Path) -> str:
    """Type of the longest mount point containing ``path``, from /proc/mounts."""
    best, fstype = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fstype
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) >= 3 and (target == fields[1] or target.startswith(fields[1].rstrip("/") + "/")):
            if len(fields[1]) > len(best):
                best, fstype = fields[1], fields[2]
    return fstype


class Runner:
    """Starts worker passes and setup probes; collects their results."""

    def __init__(self, workload: str, work: Path, started: float):
        self.workload = workload
        self.work = work
        self.started = started
        self.passes = 0
        self.errors: list[str] = []

    def _timeout(self) -> float:
        return max(5.0, WORKER_TIMEOUT_S - (time.perf_counter() - self.started))

    def worker(self, mode: str) -> dict | None:
        """One pass in a fresh interpreter, ingesting into a new store."""
        i = self.passes
        self.passes += 1
        store = self.work / f"store-{i}"
        result_path = self.work / f"result-{i}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.workload,
            "--payload", str(self.work / "payload"),
            "--store", str(store),
            "--output", str(self.work / f"zones-{i}.geojson"),
            "--result", str(result_path),
            "--mode", mode,
        ]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=self._timeout())
        except subprocess.TimeoutExpired:
            self.errors.append(f"{mode} pass {i} timed out")
            return None
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            self.errors.append(f"{mode} pass {i} exited {proc.returncode}: {tail}")
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result["store"] = str(store)
        return result

    def setup_probe(self, store: Path) -> float | None:
        """Seconds for a fresh interpreter to import geozones and open ``store`` read-only."""
        probe = (
            "import sys, time\n"
            "t0 = time.perf_counter()\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import geozones\n"
            "geozones.DocumentStore(sys.argv[2], read_only=True).close()\n"
            "print(repr(time.perf_counter() - t0))\n"
        )
        cmd = [sys.executable, "-c", probe, str(ROOT / "src"), str(store)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=self._timeout())
        except subprocess.TimeoutExpired:
            self.errors.append("setup probe timed out")
            return None
        if proc.returncode != 0:
            self.errors.append(f"setup probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return None
        return float(proc.stdout.strip())


def _drop_store(result: dict | None):
    if result is not None:
        shutil.rmtree(result["store"], ignore_errors=True)


def _keep_going(started: float, seconds: float, last_pass_s: float) -> bool:
    """Start another pass only if it is expected to end near the deadline."""
    return time.perf_counter() + last_pass_s / 2 < started + seconds


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    """Plain passes for ``seconds`` (at least two).

    Setup probes follow each pass on the store it left, so they sample the
    same stretch of machine time as the passes.
    """
    started = time.perf_counter()
    passes: list[dict] = []
    probes: list[float] = []
    last = 0.0
    while len(passes) < 2 or _keep_going(started, seconds, last):
        t0 = time.perf_counter()
        p = runner.worker("plain")
        if p is None:
            break
        passes.append(p)
        probes += [runner.setup_probe(Path(p["store"])) for _ in range(SETUP_PROBES_PER_PASS)]
        _drop_store(p)
        last = time.perf_counter() - t0
    metrics = {}
    probes = [t for t in probes if t is not None]
    if probes:
        metrics["setup_s"] = statistics.median(probes)
    if passes:
        metrics["ingest_rec_per_s"] = statistics.median(p["files"] / p["ingest_s"] for p in passes)
        metrics["pipeline_s"] = statistics.median(t for p in passes for t in p["pipeline_s"])
        metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    return metrics, passes


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, list[dict], list[str]]:
    """Rounds of one plain and one traced pass until ``seconds`` have passed.

    Per-layer figures are medians over the traced passes; the overhead is
    the traced pipeline_s against the plain one.
    """
    started = time.perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    last = 0.0
    while not traced or _keep_going(started, seconds, last):
        t0 = time.perf_counter()
        p = runner.worker("plain")
        _drop_store(p)
        t = runner.worker("trace")
        _drop_store(t)
        if p is None or t is None:
            break
        plain.append(p)
        traced.append(t)
        last = time.perf_counter() - t0
    metrics: dict[str, float] = {}
    missing = sorted({m for r in traced for m in r["missing"]})
    for name in sorted({n for r in traced for n in r["layers"]}):
        metrics[name] = statistics.median(r["layers"][name] for r in traced)
    if "trace.pipeline_s" in metrics:
        untraced = statistics.median(t for p in plain for t in p["pipeline_s"])
        metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.pipeline_s"] / untraced - 1.0)
    return metrics, plain + traced, missing


def _print_self_times(traced: dict):
    """Self-time table of one traced pass; the self times add up to its spans."""
    rows = traced["self_times"]
    print("# self times of the first traced pass:")
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"#   {name:24s} calls={row['calls']:<7d} total={row['total_s']:.4f}s self={row['self_s']:.4f}s")
    accounted = sum(r["self_s"] for r in rows.values())
    whole = sum(rows.get(root, {}).get("total_s", 0.0) for root in ("ingest", "pipeline"))
    print(f"# self times sum to {accounted:.4f} s of traced ingest + pipeline {whole:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="geozones end-to-end benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="workload size factor (smoke tests)")
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    for needed in (ROOT / "src" / "geozones" / "__init__.py", ROOT / "tests" / "geojson_schema.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a geozones checkout", file=sys.stderr)
            return 2

    started = time.perf_counter()
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        truth = generate(args.workload, args.seed, work / "payload", args.scale)
        gen_s = time.perf_counter() - t0
        print("# machine: " + json.dumps(machine_info(work)))
        print(
            f"# workload {args.workload} seed={args.seed} scale={args.scale}: "
            f"{truth['files']['tweet']} tweet files, {truth['files']['photo']} photo files, "
            f"{sum(len(v) for v in truth['skips'].values())} malformed, "
            f"{truth['corpus']['clusterable']} clusterable records; generated in {gen_s:.2f} s"
        )
        runner = Runner(args.workload, work, started)
        if args.trace:
            metrics, passes, missing = measure_layers(runner, args.seconds)
        else:
            metrics, passes = measure_end_to_end(runner, args.seconds)
            missing = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    attempted = sum(p["checks"]["attempted"] for p in passes) + len(runner.errors)
    failed = sum(p["checks"]["failed"] for p in passes) + len(runner.errors)
    misses = [m for p in passes for m in p["checks"]["misses"]] + runner.errors
    # Every pipeline run must write the same GeoJSON bytes as the first.
    hashes = [h for p in passes for h in p["geojson_sha256"]]
    attempted += max(0, len(hashes) - 1)
    differing = sum(h != hashes[0] for h in hashes[1:])
    failed += differing
    if differing:
        misses.append(f"{differing} pipeline run(s) wrote GeoJSON differing from the first")
    attempted = max(attempted, 1)

    plain = [p for p in passes if p["mode"] == "plain"]
    counts = {mode: sum(p["mode"] == mode for p in passes) for mode in ("plain", "trace")}
    print("# passes: " + ", ".join(f"{n} {mode}" for mode, n in counts.items() if n))
    if plain:
        samples = [t for p in plain for t in p["pipeline_s"]]
        print(f"# pipeline_s samples: {', '.join(f'{t:.4f}' for t in samples)} (n={len(samples)})")
    units = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}
    for name, value in metrics.items():
        print(f"# {name:36s} {value:14.6g} {units.get(name, '')}")
    print(f"# failed_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    for m in misses[:20]:
        print(f"# MISS {m}")
    for m in missing:
        print(f"# MISSING {m}")
    if args.trace and any(p["mode"] == "trace" for p in passes):
        _print_self_times(next(p for p in passes if p["mode"] == "trace"))

    wanted = PER_LAYER if args.trace else END_TO_END
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in metrics},
    }
    print(json.dumps(report))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
