"""Tiny-size smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that generation is deterministic per seed, that a run at tiny scale
emits every metric of BENCHMARK.json with its unit and passes its checks,
and that BENCHMARK.json matches the definitions in run.py.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SMOKE_SCALE = "0.05"


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_is_deterministic_per_seed(tmp_path, name):
    a = generate(name, 7, tmp_path / "a", scale=float(SMOKE_SCALE))
    b = generate(name, 7, tmp_path / "b", scale=float(SMOKE_SCALE))
    c = generate(name, 8, tmp_path / "c", scale=float(SMOKE_SCALE))
    assert a == b
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


def test_benchmark_json_matches_definitions():
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == run.benchmark_spec()


def _run(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--scale", SMOKE_SCALE],
        capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, spec", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_every_metric_is_emitted_with_its_unit(trace, spec):
    code, report = _run("ingest-mixed", trace)
    assert code == 0
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0 and report["attempted"] >= 1
    assert {name: m["unit"] for name, m in report["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(m["value"], (int, float)) for m in report["metrics"].values())
