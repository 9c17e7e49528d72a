"""The benchmark's result contract, checked on tiny runs of ``perfbench/run.py``.

Every workload in BENCHMARK.json runs once plain (``--trace 0``) and once
traced (``--trace 1``). A traced run wraps names inside ``geozones`` from
outside the package; renaming or removing one of them drops its figures
(``# MISSING``), and a non-finite figure prints as a bare ``NaN``. Either
leaves a last line that is not a valid result, while the run still exits 0.
The last line is read as ``tools/ab.py`` reads it. The four runs start
together, so the file takes about two seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tools.ab import parse_result

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUNS = [(w["name"], trace) for w in SPEC["workloads"] for trace in (0, 1)]


@pytest.fixture(scope="module")
def runs():
    procs = {
        (workload, trace): subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
             "--seconds", "0.1", "--scale", "0.05", "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for workload, trace in RUNS
    }
    try:
        outputs = {run: p.communicate(timeout=170) for run, p in procs.items()}
        return {run: (procs[run].returncode, out, err) for run, (out, err) in outputs.items()}
    finally:
        for p in procs.values():
            p.kill()


@pytest.mark.parametrize("workload, trace", RUNS)
def test_last_line_is_a_complete_finite_result(runs, workload, trace):
    code, out, err = runs[workload, trace]
    assert code == 0, err[-2000:]
    assert [line for line in out.splitlines() if line.startswith("# MISSING")] == []
    report = parse_result(out)  # exact keys, correct, every value a finite number
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(report["metrics"]) == {m["name"] for m in expected}
