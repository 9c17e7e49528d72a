"""Alternated pairs of benchmark runs between two checkouts.

    python3 tools/ab.py PARENT CHANGE --workload W --pairs N --seconds S [--first-seed K] [--json FILE]

Pair i runs ``perfbench/run.py --workload W --seed K+i --seconds S`` in each
checkout, each run a new process. The parent runs first in even pairs and
the change first in odd ones, so a slow stretch of the machine falls on
both sides. The last stdout line of every run must be a complete result:
one JSON object with exactly the keys correct, attempted, failed and
metrics, no NaN or Infinity, and ``correct`` true. A run that exits
non-zero or ends with anything else stops the tool, which prints the tail
of that run's stderr and exits 1.

At the end it prints, per metric, each side's median and quartiles, the
change/parent ratio of the medians and how many pairs each side won; which
way is better comes from CHANGE's BENCHMARK.json. ``--json FILE`` writes
every run's metrics and that summary.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _reject(constant: str):
    raise ValueError(f"non-finite number {constant}")


def parse_result(stdout: str) -> dict:
    """The last stdout line as a correct result, or ValueError saying what is wrong with it."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    report = json.loads(lines[-1], parse_constant=_reject)
    if not isinstance(report, dict) or set(report) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"not a result line: {lines[-1][:200]}")
    if report["correct"] is not True:
        raise ValueError(f"the run's checks failed: {report['failed']} of {report['attempted']}")
    values = [m["value"] for m in report["metrics"].values()]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        raise ValueError(f"a metric is not a finite number: {report['metrics']}")
    return report


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        capture_output=True, text=True,
    )
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        report = parse_result(proc.stdout)
    except ValueError as err:
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        raise SystemExit(f"error: {checkout} seed {seed}: {err}\n--- stderr tail ---\n{tail}") from None
    values = {name: m["value"] for name, m in report["metrics"].items()}
    return {**values, "attempted": report["attempted"], "failed": report["failed"], "seed": seed}


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3]; one value is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: dict[str, list[dict]], better: dict[str, str]) -> dict:
    names = [name for name in better if all(name in r for side in SIDES for r in runs[side])]
    pairs = list(zip(runs["parent"], runs["change"]))
    summary = {side: {"quartiles": {}, "runs": runs[side]} for side in SIDES}
    wins = {side: {} for side in SIDES}
    ratio = {}
    for name in names:
        sign = 1.0 if better[name] == "lower" else -1.0
        for side in SIDES:
            summary[side]["quartiles"][name] = [round(q, 6) for q in quartiles([r[name] for r in runs[side]])]
        gains = [sign * (p[name] - c[name]) for p, c in pairs]  # positive where the change is better
        wins["change"][name] = sum(g > 0 for g in gains)
        wins["parent"][name] = sum(g < 0 for g in gains)
        ratio[name] = round(summary["change"]["quartiles"][name][1] / summary["parent"]["quartiles"][name][1], 4)
    summary["change_wins_pairs"] = {n: f"{wins['change'][n]}/{len(runs['change'])}" for n in names}
    summary["parent_wins_pairs"] = {n: f"{wins['parent'][n]}/{len(runs['parent'])}" for n in names}
    summary["median_change_over_parent"] = ratio
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", type=Path, help="write the runs and the summary here")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            runs[side].append(run_once(checkouts[side], args.workload, seed, args.seconds))
        shown = ", ".join(f"{side} {runs[side][-1].get('pipeline_s', math.nan):.4f}" for side in order)
        print(f"# pair {i + 1}/{args.pairs} seed {seed}: pipeline_s {shown}", flush=True)

    summary = summarize(runs, better)
    print(f"{'metric':18s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s} {'ratio':>7s}  wins")
    for name, ratio in summary["median_change_over_parent"].items():
        cells = []
        for side in SIDES:
            q1, med, q3 = summary[side]["quartiles"][name]
            cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
        wins = f"parent {summary['parent_wins_pairs'][name]}, change {summary['change_wins_pairs'][name]}"
        print(f"{name:18s} {cells[0]:>30s} {cells[1]:>30s} {ratio:7.3f}  {wins}")
    if args.json:
        record = {"workload": args.workload, "seconds": args.seconds, "first_seed": args.first_seed, **summary}
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
