"""Output fingerprint: sha256 prefixes of the GeoJSON and stdout of ``pipeline``.

For each workload/seed pair below, generate the perfbench payloads at scale 1,
ingest every kind directory with the checkout's CLI, then run ``pipeline``
with the workload's eps, min_pts and k range (``--include-members`` where the
workload exports members), once with ``--output`` and once without. Prints
the first 12 hex digits of the sha256 of the GeoJSON file and of both
stdouts, and exits 1 when any prefix differs from the committed ones.

    python3 tools/fingerprint.py [CHECKOUT]

CHECKOUT defaults to the checkout holding this file. The payloads always come
from this checkout's ``perfbench/workloads.py``, so two checkouts are compared
on the same input.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS, generate  # noqa: E402

KINDS = ("tweet", "photo")

# (workload, seed) -> (GeoJSON, pipeline stdout) sha256 prefixes.
EXPECTED = {
    ("paper-medellin", 11): ("0017d8f4dfee", "6aa69a0c45f1"),
    ("paper-medellin", 12): ("a5189540b511", "b7732a3fd051"),
    ("ingest-mixed", 11): ("0b7749871dbd", "0257f5ea18be"),
    ("zones-many", 11): ("48a38df8e648", "9fcef3983832"),
    ("zones-many", 12): ("c582c56a3bbd", "d10278519541"),
}


def prefix(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def cli(checkout: Path, *argv: str) -> bytes:
    """Run the checkout's CLI; return its stdout, raising on a non-zero exit."""
    env = {k: v for k, v in os.environ.items() if k != "ZONE_SEED"}
    env["PYTHONPATH"] = str(checkout / "src")
    return subprocess.run(
        [sys.executable, "-m", "geozones.cli", *argv],
        env=env,
        check=True,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    ).stdout


def fingerprint(checkout: Path, name: str, seed: int, work: Path) -> tuple[str, str, str]:
    """(GeoJSON, stdout with --output, stdout without) prefixes for one pair."""
    w = WORKLOADS[name]
    payload, store, output = work / "payload", work / "store", work / "zones.geojson"
    generate(name, seed, payload, scale=1.0)
    for kind in KINDS:
        if (payload / kind).is_dir():
            cli(checkout, "ingest", "--input", str(payload / kind), "--kind", kind, "--store", str(store))
    argv = [
        "pipeline", "--store", str(store),
        "--eps-km", repr(w.eps_km), "--min-pts", str(w.min_pts),
        "--k-min", str(w.k_min), "--k-max", str(w.k_max),
    ]
    if w.include_members:
        argv.append("--include-members")
    written = cli(checkout, *argv, "--output", str(output))
    bare = cli(checkout, *argv)
    return prefix(output.read_bytes()), prefix(written), prefix(bare)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT, help="repository checkout to run")
    checkout = parser.parse_args(argv).checkout.resolve()

    failed = False
    for (name, seed), expected in EXPECTED.items():
        with tempfile.TemporaryDirectory(prefix="fingerprint-") as tmp:
            geojson, written, bare = fingerprint(checkout, name, seed, Path(tmp))
        ok = (geojson, written, bare) == (expected[0], expected[1], expected[1])
        failed |= not ok
        print(
            f"{name} s{seed}: geojson {geojson} stdout {written} stdout-without-output {bare}"
            + ("" if ok else f"  DIFFERS (expected {expected[0]} / {expected[1]})")
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
