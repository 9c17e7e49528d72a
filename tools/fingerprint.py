"""Output fingerprint: sha256 prefixes of the GeoJSON and stdout of ``pipeline``.

For each workload/seed pair below, generate the perfbench payloads at scale 1,
ingest every kind directory with the checkout's CLI, then run ``pipeline``
with the workload's eps, min_pts and k range (``--include-members`` where the
workload exports members), once with ``--output`` and once without, and once
more with ``--output`` in a process where numpy's AVX-512 kernels are turned
off (``avx512_off_env``). Prints the first 12 hex digits of the sha256 of the
GeoJSON files and of the stdouts, and exits 1 when any prefix differs from
the committed ones.

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
# numpy's AVX-512 dispatch levels. Naming a level that numpy does not dispatch to is an error.
AVX512_LEVELS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")

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


def avx512_off_env() -> dict[str, str]:
    """A copy of the environment in which a child process's numpy takes no AVX-512 kernel.

    numpy's AVX-512 arcsin and log are not libm and round some inputs
    differently, so output that rests on them differs between the two.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    env = dict(os.environ)
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(level for level in AVX512_LEVELS if level in __cpu_dispatch__)
    return env


def cli(checkout: Path, *argv: str, env=None) -> bytes:
    """Run the checkout's CLI in ``env`` (default: this one); return its stdout, raising on a non-zero exit."""
    env = {k: v for k, v in (env or os.environ).items() if k != "ZONE_SEED"}
    env["PYTHONPATH"] = str(checkout / "src")
    return subprocess.run(
        [sys.executable, "-m", "geozones.cli", *argv],
        env=env,
        check=True,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    ).stdout


def fingerprint(checkout: Path, name: str, seed: int, work: Path) -> tuple[str, ...]:
    """(GeoJSON, stdout with --output, stdout without, and the first two with AVX-512 off) prefixes for one pair."""
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
    off_output = work / "zones-avx512-off.geojson"
    off = cli(checkout, *argv, "--output", str(off_output), env=avx512_off_env())
    return prefix(output.read_bytes()), prefix(written), prefix(bare), prefix(off_output.read_bytes()), prefix(off)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=ROOT, help="repository checkout to run")
    checkout = parser.parse_args(argv).checkout.resolve()

    failed = False
    for (name, seed), expected in EXPECTED.items():
        with tempfile.TemporaryDirectory(prefix="fingerprint-") as tmp:
            geojson, written, bare, off_geojson, off = fingerprint(checkout, name, seed, Path(tmp))
        ok = (geojson, written, bare, off_geojson, off) == (*expected, expected[1], *expected)
        failed |= not ok
        print(
            f"{name} s{seed}: geojson {geojson} stdout {written} stdout-without-output {bare}"
            f" avx512-off: geojson {off_geojson} stdout {off}"
            + ("" if ok else f"  DIFFERS (expected {expected[0]} / {expected[1]})")
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
