"""Line counts of the ``geozones`` package: non-blank lines that are not ``#`` comments.

Docstrings count as code. Prints one row per module of ``src/geozones/`` and
a total, with one column per checkout, so two commits can be compared side
by side.

    python3 tools/loc.py [CHECKOUT ...]

CHECKOUT defaults to the checkout holding this file.
"""

from __future__ import annotations

import sys
from pathlib import Path


def count(path: Path) -> int:
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main(argv: list[str]) -> int:
    checkouts = [Path(c) for c in argv] or [Path(__file__).resolve().parent.parent]
    counts = [{p.name: count(p) for p in sorted((c / "src" / "geozones").glob("*.py"))} for c in checkouts]
    names = sorted(set().union(*counts))
    width = max(len(name) for name in [*names, "total"])
    columns = [max(8, len(str(c))) for c in checkouts]
    print(f"{'':{width}}", *(f"{str(c):>{w}}" for c, w in zip(checkouts, columns)))
    for name in names:
        print(f"{name:{width}}", *(f"{column.get(name, 0):>{w}}" for column, w in zip(counts, columns)))
    print(f"{'total':{width}}", *(f"{sum(column.values()):>{w}}" for column, w in zip(counts, columns)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
