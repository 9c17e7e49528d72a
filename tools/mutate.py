"""Mutation registry: small breaks of the code that named tests must catch.

Each entry replaces one exact snippet of one file with a broken version and
names the tests that must then fail. The tool copies the checkout to a
temporary directory once, applies each entry in turn to that copy, runs the
named tests there and restores the file. An entry is

- killed when every named test fails (or its module fails to import);
- survived when a named test still passes, which means that test no longer
  guards what the entry breaks;
- stale when its snippet does not occur exactly once in the file, which
  means the code moved and the entry must be rewritten. Nothing is skipped.

    python3 tools/mutate.py [NAME ...]

NAME limits the run to those entries. Exits 1 unless every entry run is
killed. Only the standard library is used; the tests need the checkout's
own test dependencies.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "tools", "perfbench", "BENCHMARK.json", "pyproject.toml")


class Mutation(NamedTuple):
    name: str
    file: str  # relative to the checkout
    snippet: str  # must occur exactly once
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, each expected to fail


CLUSTERING = "src/geozones/clustering.py"
STORE = "src/geozones/store.py"
KMEANS_REF = "tests/test_clustering.py::test_kmeans_equals_frozen_reference"
CHAIN_REF = "tests/test_pipeline_reference.py::TestPipelineReference::test_equals_reference_chain"
CORPUS_REF = "tests/test_corpus.py::TestBuildCorpusReference::test_equals_per_record_reference"
CLI_CONTRACT = "tests/test_pipeline.py::TestCliContract::test_exit_code_is_0_1_or_2"

REGISTRY = (
    Mutation(
        "sq-distances-to-center-0-one-ulp-up",
        CLUSTERING,
        "return (cols[0] - centers[:, 0, None]) ** 2 + (cols[1] - centers[:, 1, None]) ** 2",
        "d2 = (cols[0] - centers[:, 0, None]) ** 2 + (cols[1] - centers[:, 1, None]) ** 2\n"
        "    return np.nextafter(d2, np.where(np.arange(len(d2))[:, None] == 0, np.inf, d2))",
        (KMEANS_REF, CHAIN_REF),
    ),
    Mutation(
        "argmin-tie-to-higher-index",
        CLUSTERING,
        "labels = d2.argmin(axis=0)",
        "labels = d2.shape[0] - 1 - d2[::-1].argmin(axis=0)",
        (KMEANS_REF, CHAIN_REF),
    ),
    Mutation(
        "restart-choice-non-strict",
        CLUSTERING,
        "if best is None or run[2] < best[2]:",
        "if best is None or run[2] <= best[2]:",
        (KMEANS_REF,),
    ),
    Mutation(
        "split-seed-spawn-key-swapped",
        CLUSTERING,
        "spawn_key=(round_idx, cid)",
        "spawn_key=(cid, round_idx)",
        ("tests/test_clustering.py::test_xmeans_equals_frozen_reference",),
    ),
    Mutation(
        "lloyd-full-passes",
        CLUSTERING,
        "check = np.flatnonzero(upper >= lower)",
        "check = slice(None)",
        ("tests/test_clustering.py::TestKmeansWork::test_criterion_3_blobs",),
    ),
    Mutation(
        "dedupe-key-without-origin",
        "src/geozones/corpus.py",
        "zip(*corpus.x.T.tolist(), corpus.text, corpus.origin)",
        "zip(*corpus.x.T.tolist(), corpus.text)",
        (CORPUS_REF, CHAIN_REF),
    ),
    Mutation(
        "bbox-half-open",
        "src/geozones/corpus.py",
        "(lat <= box.max_lat) & (box.min_lon <= lon) & (lon <= box.max_lon)",
        "(lat < box.max_lat) & (box.min_lon <= lon) & (lon < box.max_lon)",
        (CORPUS_REF, CHAIN_REF),
    ),
    Mutation(
        "summarize-last-tied-farthest",
        "src/geozones/coverage.py",
        "far = distances.index(max(distances))",
        "far = len(distances) - 1 - distances[::-1].index(max(distances))",
        ("tests/test_coverage.py::TestSummarizeReference::test_equals_reference", CHAIN_REF),
    ),
    Mutation(
        "export-folds-member-texts",
        "src/geozones/export.py",
        '"member_count": len(held),',
        '"member_count": len(list(map(__import__("geozones.corpus").corpus.fold_text, '
        "members.text[labels == summary.cluster_id]))),",
        ("tests/test_pipeline.py::TestFoldWork::test_one_fold_per_located_row_and_query_term",),
    ),
    Mutation(
        "ingest-without-batch",
        "src/geozones/cli.py",
        "with store.batch():",
        "if True:",
        ("tests/test_pipeline.py::TestIngestWork::test_fsyncs_per_ingest_run",),
    ),
    Mutation(
        "batch-rollback-keeps-data",
        STORE,
        "fh.truncate(size)",
        "pass",
        ("tests/test_store.py::TestBatch::test_fsync_failing_at_exit",),
    ),
    Mutation(
        "batch-counts-not-restored",
        STORE,
        "self._counts = counts",
        "pass",
        ("tests/test_store.py::TestBatch::test_caller_exception",),
    ),
    Mutation(
        "exit-write-stops-at-a-partial-write",
        STORE,
        "view = view[written:]",
        "break",
        ("tests/test_store.py::TestBatch::test_partial_writes_resume",),
    ),
    Mutation(
        "photo-integers-without-int-form",
        "src/geozones/ingest.py",
        "if INT_FORM.fullmatch(raw):",
        "if True:",
        ("tests/test_ingest.py::TestParsePhotoSearch::test_integer_attribute_must_be_ascii_digits",),
    ),
    Mutation(
        "check-str-without-encode",
        STORE,
        '        value.encode("utf-8")\n    except UnicodeEncodeError:  # a lone surrogate cannot be written',
        "        pass\n    except UnicodeEncodeError:",
        (
            "tests/test_store.py::TestLineContract::test_any_line_reads_or_names_its_line",
            "tests/test_store.py::TestPut::test_lone_surrogate_rejected_and_nothing_written",
        ),
    ),
    Mutation(
        "require-without-type-error",
        STORE,
        "except (KeyError, TypeError):  # the key is missing, or ``body`` is no object",
        "except KeyError:",
        ("tests/test_store.py::TestLineContract::test_any_line_reads_or_names_its_line",),
    ),
    Mutation(
        "keyword-blank-check-unfolded",
        "src/geozones/corpus.py",
        "any(not fold_text(t).strip() for t in self.terms)",
        "any(not t.strip() for t in self.terms)",
        (
            "tests/test_corpus.py::TestFilterKeywords::test_term_of_combining_marks_rejected",
            "tests/test_pipeline.py::TestCliMain::test_combining_mark_keyword_exit_code",
        ),
    ),
    Mutation(
        "h-eps-without-cap",
        CLUSTERING,
        "math.sin(min(eps_km / (2.0 * EARTH_RADIUS_KM), math.pi / 2)) ** 2",
        "math.sin(eps_km / (2.0 * EARTH_RADIUS_KM)) ** 2",
        (CLI_CONTRACT, "tests/test_clustering.py::TestDbscan::test_eps_beyond_half_the_circumference"),
    ),
    Mutation(
        "eps-blocks-on-arcsine-distance",
        CLUSTERING,
        "yield i, j, haversine_h(x[rows[i : i + row_step]], targets[:, 0], targets[:, 1]) <= h_eps",
        "yield i, j, haversine_to_many(x[rows[i : i + row_step]], targets[:, 0], targets[:, 1]) "
        "<= 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h_eps))",
        ("tests/test_dispatch.py::test_results_equal_with_avx512_off",),
    ),
    Mutation(
        "h-not-clamped",
        "src/geozones/geo.py",
        "return np.minimum(h, 1.0)",
        "return h",
        (
            "tests/test_clustering.py::TestDbscan::test_antipodal_pair_whose_h_rounds_past_one",
            "tests/test_geo.py::TestHaversineDistance::test_antipodal_h_is_clamped_to_one",
        ),
    ),
    Mutation(
        "touch-without-probe-row",
        CLUSTERING,
        "if q.size > 1 and (haversine_h(x[p[:1]], x[q, 0], x[q, 1]) <= h_eps).any():",
        "if False:",
        ("tests/test_clustering.py::TestDbscanWork::test_criterion_3_blobs_distance_bound",),
    ),
)


def failed_nodes(output: str) -> list[str]:
    """Node ids (or module paths, for a collection error) on the FAILED and ERROR lines of ``-rfE``."""
    return re.findall(r"^(?:FAILED|ERROR) (\S+)", output, flags=re.MULTILINE)


def covers(node: str, test: str) -> bool:
    """Whether a failed node is the test, one of its parametrizations or children, or its module."""
    return node == test or node.startswith((test + "[", test + "::")) or test.startswith(node + "::")


def run(copy: Path, m: Mutation) -> tuple[str, str]:
    """(verdict, detail) of one entry, applied to ``copy`` and restored afterwards."""
    path = copy / m.file
    source = path.read_text(encoding="utf-8")
    found = source.count(m.snippet)
    if found != 1:
        return "stale", f"snippet found {found} times in {m.file}"
    path.write_text(source.replace(m.snippet, m.replacement), encoding="utf-8")
    try:
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), COLUMNS="250")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *m.tests],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    finally:
        path.write_text(source, encoding="utf-8")
    failed = failed_nodes(proc.stdout)
    passed = [t for t in m.tests if not any(covers(node, t) for node in failed)]
    if proc.returncode not in (0, 1) and not failed:
        return "survived", f"pytest exited {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"
    return ("survived", "still passing: " + ", ".join(passed)) if passed else ("killed", "")


def main(argv: list[str]) -> int:
    names = set(argv)
    unknown = names - {m.name for m in REGISTRY}
    if unknown:
        print(f"unknown entries: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    entries = [m for m in REGISTRY if not names or m.name in names]
    verdicts = []
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, copy / name)
        for m in entries:
            start = time.perf_counter()
            verdict, detail = run(copy, m)
            verdicts.append(verdict)
            print(f"{verdict:8} {m.name} ({time.perf_counter() - start:.1f} s){'  ' + detail if detail else ''}", flush=True)
    print(f"{verdicts.count('killed')} killed, {verdicts.count('survived')} survived, {verdicts.count('stale')} stale")
    return 0 if all(v == "killed" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
