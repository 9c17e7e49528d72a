import contextlib
import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geozones import corpus, pipeline
from geozones import store as store_module
from geozones.cli import (
    EXIT_EMPTY_CORPUS,
    EXIT_ERROR,
    EXIT_OK,
    _pipeline_config,
    build_parser,
    ingest_command,
    main,
)
from geozones.clustering import DbscanConfig, KMeansConfig, XMeansConfig
from geozones.corpus import BoundingBox, KeywordQuery
from geozones.errors import ConfigError, EmptyCorpusError, StorageError
from geozones.geo import GeoPoint
from geozones.pipeline import PipelineConfig, run_pipeline
from geozones.store import DocumentStore, canonical_json

from .conftest import (
    BUG_POINT,
    FIXTURES,
    make_blobs,
    populate_store,
    sample_centers_in_box,
    tweet_body_at,
    write_tweet_file,
)

WORLD = BoundingBox(min_lat=-90, max_lat=90, min_lon=-180, max_lon=180)


def ten_blob_store(directory, include_bug_point=False):
    centers = sample_centers_in_box(10, seed=42)
    points = make_blobs(centers, sigma=0.01, n_per=40, seed=7)
    if include_bug_point:
        points = points + [BUG_POINT]
    populate_store(directory, points)
    return points


def pipeline_config(store_dir, **overrides):
    defaults = dict(
        store_dir=str(store_dir),
        xmeans=XMeansConfig(k_min=10, k_max=10),
        dbscan=DbscanConfig(eps_km=5, min_pts=5),
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestRunPipeline:
    def test_ten_blob_report_shape(self, tmp_path):
        ten_blob_store(tmp_path / "store")
        result = run_pipeline(pipeline_config(tmp_path / "store"))
        lines = result.report.splitlines()
        assert lines[0] == "Cluster centers : 10 centers"
        assert len(lines) == 11
        for i, line in enumerate(lines[1:]):
            assert line.startswith(f"Cluster {i}\t")

    def test_empty_store_raises_empty_corpus(self, tmp_path):
        DocumentStore(tmp_path / "store").close()
        with pytest.raises(EmptyCorpusError):
            run_pipeline(pipeline_config(tmp_path / "store"))

    def test_untagged_docs_raise_empty_corpus(self, tmp_path):
        with DocumentStore(tmp_path / "store") as store:
            store.put("tweet", {"coordinates": None, "source": "s", "text": "fiesta"})
        with pytest.raises(EmptyCorpusError):
            run_pipeline(pipeline_config(tmp_path / "store"))

    def test_mislocated_point_absent_from_output(self, tmp_path):
        ten_blob_store(tmp_path / "store", include_bug_point=True)
        out = tmp_path / "zones.geojson"
        cfg = pipeline_config(tmp_path / "store", include_members=True, output_path=str(out))
        result = run_pipeline(cfg)
        assert all(r.position != BUG_POINT for r in result.records)
        assert [r for r in result.purged if r.position == BUG_POINT]
        for feature in json.loads(out.read_text(encoding="utf-8"))["features"]:
            if feature["geometry"]["type"] == "Point":
                assert feature["geometry"]["coordinates"] != [
                    BUG_POINT.lon_deg,
                    BUG_POINT.lat_deg,
                ]

    def test_mislocated_point_noise_labeled_when_bbox_disabled(self, tmp_path):
        ten_blob_store(tmp_path / "store", include_bug_point=True)
        cfg = pipeline_config(
            tmp_path / "store",
            bbox=WORLD,
            dbscan=DbscanConfig(eps_km=50, min_pts=5),
        )
        result = run_pipeline(cfg)
        assert not result.purged
        assert [r for r in result.noise if r.position == BUG_POINT]
        assert all(r.position != BUG_POINT for r in result.records)

    def test_output_file_written(self, tmp_path):
        ten_blob_store(tmp_path / "store")
        out = tmp_path / "zones.geojson"
        run_pipeline(pipeline_config(tmp_path / "store", output_path=str(out)))
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["type"] == "FeatureCollection"
        assert len(doc["features"]) == 20  # 10 centroids + 10 polygons

    def test_without_output_builds_no_ring_or_document(self, tmp_path, monkeypatch):
        ten_blob_store(tmp_path / "store")

        def fail(*args, **kwargs):
            raise AssertionError("called without an output path")

        for name in ("coverage_circle", "export_geojson", "write_geojson"):
            monkeypatch.setattr(pipeline, name, fail)
        result = run_pipeline(pipeline_config(tmp_path / "store"))
        assert len(result.summaries) == 10

    def test_byte_identical_across_worker_counts(self, tmp_path):
        ten_blob_store(tmp_path / "store")
        out1, out4 = tmp_path / "w1.geojson", tmp_path / "w4.geojson"
        run_pipeline(pipeline_config(tmp_path / "store", output_path=str(out1), workers=1))
        run_pipeline(pipeline_config(tmp_path / "store", output_path=str(out4), workers=4))
        assert out1.read_bytes() == out4.read_bytes()

    def test_keyword_filter_narrows_corpus(self, tmp_path):
        points = make_blobs([(6.2, -75.5)], sigma=0.005, n_per=30, seed=3)
        texts = ["gran fiesta"] * 15 + ["sin termino relevante"] * 15
        populate_store(tmp_path / "store", points, texts=texts)
        cfg = pipeline_config(
            tmp_path / "store",
            keywords=KeywordQuery(terms=("fiesta",)),
            xmeans=XMeansConfig(k_min=1, k_max=3),
            dbscan=DbscanConfig(eps_km=5, min_pts=3),
        )
        result = run_pipeline(cfg)
        assert len(result.records) == 15
        assert all("fiesta" in r.text for r in result.records)

    def test_summary_invariants_hold(self, tmp_path):
        ten_blob_store(tmp_path / "store")
        result = run_pipeline(pipeline_config(tmp_path / "store"))
        assert len(result.summaries) == 10
        for summary in result.summaries:
            assert summary.centroid == summary.point_of_means
            members = [
                r.position
                for r, label in zip(result.records, result.labeling.labels)
                if label == summary.cluster_id
            ]
            assert summary.distant_point in members


class TestIngestCommand:
    def test_tweet_directory(self, tmp_path, capsys):
        src = tmp_path / "in"
        src.mkdir()
        for i in range(3):
            write_tweet_file(src, f"t{i}.json", GeoPoint(6.2 + i * 0.01, -75.5), text="fiesta")
        stats = ingest_command(src, "tweet", tmp_path / "store")
        assert stats.tweet_count == 3
        assert stats.photo_count == 0
        assert "parsed 3 record(s)" in capsys.readouterr().out

    def test_empty_directory(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        stats = ingest_command(src, "tweet", tmp_path / "store")
        assert (stats.tweet_count, stats.photo_count) == (0, 0)

    def test_mixed_good_and_bad_files(self, tmp_path, capsys):
        src = tmp_path / "in"
        src.mkdir()
        write_tweet_file(src, "good.json", GeoPoint(6.2, -75.5))
        (src / "bad.json").write_text("{nope", encoding="utf-8")
        stats = ingest_command(src, "tweet", tmp_path / "store")
        assert stats.tweet_count == 1
        captured = capsys.readouterr()
        assert "skipped bad.json" in captured.err

    def test_lone_surrogate_file_skipped_and_later_files_stored(self, tmp_path, capsys):
        src = tmp_path / "in"
        src.mkdir()
        (src / "a.json").write_text('{"text": "fiesta \\ud800"}', encoding="utf-8")
        write_tweet_file(src, "b.json", GeoPoint(6.2, -75.5))
        stats = ingest_command(src, "tweet", tmp_path / "store")
        assert stats.tweet_count == 1
        captured = capsys.readouterr()
        assert "parsed 1 record(s), skipped 1 file(s)" in captured.out
        assert "skipped a.json: text must be valid UTF-8" in captured.err

    def test_photo_directory(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        (src / "search.xml").write_text(
            "<photos page='1' pages='1' perpage='10' total='1'>"
            "<photo id='123' title='mirador'/></photos>",
            encoding="utf-8",
        )
        (src / "geo.xml").write_text(
            (FIXTURES / "photo_geo_entity.xml").read_text(encoding="utf-8"), encoding="utf-8"
        )
        stats = ingest_command(src, "photo", tmp_path / "store")
        assert stats.photo_count == 1
        with DocumentStore(tmp_path / "store", read_only=True) as store:
            doc = next(store.scan("photo"))
        assert doc.body["name"] == "mirador"
        assert doc.body["geo"]["accuracy"] == 6


def tweet_directory(directory, count: int):
    directory.mkdir()
    for i in range(count):
        write_tweet_file(directory, f"t{i:03}.json", GeoPoint(6.2 + i * 1e-3, -75.5), text="fiesta")
    return directory


def collection_files(store_dir) -> dict:
    return {p.name: p.read_bytes() for p in sorted(store_dir.glob("*.jsonl"))}


class TestIngestAtomic:
    """An ingest run stores all of its records or, if one put fails, none of them."""

    @pytest.mark.parametrize("held", [0, 2], ids=["empty-store", "store-with-records"])
    def test_put_failing_at_third_record_keeps_nothing(self, tmp_path, monkeypatch, capsys, held):
        src = tweet_directory(tmp_path / "in", 5)
        store_dir = tmp_path / "store"
        populate_store(store_dir, [GeoPoint(6.3, -75.6)] * held)
        before = collection_files(store_dir)
        put, calls = DocumentStore.put, []

        def put_failing_at_third(self, collection, body):
            calls.append(collection)
            if len(calls) == 3:
                raise StorageError("disk gone")
            return put(self, collection, body)

        monkeypatch.setattr(DocumentStore, "put", put_failing_at_third)
        assert main(["ingest", "--input", str(src), "--kind", "tweet", "--store", str(store_dir)]) == EXIT_ERROR
        monkeypatch.undo()
        assert "disk gone" in capsys.readouterr().err
        assert len(calls) == 3
        assert collection_files(store_dir) == before
        assert ingest_command(src, "tweet", store_dir).tweet_count == held + 5


# A child ingest whose put number argv[3] kills the process, as a crash would.
KILLED_AT_PUT = """
import os, sys
from geozones import cli, store

put, kill_at, calls = store.DocumentStore.put, int(sys.argv[3]), []

def put_killed_at(self, collection, body):
    calls.append(collection)
    if len(calls) == kill_at:
        os._exit(9)
    return put(self, collection, body)

store.DocumentStore.put = put_killed_at
cli.ingest_command(sys.argv[1], "tweet", sys.argv[2])
"""


class TestKilledIngest:
    """A process killed at any put of an ingest leaves the store files as they were."""

    def test_kill_at_a_put_leaves_the_store_as_it_was(self, tmp_path):
        src = tweet_directory(tmp_path / "in", 50)
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        children = []
        for held in (0, 2):  # a store not yet created, and one holding records
            clean = tmp_path / f"clean-{held}"
            if held:
                populate_store(clean, [GeoPoint(6.3, -75.6)] * held)
            ingest_command(src, "tweet", clean, out=io.StringIO())
            for kill_at in (1, 25, 50):
                store_dir = tmp_path / f"killed-{held}-at-{kill_at}"
                if held:
                    populate_store(store_dir, [GeoPoint(6.3, -75.6)] * held)
                argv = [sys.executable, "-c", KILLED_AT_PUT, str(src), str(store_dir), str(kill_at)]
                child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
                children.append((child, store_dir, collection_files(store_dir), collection_files(clean)))
        for child, store_dir, before, clean in children:
            _, err = child.communicate(timeout=120)
            assert child.returncode == 9, err
            assert collection_files(store_dir) == before, store_dir.name
            ingest_command(src, "tweet", store_dir, out=io.StringIO())
            assert collection_files(store_dir) == clean, store_dir.name


class TestIngestWork:
    """Counted work: the fsyncs of one ingest run do not grow with its records."""

    FSYNC_BOUND = 4  # one per touched file plus the store directory's; ingest touches one file

    def test_fsyncs_per_ingest_run(self, tmp_path, monkeypatch):
        src = tweet_directory(tmp_path / "in", 60)
        fsync, synced = os.fsync, []

        def counting_fsync(fd):
            synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            fsync(fd)

        monkeypatch.setattr(store_module.os, "fsync", counting_fsync)
        runs = []
        for _ in range(2):
            synced.clear()
            ingest_command(src, "tweet", tmp_path / "store")
            runs.append(list(synced))
        assert max(len(run) for run in runs) <= self.FSYNC_BOUND
        # The first run creates tweet.jsonl, so its directory entry is fsynced too; the second does not.
        assert runs == [["file", "dir"], ["file"]]


class TestFoldWork:
    """Counted work: the texts one pipeline run folds. The keyword filter is the one matcher."""

    def test_one_fold_per_located_row_and_query_term(self, tmp_path, monkeypatch):
        points = ten_blob_store(tmp_path / "store")
        cfg = pipeline_config(tmp_path / "store", output_path=str(tmp_path / "zones.geojson"), include_members=True)
        fold, folded = corpus.fold_text, []

        def counting_fold(text):
            folded.append(text)
            return fold(text)

        # Every binding of the fold in the package, so a copy imported by name elsewhere counts too.
        for module in [m for name, m in sys.modules.items() if name.partition(".")[0] == "geozones"]:
            if getattr(module, "fold_text", None) is fold:
                monkeypatch.setattr(module, "fold_text", counting_fold)
        result = run_pipeline(cfg)
        assert len(result.records) > 0 and (tmp_path / "zones.geojson").exists()
        assert len(folded) <= len(points) + len(cfg.keywords.terms)


class TestCliMain:
    def _ingest_blobs(self, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        centers = sample_centers_in_box(10, seed=42)
        points = make_blobs(centers, sigma=0.01, n_per=12, seed=7)
        keyword_cycle = ("arriba Medellín", "gran fiesta hoy", "I'm at X 4sq.com/abc")
        for i, p in enumerate(points):
            write_tweet_file(src, f"t{i:04}.json", p, text=keyword_cycle[i % 3])
        assert main(["ingest", "--input", str(src), "--kind", "tweet", "--store", str(tmp_path / "store")]) == EXIT_OK
        return tmp_path / "store"

    def test_pipeline_subcommand(self, tmp_path, capsys):
        store = self._ingest_blobs(tmp_path)
        out = tmp_path / "zones.geojson"
        code = main(
            ["pipeline", "--store", str(store), "--output", str(out), "--min-pts", "3"]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "Cluster centers : 10 centers" in printed
        assert out.exists()

    def test_pipeline_builds_no_record(self, tmp_path, monkeypatch):
        store = self._ingest_blobs(tmp_path)
        out = tmp_path / "zones.geojson"

        def fail(*args, **kwargs):
            raise AssertionError("a CorpusRecord was built")

        monkeypatch.setattr(corpus, "CorpusRecord", fail)
        args = ["pipeline", "--store", str(store), "--output", str(out), "--include-members", "--min-pts", "3"]
        assert main(args) == EXIT_OK
        assert json.loads(out.read_text(encoding="utf-8"))["features"]
        # Iterating the corpus columns would have called the patched class.
        cfg = PipelineConfig(store_dir=str(store))
        with DocumentStore(store, read_only=True) as opened:
            kept, _ = pipeline.build_corpus(opened, cfg.keywords, cfg.bbox)
        with pytest.raises(AssertionError, match="a CorpusRecord was built"):
            next(iter(kept))

    def _pipeline_lines(self, tmp_path, capsys):
        store = self._ingest_blobs(tmp_path)
        capsys.readouterr()  # discard ingest output
        code = main(["pipeline", "--store", str(store), "--min-pts", "3"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 21
        return lines

    def test_cluster_subcommand_prints_report_only(self, tmp_path, capsys):
        """What `cluster` printed is now the first k + 1 lines of `pipeline`."""
        lines = self._pipeline_lines(tmp_path, capsys)
        assert lines[0] == "Cluster centers : 10 centers"
        for i, line in enumerate(lines[1:11]):
            assert line.startswith(f"Cluster {i}\t")
            assert "radius_km=" not in line

    def test_coverage_subcommand_prints_radii(self, tmp_path, capsys):
        """What `coverage` added is now one radius line per cluster after the report."""
        lines = self._pipeline_lines(tmp_path, capsys)
        for i, line in enumerate(lines[11:]):
            assert line.startswith(f"Cluster {i}: radius_km=")

    def test_output_writes_geojson(self, tmp_path, capsys):
        store = self._ingest_blobs(tmp_path)
        capsys.readouterr()
        assert main(["pipeline", "--store", str(store), "--min-pts", "3"]) == EXIT_OK
        bare = capsys.readouterr().out
        out = tmp_path / "zones.geojson"
        code = main(["pipeline", "--store", str(store), "--output", str(out), "--min-pts", "3"])
        assert code == EXIT_OK
        assert json.loads(out.read_text(encoding="utf-8"))["type"] == "FeatureCollection"
        captured = capsys.readouterr()
        assert captured.out == bare
        assert captured.err == f"wrote {out}\n"

    def test_without_output_writes_nothing(self, tmp_path, capsys):
        store = self._ingest_blobs(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(["pipeline", "--store", str(store), "--min-pts", "3"]) == EXIT_OK
        assert sorted(tmp_path.rglob("*")) == before
        assert capsys.readouterr().err == ""

    def test_eps_beyond_the_earth(self, tmp_path, capsys):
        # An eps past half the Earth's circumference puts every point in reach of every other.
        store = self._ingest_blobs(tmp_path)
        assert main(["pipeline", "--store", str(store), "--eps-km", "1e308"]) == EXIT_OK
        assert "Cluster centers : 10 centers" in capsys.readouterr().out

    def test_empty_corpus_exit_code(self, tmp_path, capsys):
        DocumentStore(tmp_path / "store").close()
        code = main(
            ["pipeline", "--store", str(tmp_path / "store"), "--output", str(tmp_path / "o.json")]
        )
        assert code == EXIT_EMPTY_CORPUS
        assert "empty corpus" in capsys.readouterr().err

    def test_missing_store_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nosuch"
        code = main(["pipeline", "--store", str(missing), "--output", str(tmp_path / "o.json")])
        assert code == EXIT_ERROR
        assert str(missing) in capsys.readouterr().err
        assert not missing.exists()

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        store = self._ingest_blobs(tmp_path)
        out = tmp_path / "nosuch" / "zones.geojson"
        code = main(["pipeline", "--store", str(store), "--output", str(out), "--min-pts", "3"])
        assert code == EXIT_ERROR
        assert str(out) in capsys.readouterr().err

    def test_bare_options_give_default_config(self, monkeypatch):
        monkeypatch.delenv("ZONE_SEED", raising=False)
        args = build_parser().parse_args(["pipeline", "--store", "S", "--output", "O"])
        assert _pipeline_config(args) == PipelineConfig(store_dir="S", output_path="O")
        args = build_parser().parse_args(["pipeline", "--store", "S"])
        assert _pipeline_config(args) == PipelineConfig(store_dir="S")

    def test_config_error_exit_code(self, tmp_path, capsys):
        store = self._ingest_blobs(tmp_path)
        code = main(
            [
                "pipeline", "--store", str(store), "--output", str(tmp_path / "o.json"),
                "--min-pts", "3", "--k-min", "5000", "--k-max", "5000",
            ]
        )
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("with_output", [False, True], ids=["bare", "output"])
    def test_bad_vertex_count_exit_code(self, tmp_path, capsys, with_output):
        store = self._ingest_blobs(tmp_path)
        out = tmp_path / "zones.geojson"
        argv = ["pipeline", "--store", str(store), "--min-pts", "3", "--vertex-count", "2"]
        assert main(argv + (["--output", str(out)] if with_output else [])) == EXIT_ERROR
        assert "vertex_count" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_vertex_count_checked_before_store(self, tmp_path, capsys):
        missing = tmp_path / "nosuch"
        assert main(["pipeline", "--store", str(missing), "--vertex-count", "2"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "vertex_count" in err
        assert str(missing) not in err

    def test_combining_mark_keyword_exit_code(self, tmp_path, capsys):
        store = self._ingest_blobs(tmp_path)
        capsys.readouterr()
        assert main(["pipeline", "--store", str(store), "--min-pts", "3", "--keyword", "\u0301"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "keyword" in captured.err

    def test_off_schema_stored_body_exit_code(self, tmp_path, capsys):
        store = self._ingest_blobs(tmp_path)
        path = store / "tweet.jsonl"
        n_lines = len(path.read_bytes().splitlines())
        body = {"coordinates": None, "source": "app"}
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(canonical_json({"doc_id": n_lines, "len": len(canonical_json(body)), "body": body}) + "\n")
        capsys.readouterr()
        assert main(["pipeline", "--store", str(store), "--min-pts", "3"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"{path}:{n_lines + 1}:" in err
        assert "tweet.text" in err

    def test_non_object_stored_line_exit_code(self, tmp_path, capsys):
        store = self._ingest_blobs(tmp_path)
        path = store / "tweet.jsonl"
        n_lines = len(path.read_bytes().splitlines())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("[1,2]\n")
        capsys.readouterr()
        assert main(["pipeline", "--store", str(store), "--min-pts", "3"]) == EXIT_ERROR
        assert f"{path}:{n_lines + 1}:" in capsys.readouterr().err

    def test_nan_tolerance_exit_code(self, tmp_path, capsys):
        store = self._ingest_blobs(tmp_path)
        code = main(["pipeline", "--store", str(store), "--min-pts", "3", "--tolerance", "nan"])
        assert code == EXIT_ERROR
        assert "tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["pipeline", "--no-such-flag"],
            ["cluster", "--store", "S"],
            ["coverage", "--store", "S"],
            ["export", "--store", "S", "--output", "O"],
        ],
        ids=["unknown-flag", "cluster", "coverage", "export"],
    )
    def test_usage_error_exit_code(self, capsys, argv):
        assert main(argv) == EXIT_ERROR

    def test_zone_seed_env_override(self, tmp_path, capsys, monkeypatch):
        store = self._ingest_blobs(tmp_path)
        out_a, out_b, out_c = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        monkeypatch.setenv("ZONE_SEED", "123")
        main(["pipeline", "--store", str(store), "--output", str(out_a), "--min-pts", "3"])
        monkeypatch.setenv("ZONE_SEED", "123")
        main(["pipeline", "--store", str(store), "--output", str(out_b), "--min-pts", "3", "--seed", "9"])
        monkeypatch.delenv("ZONE_SEED")
        main(["pipeline", "--store", str(store), "--output", str(out_c), "--min-pts", "3", "--seed", "123"])
        assert out_a.read_bytes() == out_b.read_bytes()  # env wins over the flag
        assert out_a.read_bytes() == out_c.read_bytes()  # env equals same-seed flag

    @pytest.mark.parametrize(
        "value",
        ["abc", "-1", "1_000", " 7 ", "+3", "\u0663", "7" * 5000, "a" * 5000],
        ids=[
            "letters", "negative", "underscore", "spaces", "plus", "arabic-indic-three", "past-int-digit-limit",
            "long-letters",
        ],
    )
    def test_bad_zone_seed_exit_code(self, tmp_path, capsys, monkeypatch, value):
        DocumentStore(tmp_path / "store").close()  # an accepted seed would reach exit 2
        monkeypatch.setenv("ZONE_SEED", value)
        code = main(["pipeline", "--store", str(tmp_path / "store")])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "ZONE_SEED" in err
        assert len(err) < 200  # the rejected value is echoed cut short


# Floats as the CLI reads them: named edge values, and repr of any float, NaN and infinities included.
FLOAT_ARGS = st.sampled_from(["1e-6", "20016", "1e308", "inf", "-inf", "nan", "-1", "0"]) | st.floats().map(repr)
DEFAULT_BBOX = ["5.9", "6.6", "-75.8", "-75.1"]


class TestCliContract:
    """Whatever the eps, bbox and ``ZONE_SEED``, ``main`` returns 0, 1 or 2 and raises nothing.

    A negative number in any form ``float()`` accepts reads as a value, not as an option.
    """

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("cli-contract") / "store"
        populate_store(directory, make_blobs([(6.2, -75.5), (6.4, -75.3)], sigma=0.01, n_per=15, seed=3))
        return directory

    @settings(max_examples=80, deadline=None)
    @given(
        eps=FLOAT_ARGS | st.floats(1e-6, 3e4).map(repr),
        bbox=st.sampled_from([DEFAULT_BBOX, DEFAULT_BBOX[::-1], ["6.6", "5.9", "-75.8", "-75.1"]])
        | st.lists(FLOAT_ARGS, min_size=4, max_size=4),
        seed=st.none() | st.text(st.characters(blacklist_characters="\x00"), max_size=12) | st.integers(0, 10**30).map(str),
    )
    @example(eps="inf", bbox=DEFAULT_BBOX, seed=None)
    @example(eps="1e308", bbox=DEFAULT_BBOX, seed="7" * 5000)
    @example(eps="nan", bbox=["nan", "6.6", "-inf", "inf"], seed="-1")
    def test_exit_code_is_0_1_or_2(self, store, eps, bbox, seed):
        argv = ["pipeline", "--store", str(store), "--min-pts", "3", "--k-min", "1", "--k-max", "3"]
        argv += [f"--eps-km={eps}", "--bbox", *bbox]
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            os.environ.pop("ZONE_SEED", None)
            if seed is not None:
                os.environ["ZONE_SEED"] = seed
            assert main(argv) in (EXIT_OK, EXIT_ERROR, EXIT_EMPTY_CORPUS)

    ARGV = ["pipeline", "--min-pts", "3", "--k-min", "1", "--k-max", "3"]

    @staticmethod
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            os.environ.pop("ZONE_SEED", None)
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    def test_negative_exponent_reads_as_the_same_bound(self, store):
        argv = self.ARGV + ["--store", str(store), "--bbox"]
        code, plain, _ = self.run(argv + ["-0.00001", "6.6", "-75.8", "-75.1"])
        assert code == EXIT_OK and plain.startswith("Cluster centers")
        assert self.run(argv + ["-1e-05", "6.6", "-75.8", "-75.1"])[:2] == (EXIT_OK, plain)

    @pytest.mark.parametrize("bound", ["-inf", "-Infinity", "-1E-5", "-.5e1"])
    def test_negative_float_forms_read_as_values(self, store, bound):
        assert self.run(self.ARGV + ["--store", str(store), "--bbox", bound, "6.6", "-75.8", "-75.1"])[0] == EXIT_OK

    def test_negative_exponent_eps_is_a_config_error(self, store):
        with pytest.raises(ConfigError) as expected:
            DbscanConfig(eps_km=-1e-05)
        code, out, err = self.run(self.ARGV + ["--store", str(store), "--eps-km", "-1e-05"])
        assert (code, out, err) == (EXIT_ERROR, "", f"error: {expected.value}\n")

    def test_help_still_prints(self):
        code, out, _ = self.run(["pipeline", "-h"])
        assert code == EXIT_OK and out.startswith("usage: geozones pipeline") and "--bbox" in out
