"""Command-line interface: ``ingest`` fixtures into the store, run the ``pipeline`` on it."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import astuple

from .clustering import DbscanConfig, KMeansConfig, XMeansConfig
from .corpus import DEFAULT_KEYWORDS, DEFAULT_STUDY_AREA, KEYWORD_MODES, BoundingBox, KeywordQuery
from .errors import EmptyCorpusError, ZoneError
from .ingest import ReplaySummary, _echo, replay_source
from .pipeline import PipelineConfig, run_pipeline
from .store import DocumentStore, StoreStats, photo_body, tweet_body

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_EMPTY_CORPUS = 2


def _seed_from_env(args) -> int:
    env = os.environ.get("ZONE_SEED")
    if env is None:
        return args.seed
    if not (env.isascii() and env.isdigit()):
        raise ZoneError(f"ZONE_SEED must be a non-negative decimal integer, got {_echo(env)}")
    try:
        return int(env)
    except ValueError as exc:  # more digits than int() converts
        raise ZoneError(f"ZONE_SEED has {len(env)} digits, more than int() converts") from exc


def _pipeline_config(args) -> PipelineConfig:
    inner = KMeansConfig(
        k=1,
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
        seed=_seed_from_env(args),
        restarts=args.restarts,
    )
    return PipelineConfig(
        store_dir=args.store,
        bbox=BoundingBox(*args.bbox),
        keywords=KeywordQuery(terms=tuple(args.keywords or DEFAULT_KEYWORDS), mode=args.keyword_mode),
        xmeans=XMeansConfig(k_min=args.k_min, k_max=args.k_max, inner=inner),
        dbscan=DbscanConfig(eps_km=args.eps_km, min_pts=args.min_pts),
        vertex_count=args.vertex_count,
        output_path=args.output,
        include_members=args.include_members,
    )


def ingest_command(input_dir, kind: str, store_dir, out=None) -> StoreStats:
    """Replay a fixture directory into the store; returns final store stats.

    The run is one store batch: its records become durable together at the
    end, or, if anything fails, none of them is kept.
    """
    out = out if out is not None else sys.stdout
    with DocumentStore(store_dir) as store:
        with store.batch():
            for item in replay_source(input_dir, kind):
                if isinstance(item, ReplaySummary):
                    for name, reason in item.failures:
                        print(f"skipped {name}: {reason}", file=sys.stderr)
                    print(f"parsed {item.parsed} record(s), skipped {item.skipped} file(s)", file=out)
                elif kind == "tweet":
                    store.put("tweet", tweet_body(item))
                else:
                    store.put("photo", photo_body(item))
        stats = store.stats()
    print(f"store now holds {stats.tweet_count} tweet(s), {stats.photo_count} photo(s)", file=out)
    return stats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geozones",
        description="Mine geotagged social-media records into zones of interest.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse a fixture directory into the store")
    p_ingest.add_argument("--input", required=True, help="directory of payload files")
    p_ingest.add_argument("--kind", required=True, choices=("tweet", "photo"))
    p_ingest.add_argument("--store", required=True, help="store directory")

    p_pipeline = sub.add_parser("pipeline", help="cluster the corpus, print report and coverage")
    p_pipeline.add_argument("--store", required=True, help="store directory")
    p_pipeline.add_argument(
        "--keyword",
        action="append",
        dest="keywords",
        metavar="TERM",
        help=f"filter term, repeatable (default: {', '.join(DEFAULT_KEYWORDS)})",
    )
    p_pipeline.add_argument("--keyword-mode", choices=KEYWORD_MODES, default=KeywordQuery.mode)
    p_pipeline.add_argument(
        "--bbox",
        nargs=4,
        type=float,
        metavar=("MIN_LAT", "MAX_LAT", "MIN_LON", "MAX_LON"),
        default=astuple(DEFAULT_STUDY_AREA),
        help="study-area bounding box (closed intervals)",
    )
    p_pipeline.add_argument("--k-min", type=int, default=PipelineConfig.xmeans.k_min)
    p_pipeline.add_argument("--k-max", type=int, default=PipelineConfig.xmeans.k_max)
    p_pipeline.add_argument(
        "--eps-km", type=float, default=DbscanConfig.eps_km, help="density neighborhood radius"
    )
    p_pipeline.add_argument(
        "--min-pts", type=int, default=DbscanConfig.min_pts, help="density core threshold"
    )
    p_pipeline.add_argument(
        "--seed", type=int, default=KMeansConfig.seed, help="clustering seed (ZONE_SEED overrides)"
    )
    p_pipeline.add_argument("--restarts", type=int, default=KMeansConfig.restarts)
    p_pipeline.add_argument("--max-iterations", type=int, default=KMeansConfig.max_iterations)
    p_pipeline.add_argument("--tolerance", type=float, default=KMeansConfig.tolerance)
    p_pipeline.add_argument("--vertex-count", type=int, default=PipelineConfig.vertex_count)
    p_pipeline.add_argument("--output", help="also write the zone GeoJSON to this path")
    p_pipeline.add_argument(
        "--include-members", action="store_true", help="add member points to the GeoJSON"
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR

    try:
        if args.command == "ingest":
            ingest_command(args.input, args.kind, args.store)
            return EXIT_OK

        cfg = _pipeline_config(args)
        result = run_pipeline(cfg)
        print(result.report)
        for s in result.summaries:
            print(
                f"Cluster {s.cluster_id}: radius_km={s.radius_km!r} "
                f"mean=({s.point_of_means.lat_deg!r}, {s.point_of_means.lon_deg!r}) "
                f"distant=({s.distant_point.lat_deg!r}, {s.distant_point.lon_deg!r})"
            )
        if cfg.output_path is not None:
            print(f"wrote {cfg.output_path}", file=sys.stderr)
        return EXIT_OK
    except EmptyCorpusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_CORPUS
    except ZoneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
