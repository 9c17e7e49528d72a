"""End-to-end pipeline: store scan -> corpus -> clustering -> coverage -> GeoJSON."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .clustering import (
    NOISE,
    DbscanConfig,
    Labeling,
    XMeansConfig,
    dbscan,
    format_cluster_report,
    xmeans,
)
from .corpus import (
    DEFAULT_KEYWORDS,
    DEFAULT_STUDY_AREA,
    BoundingBox,
    CorpusColumns,
    KeywordQuery,
    dedupe,
    filter_bbox,
    filter_keywords,
    normalize,
)
from .coverage import DEFAULT_VERTEX_COUNT, CoverageSummary, coverage_circle, summarize
from .errors import ConfigError, EmptyCorpusError
from .export import export_geojson, write_geojson
from .store import DocumentStore


@dataclass(frozen=True)
class PipelineConfig:
    store_dir: str
    bbox: BoundingBox = DEFAULT_STUDY_AREA
    keywords: KeywordQuery = KeywordQuery(terms=DEFAULT_KEYWORDS)
    xmeans: XMeansConfig = XMeansConfig(k_min=10, k_max=10)
    dbscan: DbscanConfig = DbscanConfig()
    vertex_count: int = DEFAULT_VERTEX_COUNT
    output_path: str | None = None
    include_members: bool = False
    # Has no effect: the whole pipeline runs serially. Kept so existing callers still construct.
    workers: int = 1

    def __post_init__(self):
        # Rings are built only with an output path; check the count before any run anyway.
        if self.vertex_count < 3:
            raise ConfigError(f"vertex_count must be at least 3, got {self.vertex_count}")


@dataclass
class PipelineResult:
    report: str
    summaries: list[CoverageSummary]
    records: CorpusColumns  # the clustered (non-noise) rows; iterating yields CorpusRecords
    labeling: Labeling
    purged: CorpusColumns
    noise: CorpusColumns


def build_corpus(store: DocumentStore, keywords: KeywordQuery, bbox: BoundingBox):
    """Scan and filter the store into (kept, purged) columns; kept rows are inside the box and deduplicated."""
    located = normalize(chain(store.scan("tweet"), store.scan("photo")))
    inside, purged = filter_bbox(filter_keywords(located, keywords), bbox)
    return dedupe(inside), purged


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Execute the full zone-mining pipeline against one store directory.

    Raises EmptyCorpusError when no records survive filtering (or when
    density clustering marks everything as noise).
    """
    with DocumentStore(cfg.store_dir, read_only=True) as store:
        corpus, purged = build_corpus(store, cfg.keywords, cfg.bbox)
    if not len(corpus):
        raise EmptyCorpusError("empty corpus: no records survived filtering")

    keep = dbscan(corpus.x, cfg.dbscan).labels != NOISE
    kept, noise = corpus.take(keep), corpus.take(~keep)
    if not len(kept):
        raise EmptyCorpusError("empty corpus: density clustering labeled every record as noise")

    labeling = xmeans(kept.x, cfg.xmeans)
    summaries = summarize(labeling, kept.x)
    if cfg.output_path is not None:
        zones = [(s, coverage_circle(s.point_of_means, s.radius_km, cfg.vertex_count)) for s in summaries]
        document = export_geojson(
            zones, labeling.labels, kept, include_members=cfg.include_members, query_terms=cfg.keywords.terms
        )
        write_geojson(document, Path(cfg.output_path))
    return PipelineResult(
        report=format_cluster_report(labeling.centroids),
        summaries=summaries,
        records=kept,
        labeling=labeling,
        purged=purged,
        noise=noise,
    )
