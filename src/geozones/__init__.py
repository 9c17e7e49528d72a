"""geozones: mine geotagged social-media records into zones of interest.

Pipeline: ingest tweet/photo payloads -> file-backed document store ->
normalized (lat, lon, text) corpus -> density-based noise removal ->
X-means clustering -> per-cluster coverage circles -> GeoJSON.
"""

from .clustering import (
    NOISE,
    DbscanConfig,
    KMeansConfig,
    Labeling,
    XMeansConfig,
    dbscan,
    format_cluster_report,
    kmeans,
    xmeans,
)
from .corpus import (
    DEFAULT_KEYWORDS,
    DEFAULT_STUDY_AREA,
    BoundingBox,
    CorpusRecord,
    KeywordQuery,
    dedupe,
    filter_bbox,
    filter_keywords,
    normalize,
)
from .coverage import (
    CoverageSummary,
    coverage_circle,
    point_of_means,
    summarize,
)
from .errors import (
    ConfigError,
    CoordinateError,
    EmptyCorpusError,
    ParseError,
    SchemaError,
    StorageError,
    ZoneError,
)
from .export import export_geojson, write_geojson
from .geo import (
    EARTH_RADIUS_KM,
    DistanceKm,
    GeoPoint,
    destination_point,
    haversine_distance,
)
from .ingest import (
    PhotoRecord,
    PhotoSearchPage,
    RawPhotoStub,
    RawTweet,
    ReplaySummary,
    parse_photo_geo,
    parse_photo_search,
    parse_tweet,
    replay_source,
)
from .pipeline import PipelineConfig, PipelineResult, build_corpus, run_pipeline
from .store import DocumentStore, StoredDocument, StoreStats, photo_body, tweet_body

__version__ = "0.1.0"
