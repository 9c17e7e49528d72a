"""Normalized (latitude, longitude, text) corpus and its filters.

Stored documents become flat corpus records; keyword, bounding-box and
dedup filters run before clustering. Text is reference material for
filtering only, never part of any distance computation.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigError
from .geo import GeoPoint
from .store import StoredDocument

KEYWORD_MODES = ("any", "all")
DEFAULT_KEYWORDS = ("Medellín", "Fiesta", "4sq.com")


@dataclass(frozen=True)
class CorpusRecord:
    position: GeoPoint
    text: str
    origin: str  # "tweet" | "photo"
    source_doc_id: int


@dataclass(frozen=True)
class BoundingBox:
    min_lat: float
    max_lat: float
    min_lon: float
    max_lon: float

    def __post_init__(self):
        # Written so that NaN bounds, which fail every comparison, are rejected.
        if not (self.min_lat <= self.max_lat and self.min_lon <= self.max_lon):
            raise ConfigError(
                f"degenerate bounding box: lat [{self.min_lat}, {self.max_lat}], "
                f"lon [{self.min_lon}, {self.max_lon}]"
            )

    def contains(self, point: GeoPoint) -> bool:
        """Closed-interval containment: boundary points are inside."""
        return (
            self.min_lat <= point.lat_deg <= self.max_lat
            and self.min_lon <= point.lon_deg <= self.max_lon
        )


# Covers the Aburra and San Nicolas valleys around Medellin.
DEFAULT_STUDY_AREA = BoundingBox(min_lat=5.90, max_lat=6.60, min_lon=-75.80, max_lon=-75.10)


@dataclass(frozen=True)
class KeywordQuery:
    terms: tuple[str, ...]
    mode: str = "any"

    def __post_init__(self):
        if not self.terms or any(not fold_text(t).strip() for t in self.terms):
            raise ConfigError("keyword query needs at least one non-blank term")
        if self.mode not in KEYWORD_MODES:
            raise ConfigError(f"keyword mode must be one of {KEYWORD_MODES}, got {self.mode!r}")


def fold_text(text: str) -> str:
    """Accent-insensitive, case-insensitive comparison key.

    NFD decomposition with combining marks stripped, then casefold, so
    'Medellín' and 'medellin' compare equal.
    """
    decomposed = unicodedata.normalize("NFD", text)
    stripped = "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")
    return stripped.casefold()


def normalize(doc: StoredDocument) -> CorpusRecord | None:
    """Flatten a stored document into a corpus record.

    Tweets whose coordinates block is null are dropped (None), not errors;
    photos always carry a fix. Tweets contribute their message text; photos
    contribute their name.
    """
    if doc.collection == "tweet":
        block = doc.body.get("coordinates")
        if block is None:
            return None
        inner = block["coordinates"]
        position = GeoPoint(inner["latitude"], inner["longitude"])
        text = doc.body["text"]
    else:
        geo = doc.body["geo"]
        position = GeoPoint(geo["latitude"], geo["longitude"])
        text = doc.body["name"]
    return CorpusRecord(position=position, text=text, origin=doc.collection, source_doc_id=doc.doc_id)


def filter_keywords(records: Iterable[CorpusRecord], query: KeywordQuery) -> list[CorpusRecord]:
    """Keep records whose folded text contains the query terms (substring)."""
    folded_terms = [fold_text(t) for t in query.terms]
    combine = any if query.mode == "any" else all
    kept = []
    for record in records:
        haystack = fold_text(record.text)
        if combine(term in haystack for term in folded_terms):
            kept.append(record)
    return kept


def filter_bbox(
    records: Iterable[CorpusRecord], box: BoundingBox
) -> tuple[list[CorpusRecord], list[CorpusRecord]]:
    """Partition records into (inside, purged) by closed-interval containment."""
    inside, purged = [], []
    for record in records:
        (inside if box.contains(record.position) else purged).append(record)
    return inside, purged


def dedupe(records: Iterable[CorpusRecord]) -> list[CorpusRecord]:
    """Drop exact duplicates by (position, text, origin), keeping the first."""
    seen = set()
    kept = []
    for record in records:
        key = (record.position.lat_deg, record.position.lon_deg, record.text, record.origin)
        if key in seen:
            continue
        seen.add(key)
        kept.append(record)
    return kept
