"""Normalized (latitude, longitude, text) corpus and its filters.

Stored documents become columns, one row per located record; keyword,
bounding-box and dedup filters select rows before clustering. The keyword
filter is the one text matcher and keeps each row's term hits as a column.
Iterating the columns yields ``CorpusRecord``s; the pipeline builds none.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

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


@dataclass(frozen=True, eq=False)
class CorpusColumns:
    """Located records as columns, one row per record, in store order."""

    x: np.ndarray  # (n, 2) float64 (lat, lon) rows in degrees
    # Object arrays, so a row selection picks from every column alike.
    text: np.ndarray  # str
    origin: np.ndarray  # "tweet" | "photo"
    doc_id: np.ndarray  # int
    hits: np.ndarray  # (n, t) bool: row i holds query term j; t = 0 before the keyword filter

    def __len__(self) -> int:
        return len(self.text)

    def take(self, rows) -> CorpusColumns:
        """The rows a boolean mask or an index list selects, in index order."""
        return CorpusColumns(self.x[rows], self.text[rows], self.origin[rows], self.doc_id[rows], self.hits[rows])

    def __iter__(self) -> Iterator[CorpusRecord]:
        rows = zip(self.x.tolist(), self.text.tolist(), self.origin.tolist(), self.doc_id.tolist())
        return (CorpusRecord(GeoPoint(lat, lon), text, origin, doc_id) for (lat, lon), text, origin, doc_id in rows)


@dataclass(frozen=True)
class BoundingBox:
    min_lat: float
    max_lat: float
    min_lon: float
    max_lon: float

    def __post_init__(self):
        for name in ("min_lat", "max_lat", "min_lon", "max_lon"):
            try:
                object.__setattr__(self, name, float(getattr(self, name)))
            except OverflowError as exc:
                raise ConfigError(f"bounding box {name} does not fit in a float: {exc}") from exc
        # Written so that NaN bounds, which fail every comparison, are rejected.
        if not (self.min_lat <= self.max_lat and self.min_lon <= self.max_lon):
            raise ConfigError(
                f"degenerate bounding box: lat [{self.min_lat}, {self.max_lat}], "
                f"lon [{self.min_lon}, {self.max_lon}]"
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
    'Medellín' and 'medellin' compare equal. NFD changes no ASCII text and
    finds no mark in it, so ASCII text is only casefolded.
    """
    if text.isascii():
        return text.casefold()
    decomposed = unicodedata.normalize("NFD", text)
    stripped = "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")
    return stripped.casefold()


def normalize(docs: Iterable[StoredDocument]) -> CorpusColumns:
    """Columns of the located records; a tweet whose coordinates block is null is dropped."""
    xy, text, origin, doc_id = [], [], [], []
    for doc in docs:
        if doc.collection == "photo":
            point, words = doc.body["geo"], doc.body["name"]
        elif doc.body["coordinates"] is not None:
            point, words = doc.body["coordinates"]["coordinates"], doc.body["text"]
        else:
            continue
        xy.extend((point["latitude"], point["longitude"]))
        text.append(words)
        origin.append(doc.collection)
        doc_id.append(doc.doc_id)
    columns = (np.array(column, dtype=object) for column in (text, origin, doc_id))
    return CorpusColumns(np.array(xy, dtype=np.float64).reshape(-1, 2), *columns, np.zeros((len(text), 0), dtype=bool))


def filter_keywords(corpus: CorpusColumns, query: KeywordQuery) -> CorpusColumns:
    """Keep rows whose folded text contains any or all folded query terms; ``hits[i, j]``: row i holds term j."""
    terms = [fold_text(t) for t in query.terms]
    found = (term in text for text in map(fold_text, corpus.text) for term in terms)
    hits = np.fromiter(found, dtype=bool, count=len(corpus) * len(terms)).reshape(len(corpus), len(terms))
    return replace(corpus, hits=hits).take(hits.any(axis=1) if query.mode == "any" else hits.all(axis=1))


def filter_bbox(corpus: CorpusColumns, box: BoundingBox) -> tuple[CorpusColumns, CorpusColumns]:
    """Partition rows into (inside, purged) by closed-interval containment."""
    lat, lon = corpus.x[:, 0], corpus.x[:, 1]
    inside = (box.min_lat <= lat) & (lat <= box.max_lat) & (box.min_lon <= lon) & (lon <= box.max_lon)
    return corpus.take(inside), corpus.take(~inside)


def dedupe(corpus: CorpusColumns) -> CorpusColumns:
    """Drop exact duplicates by (position, text, origin), keeping the first."""
    first_row = {}
    for row, key in enumerate(zip(*corpus.x.T.tolist(), corpus.text, corpus.origin)):
        first_row.setdefault(key, row)
    return corpus.take(list(first_row.values()))
