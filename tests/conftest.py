from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from geozones.corpus import CorpusColumns
from geozones.geo import GeoPoint
from geozones.store import DocumentStore

from . import reference

FIXTURES = Path(__file__).parent / "fixtures"

# Coordinates of the known mislocated record (far outside the study area).
BUG_POINT = GeoPoint(40.05701649, -75.14310264)


@pytest.fixture
def tweet_payload() -> str:
    return (FIXTURES / "tweet_geotagged.json").read_text(encoding="utf-8")


@pytest.fixture
def photo_search_payload() -> str:
    return (FIXTURES / "photo_search_page.xml").read_text(encoding="utf-8")


@pytest.fixture
def photo_geo_payload() -> str:
    return (FIXTURES / "photo_geo_entity.xml").read_text(encoding="utf-8")


def columns(records, terms=()) -> CorpusColumns:
    """The corpus columns holding ``records`` as rows, in order, with their hits of ``terms``."""
    folded = [reference.fold_text(term) for term in terms]
    hits = [[term in reference.fold_text(r.text) for term in folded] for r in records]
    return CorpusColumns(
        x=np.array([(r.position.lat_deg, r.position.lon_deg) for r in records], dtype=np.float64).reshape(-1, 2),
        text=np.array([r.text for r in records], dtype=object),
        origin=np.array([r.origin for r in records], dtype=object),
        doc_id=np.array([r.source_doc_id for r in records], dtype=object),
        hits=np.array(hits, dtype=bool).reshape(len(records), len(folded)),
    )


def make_blobs(centers, sigma: float, n_per: int, seed: int) -> list[GeoPoint]:
    """Gaussian point blobs around the given (lat, lon) centers."""
    rng = np.random.default_rng(seed)
    points = []
    for lat, lon in centers:
        offsets = rng.normal(0.0, sigma, size=(n_per, 2))
        points.extend(GeoPoint(lat + d_lat, lon + d_lon) for d_lat, d_lon in offsets)
    return points


def sample_centers_in_box(count: int, seed: int, margin: float = 0.05):
    """(lat, lon) centers sampled inside the default study area."""
    rng = np.random.default_rng(seed)
    lats = rng.uniform(5.90 + margin, 6.60 - margin, size=count)
    lons = rng.uniform(-75.80 + margin, -75.10 - margin, size=count)
    return list(zip(lats, lons))


def tweet_body_at(point: GeoPoint, text: str) -> dict:
    return {
        "coordinates": {
            "coordinates": {"latitude": point.lat_deg, "longitude": point.lon_deg},
            "type": "Point",
        },
        "source": "test",
        "text": text,
    }


def populate_store(directory, points, texts=None) -> None:
    """Fill a store with one geotagged tweet per point."""
    keyword_cycle = ("arriba Medellín", "gran fiesta hoy", "I'm at X 4sq.com/abc")
    with DocumentStore(directory) as store:
        for i, point in enumerate(points):
            text = texts[i] if texts is not None else keyword_cycle[i % 3]
            store.put("tweet", tweet_body_at(point, text))


def write_tweet_file(directory: Path, name: str, point: GeoPoint | None, text: str = "hello"):
    payload = {
        "coordinates": None
        if point is None
        else {"coordinates": [point.lon_deg, point.lat_deg], "type": "Point"},
        "source": "test",
        "text": text,
    }
    (directory / name).write_text(json.dumps(payload), encoding="utf-8")
