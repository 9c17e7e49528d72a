"""Reference forms of the corpus stages, of ``summarize`` and of the GeoJSON builder.

The corpus part holds the per-record forms of ``geozones.corpus``'s stages:
normalize one stored document into a ``CorpusRecord``, then filter lists of
records by keyword, bounding box and duplicates. The coverage part holds
``summarize`` over a ``GeoPoint`` list, with the scalar haversine. The
export part holds the GeoJSON builder with one builder per geometry and
members counted apart from their texts, over (cluster id, record) pairs.
All are kept here as written and never imported from ``src/``, so
``pipeline.build_corpus``, ``coverage.summarize`` and
``export.export_geojson`` are checked against a second, independent
implementation. Only the data types come from the package.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter

from geozones.corpus import CorpusRecord
from geozones.coverage import CoverageSummary
from geozones.geo import GeoPoint
from geozones.store import StoredDocument


def fold_text(text: str) -> str:
    """NFD decomposition with combining marks stripped, then casefold."""
    decomposed = unicodedata.normalize("NFD", text)
    stripped = "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")
    return stripped.casefold()


def normalize(doc: StoredDocument) -> CorpusRecord | None:
    """A tweet's text or a photo's name at its position; None for an unlocated tweet."""
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


def filter_keywords(records, query) -> list[CorpusRecord]:
    """Records whose folded text contains the folded terms (any or all of them)."""
    folded_terms = [fold_text(t) for t in query.terms]
    combine = any if query.mode == "any" else all
    kept = []
    for record in records:
        haystack = fold_text(record.text)
        if combine(term in haystack for term in folded_terms):
            kept.append(record)
    return kept


def filter_bbox(records, box) -> tuple[list[CorpusRecord], list[CorpusRecord]]:
    """(inside, purged) by closed-interval containment: edge points are inside."""
    inside, purged = [], []
    for record in records:
        lat, lon = record.position.lat_deg, record.position.lon_deg
        contained = box.min_lat <= lat <= box.max_lat and box.min_lon <= lon <= box.max_lon
        (inside if contained else purged).append(record)
    return inside, purged


def dedupe(records) -> list[CorpusRecord]:
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


def corpus(bodies: dict[str, list[dict]], query, box) -> tuple[list[CorpusRecord], list[CorpusRecord]]:
    """(records, purged) for a store holding ``bodies`` per collection, tweets first."""
    records = []
    for collection in ("tweet", "photo"):
        for doc_id, body in enumerate(bodies.get(collection, ())):
            record = normalize(StoredDocument(collection, body, doc_id))
            if record is not None:
                records.append(record)
    inside, purged = filter_bbox(filter_keywords(records, query), box)
    return dedupe(inside), purged


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in km on a sphere of radius 6371 km, clamped against overshoot."""
    to_rad = math.pi / 180.0
    lat1, lat2 = a.lat_deg * to_rad, b.lat_deg * to_rad
    dlat = (b.lat_deg - a.lat_deg) * to_rad
    dlon = (b.lon_deg - a.lon_deg) * to_rad
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * 6371.0 * math.asin(min(1.0, math.sqrt(max(0.0, h))))


def point_of_means(members) -> GeoPoint:
    """Coordinate mean of a non-empty point list, each sum correctly rounded."""
    n = len(members)
    return GeoPoint(math.fsum(p.lat_deg for p in members) / n, math.fsum(p.lon_deg for p in members) / n)


def summarize(labeling, points) -> list[CoverageSummary]:
    """One summary per non-empty cluster by id: the mean, the farthest member (first on ties), its distance."""
    summaries = []
    for cid in range(labeling.n_clusters):
        members = [point for point, label in zip(points, labeling.labels) if label == cid]
        if not members:
            continue
        mean = point_of_means(members)
        distances = [haversine_distance(mean, m) for m in members]
        far = distances.index(max(distances))
        summaries.append(
            CoverageSummary(cluster_id=cid, point_of_means=mean, distant_point=members[far], radius_km=distances[far])
        )
    return summaries


def _position(point) -> list[float]:
    return [point.lon_deg, point.lat_deg]


def _point_feature(point, properties: dict) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": _position(point)},
        "properties": properties,
    }


def _polygon_feature(ring, properties: dict) -> dict:
    positions = [_position(vertex) for vertex in ring]
    return {
        "type": "Feature",
        "geometry": {"type": "Polygon", "coordinates": [positions]},
        "properties": properties,
    }


def top_terms(texts, query_terms) -> list[str]:
    """Query terms present in at least one of the texts, alphabetically."""
    present = set()
    folded = [(term, fold_text(term)) for term in query_terms]
    for text in texts:
        haystack = fold_text(text)
        for term, needle in folded:
            if needle in haystack:
                present.add(term)
    return sorted(present)


def export_geojson(zones, members, include_members=False, query_terms=()) -> dict:
    """The zone FeatureCollection from (summary, closed ring) pairs and (cluster id, record) members."""
    counts = Counter(cid for cid, _ in members)
    texts_by_cluster: dict[int, list[str]] = {}
    for cid, record in members:
        texts_by_cluster.setdefault(cid, []).append(record.text)

    features = []
    for summary, _ in zones:
        features.append(
            _point_feature(
                summary.point_of_means,
                {
                    "cluster_id": summary.cluster_id,
                    "radius_km": summary.radius_km,
                    "member_count": counts.get(summary.cluster_id, 0),
                    "top_terms": top_terms(texts_by_cluster.get(summary.cluster_id, ()), query_terms),
                },
            )
        )
    for summary, ring in zones:
        features.append(
            _polygon_feature(ring, {"cluster_id": summary.cluster_id, "radius_km": summary.radius_km})
        )
    if include_members:
        for cid, record in members:
            features.append(
                _point_feature(record.position, {"cluster_id": cid, "text": record.text})
            )
    return {"type": "FeatureCollection", "features": features}
