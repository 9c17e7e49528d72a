"""GeoJSON emission for zone-of-interest results.

All coordinates are serialized in [longitude, latitude] order per the
GeoJSON standard, with full round-trip float precision. Feature order is
deterministic: centroid points ascending by cluster id, then coverage
polygons ascending by cluster id, then (optionally) member points in
corpus order.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Sequence

from .corpus import CorpusRecord, fold_text
from .coverage import CoverageSummary
from .errors import StorageError
from .geo import GeoPoint


def _position(point: GeoPoint) -> list[float]:
    return [point.lon_deg, point.lat_deg]


def _point_feature(point: GeoPoint, properties: dict) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": _position(point)},
        "properties": properties,
    }


def _polygon_feature(ring: Sequence[GeoPoint], properties: dict) -> dict:
    positions = [_position(vertex) for vertex in ring]
    return {
        "type": "Feature",
        "geometry": {"type": "Polygon", "coordinates": [positions]},
        "properties": properties,
    }


def top_terms(texts: Sequence[str], query_terms: Sequence[str]) -> list[str]:
    """Query terms present in at least one of the texts, alphabetically."""
    present = set()
    folded = [(term, fold_text(term)) for term in query_terms]
    for text in texts:
        haystack = fold_text(text)
        for term, needle in folded:
            if needle in haystack:
                present.add(term)
    return sorted(present)


def export_geojson(
    zones: Sequence[tuple[CoverageSummary, Sequence[GeoPoint]]],
    members: Sequence[tuple[int, CorpusRecord]],
    include_members: bool = False,
    query_terms: Sequence[str] = (),
) -> dict:
    """Build the zone FeatureCollection from (summary, closed ring) pairs.

    ``members`` pairs each clustered corpus record with its cluster id, in
    corpus order; it feeds the member_count/top_terms properties and the
    optional member point features.
    """
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


def write_geojson(document: dict, path) -> None:
    """Serialize with stable key order and round-trip float precision.

    Raises StorageError naming ``path`` when the file cannot be written.
    """
    text = json.dumps(document, ensure_ascii=False, indent=2)
    try:
        Path(path).write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc.strerror or exc}") from exc
