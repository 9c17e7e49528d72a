"""GeoJSON emission for zone-of-interest results.

All coordinates are serialized in [longitude, latitude] order per the
GeoJSON standard, with full round-trip float precision. Feature order is
deterministic: centroid points ascending by cluster id, then coverage
polygons ascending by cluster id, then (optionally) member points in
corpus order.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import CorpusColumns
from .coverage import CoverageSummary
from .errors import StorageError
from .geo import GeoPoint


def _feature(geometry_type: str, coordinates: list, properties: dict) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": geometry_type, "coordinates": coordinates},
        "properties": properties,
    }


def export_geojson(
    zones: Sequence[tuple[CoverageSummary, Sequence[GeoPoint]]],
    labels: np.ndarray,
    members: CorpusColumns,
    include_members: bool = False,
    query_terms: Sequence[str] = (),
) -> dict:
    """Build the zone FeatureCollection from (summary, closed ring) pairs.

    ``members`` holds the clustered corpus rows in corpus order, and
    ``labels[i]`` is the cluster id of row i. Column j of ``members.hits``
    marks the rows holding ``query_terms[j]``; a zone's top_terms are the
    distinct terms its members hold, alphabetically.
    """
    labels = np.asarray(labels)
    if len(labels) != len(members):
        raise ValueError(f"labels cover {len(labels)} members, got {len(members)}")
    if members.hits.shape[1] != len(query_terms):
        raise ValueError(f"hits cover {members.hits.shape[1]} query terms, got {len(query_terms)}")
    features = []
    for summary, _ in zones:
        held = members.hits[labels == summary.cluster_id]
        properties = {
            "cluster_id": summary.cluster_id,
            "radius_km": summary.radius_km,
            "member_count": len(held),
            "top_terms": sorted({term for term, found in zip(query_terms, held.any(axis=0).tolist()) if found}),
        }
        lat, lon = summary.point_of_means
        features.append(_feature("Point", [lon, lat], properties))
    for summary, ring in zones:
        properties = {"cluster_id": summary.cluster_id, "radius_km": summary.radius_km}
        features.append(_feature("Polygon", [[[lon, lat] for lat, lon in ring]], properties))
    if include_members:
        for cid, (lat, lon), text in zip(labels.tolist(), members.x.tolist(), members.text.tolist()):
            features.append(_feature("Point", [lon, lat], {"cluster_id": cid, "text": text}))
    return {"type": "FeatureCollection", "features": features}


def write_geojson(document: dict, path) -> None:
    """Serialize with stable key order and round-trip float precision, atomically.

    The bytes go to a temporary file in the same directory, which is fsynced
    and then renamed over ``path``: a crash leaves the old file or the new
    one, never a torn one. Raises StorageError naming ``path`` when the file
    cannot be written; the temporary file is removed then.
    """
    data = (json.dumps(document, ensure_ascii=False, indent=2) + "\n").encode("utf-8")
    temp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(temp, path)
    except OSError as exc:
        temp.unlink(missing_ok=True)
        raise StorageError(f"cannot write {path}: {exc.strerror or exc}") from exc
