"""Per-cluster coverage geometry: point of means, radius, coverage ring.

The coverage radius of a cluster is the haversine distance from its point
of means (coordinate mean of the members) to the member farthest from that
point. The coverage ring is a polygon drawn around the point of means at
that radius; it is built only to render a summary, never stored with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import Labeling, points_array
from .errors import ConfigError
from .geo import DistanceKm, GeoPoint, destination_point, haversine_distance

DEFAULT_VERTEX_COUNT = 64


@dataclass(frozen=True)
class CoverageSummary:
    cluster_id: int
    point_of_means: GeoPoint
    distant_point: GeoPoint
    radius_km: DistanceKm

    @property
    def centroid(self) -> GeoPoint:
        """The cluster centroid, which is the point of means."""
        return self.point_of_means


def point_of_means(members: Sequence[GeoPoint] | Sequence[Sequence[float]]) -> GeoPoint:
    """Coordinate mean of a non-empty set of points or (lat, lon) rows (compensated summation)."""
    if len(members) == 0:
        raise ValueError("point of means of an empty cluster is undefined")
    lats, lons = zip(*members)
    return GeoPoint(math.fsum(lats) / len(members), math.fsum(lons) / len(members))


def coverage_circle(
    centroid: GeoPoint, radius_km: DistanceKm, vertex_count: int = DEFAULT_VERTEX_COUNT
) -> tuple[GeoPoint, ...]:
    """Closed ring of a spherical polygon approximating the coverage circumference.

    Vertices sit at bearings i * 360 / vertex_count; the ring is closed by
    repeating the first vertex, so it has vertex_count + 1 points. Radius
    zero collapses every vertex onto the center; a negative or non-finite
    radius raises CoordinateError.
    """
    if vertex_count < 3:
        raise ConfigError(f"a ring needs at least 3 vertices, got {vertex_count}")
    vertices = [
        destination_point(centroid, i * 360.0 / vertex_count, radius_km) for i in range(vertex_count)
    ]
    vertices.append(vertices[0])
    return tuple(vertices)


def summarize(labeling: Labeling, points: Sequence[GeoPoint] | np.ndarray) -> list[CoverageSummary]:
    """One coverage summary per non-empty cluster, ordered by cluster id.

    ``points`` is a ``GeoPoint`` sequence or an (n, 2) array of (lat, lon)
    rows. The radius is the exact maximum member distance from the point of
    means, found by exhaustive scan; ties keep the earliest member. NOISE
    points never participate.
    """
    x = points_array(points)
    if len(x) != len(labeling.labels):
        raise ValueError(f"labeling covers {len(labeling.labels)} points, got {len(x)}")
    summaries = []
    for cid in range(labeling.n_clusters):
        rows = x[labeling.labels == cid].tolist()
        if not rows:
            continue
        mean = point_of_means(rows)
        origin = tuple(mean)
        distances = [haversine_distance(origin, row) for row in rows]
        far = distances.index(max(distances))
        summaries.append(CoverageSummary(cid, mean, GeoPoint(*rows[far]), distances[far]))
    return summaries
