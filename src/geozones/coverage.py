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

from .clustering import Labeling
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


def point_of_means(members: Sequence[GeoPoint]) -> GeoPoint:
    """Coordinate mean of a non-empty point set (compensated summation)."""
    if len(members) == 0:
        raise ValueError("point of means of an empty cluster is undefined")
    n = len(members)
    return GeoPoint(
        math.fsum(p.lat_deg for p in members) / n,
        math.fsum(p.lon_deg for p in members) / n,
    )


def _farthest(mean: GeoPoint, members: Sequence[GeoPoint]) -> tuple[GeoPoint, DistanceKm]:
    """Exhaustive scan for the member farthest from ``mean``; ties keep the earliest."""
    distant = members[0]
    radius = haversine_distance(mean, distant)
    for member in members[1:]:
        d = haversine_distance(mean, member)
        if d > radius:
            distant, radius = member, d
    return distant, radius


def coverage_radius(members: Sequence[GeoPoint]) -> tuple[GeoPoint, DistanceKm]:
    """(farthest member from the point of means, that exact distance).

    The maximum is found by exhaustive scan; ties keep the earliest member.
    """
    if len(members) == 0:
        raise ValueError("coverage radius of an empty cluster is undefined")
    return _farthest(point_of_means(members), members)


def coverage_circle(
    centroid: GeoPoint, radius_km: DistanceKm, vertex_count: int = DEFAULT_VERTEX_COUNT
) -> tuple[GeoPoint, ...]:
    """Closed ring of a spherical polygon approximating the coverage circumference.

    Vertices sit at bearings i * 360 / vertex_count; the ring is closed by
    repeating the first vertex, so it has vertex_count + 1 points. Radius
    zero collapses every vertex onto the center.
    """
    if vertex_count < 3:
        raise ConfigError(f"a ring needs at least 3 vertices, got {vertex_count}")
    if radius_km < 0:
        raise ValueError(f"radius must be non-negative, got {radius_km}")
    vertices = [
        destination_point(centroid, i * 360.0 / vertex_count, radius_km) for i in range(vertex_count)
    ]
    vertices.append(vertices[0])
    return tuple(vertices)


def summarize(labeling: Labeling, points: Sequence[GeoPoint]) -> list[CoverageSummary]:
    """One coverage summary per non-empty cluster, ordered by cluster id.

    NOISE points never participate.
    """
    if len(points) != len(labeling.labels):
        raise ValueError(
            f"labeling covers {len(labeling.labels)} points, got {len(points)}"
        )
    summaries = []
    for cid in range(labeling.n_clusters):
        member_idx = labeling.members(cid)
        if member_idx.size == 0:
            continue
        members = [points[i] for i in member_idx]
        mean = point_of_means(members)
        distant, radius = _farthest(mean, members)
        summaries.append(
            CoverageSummary(cluster_id=cid, point_of_means=mean, distant_point=distant, radius_km=radius)
        )
    return summaries
