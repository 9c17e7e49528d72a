"""Spherical-earth coordinate primitives: points, angles, distances.

All public interfaces speak decimal degrees; angles are converted to
radians internally. Distances are kilometers on a sphere of fixed radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CoordinateError

# Mean earth radius. Reproduces the reference coverage radii within 1%.
EARTH_RADIUS_KM = 6371.0

# Single shared constant so scalar and vectorized paths round identically.
_DEG_TO_RAD = math.pi / 180.0

# A great-circle distance in kilometers; always >= 0 and <= pi * radius.
DistanceKm = float


@dataclass(frozen=True)
class GeoPoint:
    """A (latitude, longitude) pair in decimal degrees."""

    lat_deg: float
    lon_deg: float

    def __post_init__(self):
        # Coerce numpy scalars so downstream JSON serialization stays plain.
        object.__setattr__(self, "lat_deg", float(self.lat_deg))
        object.__setattr__(self, "lon_deg", float(self.lon_deg))
        if not (math.isfinite(self.lat_deg) and math.isfinite(self.lon_deg)):
            raise CoordinateError(f"non-finite coordinates: ({self.lat_deg}, {self.lon_deg})")
        if not -90.0 <= self.lat_deg <= 90.0:
            raise CoordinateError(f"latitude {self.lat_deg} outside [-90, 90]")
        if not -180.0 <= self.lon_deg <= 180.0:
            raise CoordinateError(f"longitude {self.lon_deg} outside [-180, 180]")

    def __iter__(self):
        """Unpacks as ``lat, lon = point``, the shape of a (lat, lon) row."""
        return iter((self.lat_deg, self.lon_deg))


def haversine_distance(a: GeoPoint | Sequence[float], b: GeoPoint | Sequence[float]) -> DistanceKm:
    """Great-circle distance between two points, in kilometers.

    A point is a ``GeoPoint`` or a (lat, lon) pair. Uses d = 2 * R * arcsin(sqrt(h)) with
    h = sin^2(dlat/2) + cos(lat_a) * cos(lat_b) * sin^2(dlon/2).
    The sqrt(h) argument is clamped into [0, 1] so antipodal or
    nearly-identical points cannot produce NaN through float overshoot.
    """
    (lat_a, lon_a), (lat_b, lon_b) = a, b
    lat1 = lat_a * _DEG_TO_RAD
    lat2 = lat_b * _DEG_TO_RAD
    dlat = (lat_b - lat_a) * _DEG_TO_RAD
    dlon = (lon_b - lon_a) * _DEG_TO_RAD
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(max(0.0, h))))


def haversine_h(origin: np.ndarray, lats_deg: np.ndarray, lons_deg: np.ndarray) -> np.ndarray:
    """The ``(m, n)`` haversine h, at most 1, from ``(m, 2)`` (lat, lon) rows to arrays of coordinates.

    d = 2R·arcsin(√h). Element by element, so row i equals the block from row i alone, and
    h(a, b) == h(b, a). It takes sin, cos and products but no arcsin, whose numpy kernel differs by CPU.
    """
    lat1, lon1 = origin[:, 0:1], origin[:, 1:2]
    lats = np.asarray(lats_deg, dtype=np.float64)
    dlat = (lats - lat1) * _DEG_TO_RAD
    dlon = (np.asarray(lons_deg, dtype=np.float64) - lon1) * _DEG_TO_RAD
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1 * _DEG_TO_RAD) * np.cos(lats * _DEG_TO_RAD) * np.sin(dlon / 2.0) ** 2
    return np.minimum(h, 1.0)  # rounding passes 1 for some antipodal pairs


def haversine_to_many(origin: GeoPoint | np.ndarray, lats_deg: np.ndarray, lons_deg: np.ndarray) -> np.ndarray:
    """Haversine distances from ``origin`` to arrays of coordinates: 2R·arcsin(√h) over ``haversine_h``.

    One ``GeoPoint`` gives an ``(n,)`` row, ``(m, 2)`` rows an ``(m, n)`` block.
    numpy's arcsin differs by CPU, so decisions compare h instead.
    """
    if isinstance(origin, GeoPoint):
        return haversine_to_many(np.array([[origin.lat_deg, origin.lon_deg]]), lats_deg, lons_deg)[0]
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(haversine_h(origin, lats_deg, lons_deg)))


def destination_point(center: GeoPoint, bearing_deg: float, distance: DistanceKm) -> GeoPoint:
    """Point at ``distance`` km from ``center`` along an initial bearing.

    Bearing is degrees clockwise from north, taken mod 360. The returned
    longitude is normalized into [-180, 180]; latitude needs no wrapping
    for distances below half the circumference.
    """
    if not math.isfinite(bearing_deg):
        raise CoordinateError(f"non-finite bearing: {bearing_deg}")
    if not math.isfinite(distance) or distance < 0:
        raise CoordinateError(f"distance must be a finite non-negative value, got {distance}")
    if distance == 0.0:
        return center
    lat1 = center.lat_deg * _DEG_TO_RAD
    lon1 = center.lon_deg * _DEG_TO_RAD
    theta = (bearing_deg % 360.0) * _DEG_TO_RAD
    delta = distance / EARTH_RADIUS_KM
    sin_lat2 = math.sin(lat1) * math.cos(delta) + math.cos(lat1) * math.sin(delta) * math.cos(theta)
    lat2 = math.asin(max(-1.0, min(1.0, sin_lat2)))
    y = math.sin(theta) * math.sin(delta) * math.cos(lat1)
    x = math.cos(delta) - math.sin(lat1) * math.sin(lat2)
    lon2 = lon1 + math.atan2(y, x)
    lon2_deg = math.degrees(lon2)
    # Wrap only when needed: the shift-and-modulo loses low-order longitude
    # bits, which matters for short displacements.
    if not -180.0 <= lon2_deg <= 180.0:
        lon2_deg = (lon2_deg + 180.0) % 360.0 - 180.0
    return GeoPoint(math.degrees(lat2), lon2_deg)
