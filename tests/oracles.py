"""Independent reference implementations used only to check the library.

Nothing here shares algorithmic code with the package: distances come from
the spherical law of cosines evaluated in 50-digit arithmetic, means from
explicit Kahan summation, k-means optima from exhaustive assignment
enumeration, and density clusters from a union-find over the full
neighbor graph.
"""

from __future__ import annotations

import itertools
import math

import mpmath as mp
import numpy as np

from geozones.geo import GeoPoint

mp.mp.dps = 50


def slc_distance_km(a: GeoPoint, b: GeoPoint, radius_km: float = 6371.0) -> float:
    """Spherical law of cosines in 50-digit arithmetic, rounded to float."""
    lat1, lon1 = mp.radians(mp.mpf(repr(a.lat_deg))), mp.radians(mp.mpf(repr(a.lon_deg)))
    lat2, lon2 = mp.radians(mp.mpf(repr(b.lat_deg))), mp.radians(mp.mpf(repr(b.lon_deg)))
    cosine = mp.sin(lat1) * mp.sin(lat2) + mp.cos(lat1) * mp.cos(lat2) * mp.cos(lon2 - lon1)
    cosine = max(mp.mpf(-1), min(mp.mpf(1), cosine))
    return float(mp.mpf(repr(radius_km)) * mp.acos(cosine))


def kahan_mean(values) -> float:
    """Compensated (Kahan) summation mean."""
    total = 0.0
    compensation = 0.0
    count = 0
    for v in values:
        count += 1
        y = v - compensation
        t = total + y
        compensation = (t - total) - y
        total = t
    return total / count


def brute_force_min_wcss(x: np.ndarray, k: int) -> float:
    """Global minimum WCSS over every possible assignment of points."""
    n = x.shape[0]
    best = float("inf")
    for assignment in itertools.product(range(k), repeat=n):
        labels = np.asarray(assignment)
        wcss = 0.0
        for j in range(k):
            members = x[labels == j]
            if members.shape[0] == 0:
                continue
            center = members.mean(axis=0)
            wcss += float(((members - center) ** 2).sum())
        if wcss < best:
            best = wcss
    return best


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def brute_force_dbscan(points, eps_km: float, min_pts: int) -> np.ndarray:
    """Density labels from the exhaustive neighbor graph.

    Core points are grouped by union-find over core-core adjacency; border
    points take the lowest cluster id among their adjacent cores; all other
    points are -1. Cluster ids follow the input order of each component's
    first core point, matching the contract of the library implementation.

    Two points are adjacent when their haversine h is at most
    sin²(min(eps/2R, π/2)). h takes only sin, cos and products, never an
    arcsin, so the adjacency does not depend on the CPU numpy dispatches to.
    """
    n = len(points)
    lats = np.asarray([p.lat_deg for p in points])
    lons = np.asarray([p.lon_deg for p in points])
    h_eps = math.sin(min(eps_km / (2.0 * 6371.0), math.pi / 2)) ** 2
    rad = math.pi / 180.0

    def h_from(p):  # rounding can pass 1 for antipodal pairs; h is at most 1
        dlat, dlon = (lats - p.lat_deg) * rad, (lons - p.lon_deg) * rad
        return np.minimum(np.sin(dlat / 2.0) ** 2 + math.cos(p.lat_deg * rad) * np.cos(lats * rad) * np.sin(dlon / 2.0) ** 2, 1.0)

    adjacency = [np.flatnonzero(h_from(points[i]) <= h_eps) for i in range(n)]
    core = np.asarray([len(adjacency[i]) >= min_pts for i in range(n)])

    uf = _UnionFind(n)
    for i in range(n):
        if not core[i]:
            continue
        for j in adjacency[i]:
            if core[j]:
                uf.union(i, int(j))

    component_of = {}
    next_id = 0
    labels = np.full(n, -1, dtype=np.int64)
    for i in range(n):  # input order fixes the numbering
        if core[i]:
            root = uf.find(i)
            if root not in component_of:
                component_of[root] = next_id
                next_id += 1
            labels[i] = component_of[root]
    for i in range(n):
        if core[i]:
            continue
        adjacent_cores = [labels[j] for j in adjacency[i] if core[j]]
        if adjacent_cores:
            labels[i] = min(adjacent_cores)
    return labels


def reference_bic(x: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> float:
    """Spherical-Gaussian BIC written straight from its definition.

    log L = sum_j [ n_j ln n_j - n_j ln n - (n_j D / 2) ln(2 pi v)
                    - (n_j - K) / 2 ]            with pooled per-dimension
    variance v = RSS / (D (n - K)), penalized by (p / 2) ln n where
    p = K (D + 1).
    """
    n, dims = x.shape
    k = centers.shape[0]
    if n <= k:
        return float("-inf")
    rss = 0.0
    for i in range(n):
        diff = x[i] - centers[labels[i]]
        rss += float(diff @ diff)
    if rss <= 0.0:
        return float("-inf")
    variance = rss / (dims * (n - k))
    log_likelihood = 0.0
    for j in range(k):
        n_j = int((labels == j).sum())
        if n_j == 0:
            continue
        log_likelihood += n_j * np.log(n_j) - n_j * np.log(n)
        log_likelihood += -(n_j * dims / 2.0) * np.log(2.0 * np.pi * variance)
        log_likelihood += -(n_j - k) / 2.0
    return float(log_likelihood - (k * (dims + 1) / 2.0) * np.log(n))
