"""K-means, X-means model selection, and density-based clustering.

K-means and X-means operate in degree space (plain Euclidean distance on
(lat, lon) pairs, matching how generic numeric-attribute tooling treats
coordinates). Density clustering alone uses the haversine metric because
its neighborhood radius is specified in kilometers.

Everything here is deterministic for a fixed seed: restarts derive child
seeds from the base seed, ties break toward the lowest index, and label
numbering follows input order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, CoordinateError
from .geo import GeoPoint, haversine_to_many

NOISE = -1


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    max_iterations: int = 100
    tolerance: float = 1e-7  # degrees of centroid displacement
    seed: int = 0
    restarts: int = 8

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be positive, got {self.k}")
        if self.max_iterations < 1 or self.restarts < 1:
            raise ConfigError("max_iterations and restarts must be positive")
        if not self.tolerance >= 0:  # also rejects NaN
            raise ConfigError(f"tolerance must be non-negative, got {self.tolerance}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class XMeansConfig:
    k_min: int
    k_max: int
    inner: KMeansConfig = KMeansConfig(k=1)  # inner.k is ignored

    def __post_init__(self):
        if self.k_min < 1:
            raise ConfigError(f"k_min must be positive, got {self.k_min}")
        if self.k_max < self.k_min:
            raise ConfigError(f"k_max {self.k_max} < k_min {self.k_min}")


@dataclass(frozen=True)
class DbscanConfig:
    eps_km: float = 5.0
    min_pts: int = 5

    def __post_init__(self):
        if not self.eps_km > 0:
            raise ConfigError(f"eps_km must be positive, got {self.eps_km}")
        if self.min_pts < 1:
            raise ConfigError(f"min_pts must be positive, got {self.min_pts}")


@dataclass
class Labeling:
    """Per-point labels plus cluster centers and the degree-space WCSS.

    ``labels[i]`` is a 0-based cluster index or NOISE (-1). K-means and
    X-means labelings never contain NOISE. ``centers`` holds one (lat, lon)
    row per cluster: the coordinate mean of its members.
    """

    labels: np.ndarray
    centers: np.ndarray
    wcss: float

    @property
    def centroids(self) -> list[GeoPoint]:
        """The cluster centers as points."""
        return [GeoPoint(lat, lon) for lat, lon in self.centers]

    @property
    def n_clusters(self) -> int:
        return len(self.centers)

    def members(self, cluster_id: int) -> np.ndarray:
        """Indices of the points assigned to one cluster."""
        return np.flatnonzero(self.labels == cluster_id)


def points_array(points: Sequence[GeoPoint] | np.ndarray) -> np.ndarray:
    """(n, 2) float64 array of (lat, lon) rows.

    A ``GeoPoint`` sequence is converted; its points are already valid. An
    array is returned without copying once its shape and ranges are checked,
    because it may come from outside the program.
    """
    if not isinstance(points, np.ndarray):
        return np.array([(p.lat_deg, p.lon_deg) for p in points], dtype=np.float64).reshape(-1, 2)
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ConfigError(f"expected an (n, 2) array of (lat, lon) rows, got shape {x.shape}")
    # NaN fails both comparisons, so this also rejects non-finite values.
    if not ((np.abs(x[:, 0]) <= 90.0).all() and (np.abs(x[:, 1]) <= 180.0).all()):
        raise CoordinateError("coordinates must be finite with lat in [-90, 90] and lon in [-180, 180]")
    return x


def _derived_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def _sq_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances in degree space."""
    diff = x[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _wcss(x: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> float:
    diff = x - centers[labels]
    return float(np.einsum("nd,nd->", diff, diff))


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: D^2-weighted draws after a uniform first center."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[rng.integers(n)]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)  # all remaining mass covered; any point works
        centers[j] = x[idx]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


def _means_by_label(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    sums = np.zeros((k, x.shape[1]), dtype=np.float64)
    np.add.at(sums, labels, x)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    means = sums.copy()
    nonzero = counts > 0
    means[nonzero] /= counts[nonzero, None]
    return means, counts


def _lloyd(
    x: np.ndarray,
    init_centers: np.ndarray,
    max_iterations: int,
    tolerance: float,
):
    """One Lloyd run from explicit initial centers.

    Returns (labels, centers, wcss). Stops at an exact fixed point
    (assignments unchanged) or when the largest centroid displacement drops
    to ``tolerance``. A centroid that loses all points is re-seeded at the
    point farthest from its nearest centroid, keeping k constant.
    """
    centers = init_centers.astype(np.float64, copy=True)
    k = centers.shape[0]
    prev_labels = None
    labels = None
    for _ in range(max_iterations):
        d2 = _sq_distances(x, centers)
        labels = d2.argmin(axis=1)  # argmin takes the lowest index on ties
        # Re-seed any emptied cluster at the worst-served point.
        for _attempt in range(k):
            counts = np.bincount(labels, minlength=k)
            empties = np.flatnonzero(counts == 0)
            if empties.size == 0:
                break
            farthest = d2[np.arange(x.shape[0]), labels].argmax()
            centers[empties[0]] = x[farthest]
            d2 = _sq_distances(x, centers)
            labels = d2.argmin(axis=1)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break  # fixed point: centers are already the means of labels
        prev_labels = labels
        new_centers, counts = _means_by_label(x, labels, k)
        still_empty = counts == 0  # only possible when duplicates defeat re-seeding
        new_centers[still_empty] = centers[still_empty]
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if shift <= tolerance:
            break
    return labels, centers, _wcss(x, centers, labels)


def kmeans(points: Sequence[GeoPoint] | np.ndarray, cfg: KMeansConfig) -> Labeling:
    """Lloyd's algorithm with k-means++ seeding and deterministic restarts.

    Runs ``cfg.restarts`` independent seedings derived from ``cfg.seed`` and
    returns the labeling with the lowest within-cluster sum of squares.
    """
    x = points_array(points)
    n = x.shape[0]
    if n == 0:
        raise ConfigError("k-means needs at least one point")
    if cfg.k > n:
        raise ConfigError(f"k={cfg.k} exceeds the number of points ({n})")
    best = None
    for r in range(cfg.restarts):
        rng = _derived_rng(cfg.seed, r)
        init = _kmeans_pp_init(x, cfg.k, rng)
        run = _lloyd(x, init, cfg.max_iterations, cfg.tolerance)
        if best is None or run[2] < best[2]:
            best = run
    labels, centers, wcss = best
    return Labeling(labels=labels, centers=centers, wcss=wcss)


def _bic(x: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> float:
    """Spherical-Gaussian BIC of a k-clustering of ``x``.

    Pooled per-dimension variance over n - k degrees of freedom; the free
    parameter count is k * (dims + 1). Degenerate models (no residual
    variance, or more clusters than points allow) score -inf so they can
    never win a split comparison.
    """
    n, dims = x.shape
    k = centers.shape[0]
    if n <= k:
        return -math.inf
    rss = _wcss(x, centers, labels)
    if rss <= 0.0:
        return -math.inf
    variance = rss / (dims * (n - k))
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    counts = counts[counts > 0]
    log_likelihood = (
        float((counts * np.log(counts)).sum())
        - n * math.log(n)
        - (n * dims / 2.0) * math.log(2.0 * math.pi * variance)
        - float(((counts - k) / 2.0).sum())
    )
    free_params = k * (dims + 1)
    return log_likelihood - (free_params / 2.0) * math.log(n)


def xmeans(points: Sequence[GeoPoint] | np.ndarray, cfg: XMeansConfig) -> Labeling:
    """Search for the cluster count in [k_min, k_max] by BIC-scored splits.

    Starts from a k_min-means solution. Each round trial-splits every
    cluster in two with a local k-means and accepts a split only when it
    raises the BIC over the unsplit cluster. If simultaneous acceptances
    would push k past k_max, the lowest-gain splits are dropped. After each
    round the full solution is polished by Lloyd iterations from the new
    centers. Stops when a round accepts nothing or k reaches k_max.
    """
    x = points_array(points)
    n = x.shape[0]
    if n < cfg.k_min:
        raise ConfigError(f"need at least k_min={cfg.k_min} points, got {n}")
    inner = cfg.inner
    base = kmeans(x, replace(inner, k=cfg.k_min))
    # _lloyd returns centers that are the means of the labels it returns, so
    # centers[cid] is the member mean of every non-empty cluster cid.
    labels, centers, wcss = base.labels, base.centers, base.wcss

    round_idx = 0
    while centers.shape[0] < cfg.k_max:
        k = centers.shape[0]
        candidates = []
        for cid in range(k):
            member_idx = np.flatnonzero(labels == cid)
            if member_idx.size < 2:
                continue
            members = x[member_idx]
            parent_bic = _bic(members, centers[cid][None, :], np.zeros(member_idx.size, dtype=np.int64))
            split_seed = int(
                np.random.SeedSequence(entropy=inner.seed, spawn_key=(round_idx, cid)).generate_state(
                    1, np.uint64
                )[0]
            )
            split = kmeans(members, replace(inner, k=2, seed=split_seed))
            if np.unique(split.labels).size < 2:
                continue  # split collapsed; nothing gained
            split_bic = _bic(members, split.centers, split.labels)
            gain = split_bic - parent_bic
            if gain > 0:
                candidates.append((gain, cid, split))
        if not candidates:
            break
        candidates.sort(key=lambda t: (-t[0], t[1]))
        accepted = {cid: split for _, cid, split in candidates[: cfg.k_max - k]}

        # Split children take adjacent ids, so the numbering is deterministic.
        new_centers = []
        for cid in range(k):
            if cid in accepted:
                new_centers.extend(accepted[cid].centers)
            else:
                new_centers.append(centers[cid])
        # Polish the enlarged solution from its current centers.
        labels, centers, wcss = _lloyd(x, np.asarray(new_centers), inner.max_iterations, inner.tolerance)
        round_idx += 1

    return Labeling(labels=labels, centers=centers, wcss=wcss)


def _neighbor_lists(x: np.ndarray, eps_km: float) -> list[np.ndarray]:
    """eps-neighborhoods (inclusive of self) under the haversine metric."""
    lats, lons = x[:, 0], x[:, 1]
    return [
        np.flatnonzero(haversine_to_many(GeoPoint(lat, lon), lats, lons) <= eps_km)
        for lat, lon in x
    ]


def dbscan(points: Sequence[GeoPoint] | np.ndarray, cfg: DbscanConfig) -> Labeling:
    """Density clustering with a kilometer neighborhood radius.

    A point is core when at least ``min_pts`` points (itself included) sit
    within ``eps_km``. Clusters are the connected components of core points
    plus their border points; everything unreachable is NOISE. Cluster ids
    follow the input order of each cluster's first core point, and border
    points land in the earliest cluster that reaches them, so the result is
    deterministic.
    """
    x = points_array(points)
    n = x.shape[0]
    if n == 0:
        raise ConfigError("density clustering needs at least one point")
    neighbors = _neighbor_lists(x, cfg.eps_km)
    core = np.array([len(nb) >= cfg.min_pts for nb in neighbors], dtype=bool)

    labels = np.full(n, NOISE, dtype=np.int64)
    cluster_id = 0
    for i in np.flatnonzero(core):
        if labels[i] != NOISE:
            continue
        labels[i] = cluster_id
        frontier = [i]  # labelled core points whose neighbours are not yet taken
        while frontier:
            nb = neighbors[frontier.pop()]
            reached = nb[labels[nb] == NOISE]  # a border point keeps its earlier cluster
            labels[reached] = cluster_id
            frontier.extend(reached[core[reached]])
        cluster_id += 1

    clustered = labels != NOISE
    centers, _ = _means_by_label(x[clustered], labels[clustered], cluster_id)
    return Labeling(labels=labels, centers=centers, wcss=_wcss(x[clustered], centers, labels[clustered]))


def format_cluster_report(centroids: Sequence[GeoPoint]) -> str:
    """Cluster report text: a header line plus one 0-indexed line per cluster."""
    lines = [f"Cluster centers : {len(centroids)} centers"]
    for i, c in enumerate(centroids):
        lines.append(f"Cluster {i}\t{c.lat_deg!r} {c.lon_deg!r}")
    return "\n".join(lines)
