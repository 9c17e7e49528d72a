"""K-means, X-means model selection, and density-based clustering.

K-means and X-means operate in degree space (plain Euclidean distance on
(lat, lon) pairs, matching how generic numeric-attribute tooling treats
coordinates). Density clustering alone uses the haversine metric because
its neighborhood radius is specified in kilometers. It runs on a grid whose
cells are sized from the haversine formula itself, so it computes only the
distances it needs and its labels still equal a full pairwise scan.

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
from .geo import EARTH_RADIUS_KM, GeoPoint, haversine_to_many

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
        # Below a millimetre the grid's cells would be no taller than its rounding margin.
        if not self.eps_km >= 1e-6:
            raise ConfigError(f"eps_km must be at least 1e-6 (1 mm), got {self.eps_km}")
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


def _sq_distances(cols: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(k, m) squared Euclidean distances in degree space from (2, m) columns of points."""
    return (cols[0] - centers[:, 0, None]) ** 2 + (cols[1] - centers[:, 1, None]) ** 2


def _assign(cols: np.ndarray, centers: np.ndarray):
    """The (k, m) distance matrix of one pass and each column's nearest center, lowest index on ties."""
    d2 = _sq_distances(cols, centers)
    return d2, d2.argmin(axis=0)


def _bounds(d2: np.ndarray, labels: np.ndarray):
    """Each column's distance to its own center and to the nearest other one (inf when k = 1).

    Overwrites the own-center entries of ``d2``.
    """
    idx = np.arange(labels.size)
    own = d2[labels, idx]
    d2[labels, idx] = np.inf
    return np.sqrt(own), np.sqrt(d2.min(axis=0))


def _wcss(x: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> float:
    diff = x - centers[labels]
    return float(np.einsum("nd,nd->", diff, diff))


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: D^2-weighted draws after a uniform first center."""
    n = x.shape[0]
    cols = np.ascontiguousarray(x.T)
    centers = np.empty((k, x.shape[1]), dtype=np.float64)
    centers[0] = x[rng.integers(n)]
    d2 = _sq_distances(cols, centers[:1])[0]
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)  # all remaining mass covered; any point works
        centers[j] = x[idx]
        d2 = np.minimum(d2, _sq_distances(cols, centers[j : j + 1])[0])
    return centers


def _means_by_label(cols: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(k, 2) member means from (2, n) columns and the label counts; 0 for an empty label."""
    # bincount sums each column in index order, as np.add.at does, so the bits match.
    sums = np.array([np.bincount(labels, weights=c, minlength=counts.size) for c in cols])
    return (sums / np.maximum(counts, 1)).T


# Relative slack on Hamerly's bounds, far above the few-ulp error of a computed distance.
_SLACK = 1e-9


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

    Each point carries Hamerly's bounds (SDM 2010): ``upper`` on its
    distance to its own center and ``lower`` on its distance to every other
    one. A pass computes distance rows only for the points with
    ``upper >= lower``. For any other point the two bounds, each loosened
    by ``_SLACK``, prove that the full row's argmin is its kept label and
    is unique, so the labels equal a full pass's bit for bit.
    """
    centers = init_centers.astype(np.float64, copy=True)
    k, n = centers.shape[0], x.shape[0]
    cols = np.ascontiguousarray(x.T)
    labels, upper, lower = np.zeros(n, dtype=np.intp), np.empty(n), np.empty(n)
    check = slice(None)  # the first pass computes every row
    prev_labels = None
    for _ in range(max_iterations):
        d2, assigned = _assign(cols[:, check], centers)
        labels = labels.copy()  # prev_labels keeps the last pass's
        labels[check] = assigned
        counts = np.bincount(labels, minlength=k)
        if not counts.all():
            # Re-seed an emptied cluster at the worst-served point, from full rows.
            check = slice(None)
            d2, labels = _assign(cols, centers)
            for _attempt in range(k):
                counts = np.bincount(labels, minlength=k)
                empties = np.flatnonzero(counts == 0)
                if empties.size == 0:
                    break
                centers[empties[0]] = x[d2.min(axis=0).argmax()]
                d2, labels = _assign(cols, centers)
            counts = np.bincount(labels, minlength=k)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break  # fixed point: centers are already the means of labels
        prev_labels = labels
        upper[check], lower[check] = _bounds(d2, labels[check])
        new_centers = _means_by_label(cols, labels, counts)
        if not counts.all():  # only possible when duplicates defeat re-seeding
            new_centers[counts == 0] = centers[counts == 0]
        moved = np.sqrt(((new_centers - centers) ** 2).sum(axis=1))
        shift = float(moved.max())
        centers = new_centers
        if shift <= tolerance:
            break
        # Slack goes on each term before the subtraction, so no cancellation lifts lower.
        upper = (upper + moved[labels]) * (1.0 + _SLACK)
        lower = lower * (1.0 - _SLACK) - shift * (1.0 + _SLACK)
        check = np.flatnonzero(upper >= lower)
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
    logs = np.array([math.log(c) for c in counts.tolist()])  # libm, not numpy's dispatched log
    log_likelihood = (
        float((counts * logs).sum())
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


# Rounding margins of the DBSCAN grid. Cells are sized for
# h <= sin²(eps/2R)·(1 - _H_MARGIN), far outside the few-ulp error of the
# haversine expression, and every cell edge is widened by _EDGE_DEG degrees,
# far above the rounding of floor(lat / height) and of (lon + 180) / width.
_H_MARGIN = 1e-6
_EDGE_DEG = 1e-12
# Elements per haversine block, so DBSCAN's temporaries stay at a few MB.
_BLOCK = 1 << 16


def _reach_rad(eps_km: float) -> float:
    """eps as an angle, widened so a pair that computes as within eps stays in reach.

    Capped at pi: any two points are within pi radians, so a larger eps
    reaches no further, and the cap keeps the grid's row offsets finite.
    """
    return min(eps_km * (1.0 + _H_MARGIN) / EARTH_RADIUS_KM, math.pi)


def _grid(x: np.ndarray, eps_km: float):
    """Bucket the points into cells any two of whose points are within eps.

    Returns ``(order, bounds, near_start, near)``: cell c holds the points
    ``order[bounds[c]:bounds[c + 1]]`` in input order, and
    ``near[near_start[c]:near_start[c + 1]]`` are the cells (c included)
    that can hold a point within eps of one of them.

    Row k holds the points with floor(lat / H) == k and is cut into equal
    columns of longitude counted from -180 and wrapping at 180. The sizes
    come from h = sin²(Δφ/2) + cos φa·cos φb·sin²(Δλ/2), with
    s² = sin²(eps/2R)·(1 - margin): sin²(H/2) <= s²/2, and a row's column
    width W has cos²(φmin)·sin²(W/2) <= s²/2, φmin being the row's smallest
    |φ|. Two points within eps have |Δφ| <= eps/R and
    sin(|Δλ|/2) <= sin(eps/2R)/cos(φmax), φmax the largest |φ| of their
    rows; where that bound reaches 1 (a polar cap, or a huge eps) every
    column is in reach.
    """
    s2 = math.sin(min(eps_km / (2.0 * EARTH_RADIUS_KM), math.pi / 2)) ** 2 * (1.0 - _H_MARGIN)
    height = math.degrees(2.0 * math.asin(math.sqrt(s2 / 2.0))) - 2.0 * _EDGE_DEG
    rows, row = np.unique(np.floor(x[:, 0] / height).astype(np.int64), return_inverse=True)
    edges = np.abs(np.stack([rows, rows + 1]) * height)
    phi_min = np.maximum(edges.min(axis=0) - _EDGE_DEG, 0.0)
    phi_max = np.minimum(edges.max(axis=0) + _EDGE_DEG, 90.0)
    t = np.minimum(math.sqrt(s2 / 2.0) / np.cos(np.radians(phi_min)), 1.0)
    ncol = np.where(t < 1.0, np.ceil(360.0 / (np.degrees(2.0 * np.arcsin(t)) - 2.0 * _EDGE_DEG)), 1).astype(np.int64)
    width = 360.0 / ncol
    col = np.minimum(np.floor((x[:, 1] + 180.0) / width[row]).astype(np.int64), ncol[row] - 1)

    order = np.lexsort((col, row))  # stable: input order within a cell
    row, col = row[order], col[order]
    starts = np.flatnonzero(np.r_[True, (row[1:] != row[:-1]) | (col[1:] != col[:-1])])
    cell_row, cell_col = row[starts], col[starts]
    cells = np.arange(starts.size)

    # Cells in reach, found row offset by row offset as spans of columns.
    reach = _reach_rad(eps_km)
    reach_rows = int((math.degrees(reach) + 2.0 * _EDGE_DEG) // height) + 1
    sin_half = math.sin(reach / 2.0) if reach < math.pi else math.inf
    key_base = int(ncol.max())
    keys = cell_row * key_base + cell_col
    west = cell_col * width[cell_row] - _EDGE_DEG  # degrees east of -180
    east = (cell_col + 1) * width[cell_row] + _EDGE_DEG
    src, lo, hi = [], [], []
    for dk in range(-reach_rows, reach_rows + 1):
        target = rows[cell_row] + dk
        rj = np.minimum(np.searchsorted(rows, target), rows.size - 1)
        c, rj = cells[rows[rj] == target], rj[rows[rj] == target]
        ratio = sin_half / np.cos(np.radians(np.maximum(phi_max[cell_row[c]], phi_max[rj])))
        dlon = np.degrees(2.0 * np.arcsin(np.minimum(ratio, 1.0))) + _EDGE_DEG
        a = np.floor((west[c] - dlon) / width[rj]).astype(np.int64)
        b = np.floor((east[c] + dlon) / width[rj]).astype(np.int64)
        whole = (ratio >= 1.0) | (b - a + 1 >= ncol[rj])
        a, b = np.where(whole, 0, a), np.where(whole, ncol[rj] - 1, b)
        # The span inside [0, ncol) and the parts wrapped across 180.
        for first, last in ((np.maximum(a, 0), np.minimum(b, ncol[rj] - 1)), (a + ncol[rj], ncol[rj] - 1), (0, b - ncol[rj])):
            kept = first <= last
            src.append(c[kept])
            lo.append(np.searchsorted(keys, (rj * key_base + first)[kept]))
            hi.append(np.searchsorted(keys, (rj * key_base + last + 1)[kept]))
    src, lo, hi = np.concatenate(src), np.concatenate(lo), np.concatenate(hi)
    counts = hi - lo
    near = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - lo, counts)
    owner = np.repeat(src, counts)
    by_cell = np.argsort(owner, kind="stable")
    near_start = np.searchsorted(owner[by_cell], np.arange(cells.size + 1))
    return order, np.r_[starts, x.shape[0]], near_start, near[by_cell]


def _h_floor(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Lower bound on the haversine h between any point of box p and of box q.

    Rows are (lat_lo, lat_hi, lon_lo, lon_hi) in degrees, longitudes not
    wrapped inside a box; the longitude gap is taken around the circle.
    """
    dlat = np.maximum(0.0, np.maximum(q[:, 0] - p[:, 1], p[:, 0] - q[:, 1]))
    inside = np.maximum(0.0, np.maximum(q[:, 2] - p[:, 3], p[:, 2] - q[:, 3]))
    dlon = np.minimum(inside, np.minimum(q[:, 2] - p[:, 3], p[:, 2] - q[:, 3]) + 360.0)
    phi = np.maximum(np.abs(p[:, :2]).max(axis=1), np.abs(q[:, :2]).max(axis=1))
    return np.sin(np.radians(dlat) / 2.0) ** 2 + np.cos(np.radians(phi)) ** 2 * np.sin(np.radians(dlon) / 2.0) ** 2


def _eps_blocks(x: np.ndarray, rows: np.ndarray, cols: np.ndarray, eps_km: float):
    """Yield (i, j, within) tiles of the eps test between two index sets.

    ``within[a, b]`` says point ``rows[i + a]`` is within ``eps_km`` of point
    ``cols[j + b]``, computed with ``rows[i + a]`` as the origin. Each tile
    holds at most ``_BLOCK`` elements.
    """
    col_step = min(len(cols), _BLOCK)
    row_step = max(1, _BLOCK // col_step)
    for j in range(0, len(cols), col_step):
        targets = x[cols[j : j + col_step]]
        for i in range(0, len(rows), row_step):
            yield i, j, haversine_to_many(x[rows[i : i + row_step]], targets[:, 0], targets[:, 1]) <= eps_km


def _box(p: np.ndarray) -> np.ndarray:
    """The (1, 4) box of (lat, lon) rows, in the layout ``_h_floor`` takes."""
    return np.array([[p[:, 0].min(), p[:, 0].max(), p[:, 1].min(), p[:, 1].max()]])


def _touch(x: np.ndarray, p: np.ndarray, q: np.ndarray, eps_km: float, limit: float) -> bool:
    """Whether some point of ``p`` lies within eps of some point of ``q``.

    One probe row, the larger set's first point against the other set,
    comes first, and a hit ends the test. Otherwise small pairs are one
    haversine block; larger ones halve the larger set at the median of its
    wider side, drop a half whose box has an h floor above ``limit`` against
    the other set's box, and search the nearer half first.
    """
    if p.size < q.size:
        p, q = q, p  # the distance is symmetric
    if q.size > 1 and (haversine_to_many(x[p[:1]], x[q, 0], x[q, 1]) <= eps_km).any():
        return True
    if p.size * q.size <= _BLOCK:
        return bool((haversine_to_many(x[p], x[q, 0], x[q, 1]) <= eps_km).any())
    box_q = _box(x[q])
    axis = int(np.ptp(x[p, 1]) > np.ptp(x[p, 0]))
    split = np.argpartition(x[p, axis], p.size // 2)
    halves = [p[split[: p.size // 2]], p[split[p.size // 2 :]]]
    floors = [float(_h_floor(_box(x[h]), box_q)[0]) for h in halves]
    return any(_touch(x, halves[i], q, eps_km, limit) for i in np.argsort(floors) if floors[i] <= limit)


def dbscan(points: Sequence[GeoPoint] | np.ndarray, cfg: DbscanConfig) -> Labeling:
    """Density clustering with a kilometer neighborhood radius.

    A point is core when at least ``min_pts`` points (itself included) sit
    within ``eps_km``. Clusters are the connected components of core points
    plus their border points; everything unreachable is NOISE. Cluster ids
    follow the input order of each cluster's first core point, and a border
    point takes the lowest cluster id among the core points within eps, so
    the result is deterministic.

    This is the exact grid method of Gan & Tao (SIGMOD 2015) on the sphere.
    Any two points of one cell compute as within eps (see ``_grid``), so the
    core points of a cell are connected and, with no distance computed, a
    cell of at least ``min_pts`` points is all core and a sparser cell with
    no other cell in reach is all noise. The points of the other sparse
    cells count their neighbours in the cells in reach; the pairs a point
    keeps while its count is below ``min_pts`` give a border point its label.
    Cells with core points are joined by a union-find, nearest pairs of
    cells first, each test stopping at the first core pair within eps. Every
    within-eps test evaluates ``haversine_to_many`` from the same origin as
    a full neighbour scan would, so the labels equal the exhaustive result.
    """
    x = points_array(points)
    n = x.shape[0]
    if n == 0:
        raise ConfigError("density clustering needs at least one point")
    eps, min_pts = cfg.eps_km, cfg.min_pts
    order, bounds, near_start, near = _grid(x, eps)
    n_cells = bounds.size - 1
    sizes = np.diff(bounds)
    cells = np.split(order, bounds[1:-1])
    core = np.empty(n, dtype=bool)
    core[order] = np.repeat(sizes >= min_pts, sizes)
    # A point still below min_pts after a tile keeps that tile's (point,
    # neighbour) pairs: fewer than min_pts in all, and every one of them
    # if it ends as a border point.
    pairs = [np.empty((2, 0), dtype=np.int64)]
    for c in np.flatnonzero((sizes < min_pts) & (np.diff(near_start) > 1)):
        rows, cols = cells[c], np.concatenate([cells[b] for b in near[near_start[c] : near_start[c + 1]]])
        counts = np.zeros(rows.size, dtype=np.int64)
        for i, j, within in _eps_blocks(x, rows, cols, eps):
            seen = counts[i : i + len(within)]  # a view, updated in place
            seen += within.sum(axis=1)
            r, k = np.nonzero(within & (seen < min_pts)[:, None])
            pairs.append(np.stack([rows[i + r], cols[j + k]]))
        core[rows] = counts >= min_pts

    # Join cells holding core points, pairs with the nearest core boxes first.
    core_of = [cell[core[cell]] for cell in cells]
    core_xy = np.where(core[order, None], x[order], np.nan)  # in cell order
    lows, highs = np.fmin.reduceat(core_xy, bounds[:-1]), np.fmax.reduceat(core_xy, bounds[:-1])
    boxes = np.c_[lows[:, 0], highs[:, 0], lows[:, 1], highs[:, 1]]  # NaN for a cell without core
    reach = _reach_rad(eps)
    limit = math.sin(reach / 2.0) ** 2 if reach < math.pi else math.inf
    src = np.repeat(np.arange(n_cells), np.diff(near_start))
    a, b = src[src < near], near[src < near]
    floor = _h_floor(boxes[a], boxes[b])
    kept = np.flatnonzero(floor <= limit)  # NaN, no core on one side, is never kept
    kept = kept[np.argsort(floor[kept], kind="stable")]
    parent = list(range(n_cells))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for a, b in zip(a[kept].tolist(), b[kept].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb and _touch(x, core_of[a], core_of[b], eps, limit):
            parent[max(ra, rb)] = min(ra, rb)

    # Number the components by the input order of their first core point.
    cell_of = np.empty(n, dtype=np.int64)
    cell_of[order] = np.repeat(np.arange(n_cells), sizes)
    core_idx = np.flatnonzero(core)
    component = np.array([find(c) for c in range(n_cells)], dtype=np.int64)[cell_of[core_idx]]
    _, first = np.unique(component, return_index=True)
    cluster_of = np.empty(n_cells, dtype=np.int64)
    cluster_of[component[np.sort(first)]] = np.arange(first.size)
    labels = np.full(n, n, dtype=np.int64)  # n: not labelled yet
    labels[core_idx] = cluster_of[component]

    # A border point takes the lowest cluster among its kept core neighbours.
    p, q = np.concatenate(pairs, axis=1)
    border = ~core[p] & core[q]
    np.minimum.at(labels, p[border], labels[q[border]])
    labels[labels == n] = NOISE

    clustered = labels != NOISE
    members = labels[clustered]
    centers = _means_by_label(x[clustered].T, members, np.bincount(members, minlength=first.size))
    return Labeling(labels=labels, centers=centers, wcss=_wcss(x[clustered], centers, members))


def format_cluster_report(centroids: Sequence[GeoPoint]) -> str:
    """Cluster report text: a header line plus one 0-indexed line per cluster."""
    lines = [f"Cluster centers : {len(centroids)} centers"]
    for i, c in enumerate(centroids):
        lines.append(f"Cluster {i}\t{c.lat_deg!r} {c.lon_deg!r}")
    return "\n".join(lines)
