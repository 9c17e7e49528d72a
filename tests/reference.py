"""Reference forms of the corpus stages, of ``summarize``, of the GeoJSON builder and of k-means.

The corpus part holds the per-record forms of ``geozones.corpus``'s stages:
normalize one stored document into a ``CorpusRecord``, then filter lists of
records by keyword, bounding box and duplicates. The coverage part holds
``summarize`` over a ``GeoPoint`` list, with the scalar haversine. The
export part holds the GeoJSON builder with one builder per geometry and
members counted apart from their texts, over (cluster id, record) pairs.
The k-means part holds k-means++ seeding, Lloyd's passes with the
(n, k, 2) einsum distance kernel, ``np.add.at`` means and the re-seeding
of emptied clusters, and the choice among restarts. The X-means part holds
the pooled-variance BIC and the split search over that k-means: trial
splits seeded per (round, cluster), gains above zero, the largest gains
(lowest cluster id on ties) kept up to k_max, and Lloyd's polish.
All are kept here as written and never imported from ``src/``, so
``pipeline.build_corpus``, ``coverage.summarize``,
``export.export_geojson``, ``clustering.kmeans`` and ``clustering.xmeans``
are checked against a second, independent implementation. Only the data types come from the
package.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter

import numpy as np

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


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def sq_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances in degree space."""
    diff = x[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def wcss(x: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> float:
    diff = x - centers[labels]
    return float(np.einsum("nd,nd->", diff, diff))


def kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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
            idx = rng.integers(n)
        centers[j] = x[idx]
        d2 = np.minimum(d2, ((x - centers[j]) ** 2).sum(axis=1))
    return centers


def means_by_label(x: np.ndarray, labels: np.ndarray, k: int):
    sums = np.zeros((k, x.shape[1]), dtype=np.float64)
    np.add.at(sums, labels, x)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    means = sums.copy()
    nonzero = counts > 0
    means[nonzero] /= counts[nonzero, None]
    return means, counts


def lloyd(x: np.ndarray, init_centers: np.ndarray, max_iterations: int, tolerance: float):
    """(labels, centers, wcss) of Lloyd's passes from ``init_centers``, lowest index on ties."""
    centers = init_centers.astype(np.float64, copy=True)
    k = centers.shape[0]
    prev_labels = None
    labels = None
    for _ in range(max_iterations):
        d2 = sq_distances(x, centers)
        labels = d2.argmin(axis=1)
        # An emptied cluster moves to the point farthest from its nearest center.
        for _attempt in range(k):
            counts = np.bincount(labels, minlength=k)
            empties = np.flatnonzero(counts == 0)
            if empties.size == 0:
                break
            farthest = d2[np.arange(x.shape[0]), labels].argmax()
            centers[empties[0]] = x[farthest]
            d2 = sq_distances(x, centers)
            labels = d2.argmin(axis=1)
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            break
        prev_labels = labels
        new_centers, counts = means_by_label(x, labels, k)
        still_empty = counts == 0
        new_centers[still_empty] = centers[still_empty]
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if shift <= tolerance:
            break
    return labels, centers, wcss(x, centers, labels)


def kmeans(x: np.ndarray, k: int, seed: int, restarts: int, max_iterations: int, tolerance: float):
    """(labels, centers, wcss) of the restart with the lowest wcss, the first one on ties."""
    best = None
    for r in range(restarts):
        init = kmeans_pp_init(x, k, derived_rng(seed, r))
        run = lloyd(x, init, max_iterations, tolerance)
        if best is None or run[2] < best[2]:
            best = run
    return best


def bic(x: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> float:
    """Spherical-Gaussian BIC, pooled variance over n - k degrees of freedom; -inf when degenerate."""
    n, dims = x.shape
    k = centers.shape[0]
    if n <= k:
        return -math.inf
    rss = wcss(x, centers, labels)
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
    return log_likelihood - (k * (dims + 1) / 2.0) * math.log(n)


def xmeans(x: np.ndarray, k_min: int, k_max: int, seed: int, restarts: int, max_iterations: int, tolerance: float):
    """(labels, centers, wcss) of the BIC-scored split search from a k_min-means solution."""
    labels, centers, total = kmeans(x, k_min, seed, restarts, max_iterations, tolerance)
    round_idx = 0
    while centers.shape[0] < k_max:
        k = centers.shape[0]
        candidates = []
        for cid in range(k):
            member_idx = np.flatnonzero(labels == cid)
            if member_idx.size < 2:
                continue
            members = x[member_idx]
            parent_bic = bic(members, centers[cid][None, :], np.zeros(member_idx.size, dtype=np.int64))
            sequence = np.random.SeedSequence(entropy=seed, spawn_key=(round_idx, cid))
            split_seed = int(sequence.generate_state(1, np.uint64)[0])
            split_labels, split_centers, _ = kmeans(members, 2, split_seed, restarts, max_iterations, tolerance)
            if np.unique(split_labels).size < 2:
                continue
            gain = bic(members, split_centers, split_labels) - parent_bic
            if gain > 0:
                candidates.append((gain, cid, split_centers))
        if not candidates:
            break
        candidates.sort(key=lambda c: (-c[0], c[1]))
        accepted = {cid: split_centers for _, cid, split_centers in candidates[: k_max - k]}
        new_centers = []
        for cid in range(k):
            if cid in accepted:
                new_centers.extend(accepted[cid])
            else:
                new_centers.append(centers[cid])
        labels, centers, total = lloyd(x, np.asarray(new_centers), max_iterations, tolerance)
        round_idx += 1
    return labels, centers, total
