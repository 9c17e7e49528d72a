"""Output checks against the generator's ground truth.

Every check is one operation: it passes or it is a miss. A miss is
reported by name so a failing run says what went wrong.
"""

from __future__ import annotations

import re

import jsonschema
import numpy as np

EARTH_RADIUS_KM = 6371.0
SKIP_LINE = re.compile(r"^skipped (\S+): ")
# Blob checks need enough points for a stable mean; smaller blobs (tiny
# smoke-test scales) are not checked.
MIN_BLOB_POINTS = 30
SUMMARY_LINE = re.compile(r"^parsed (\d+) record\(s\), skipped (\d+) file\(s\)$", re.M)


class Checks:
    def __init__(self):
        self.attempted = 0
        self.misses: list[str] = []

    def expect(self, ok: bool, what: str, count: int = 1):
        """Record ``count`` operations; all of them miss when ``ok`` is false."""
        self.attempted += count
        if not ok:
            self.misses.extend([what] * count)

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.misses), "misses": self.misses[:20]}


def haversine_km(lat0, lon0, lats, lons) -> np.ndarray:
    """Great-circle distances on the mean-radius sphere (independent copy)."""
    p0, p = np.radians(lat0), np.radians(np.asarray(lats))
    dlat = p - p0
    dlon = np.radians(np.asarray(lons) - lon0)
    h = np.sin(dlat / 2) ** 2 + np.cos(p0) * np.cos(p) * np.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def check_ingest(checks: Checks, truth: dict, kind: str, out_text: str, err_text: str, stored: int):
    """Each replayed file is one operation: skipped exactly when malformed."""
    expected = set(truth["skips"][kind])
    skipped = {m.group(1) for m in map(SKIP_LINE.match, err_text.splitlines()) if m}
    wrong = len(expected ^ skipped)
    files = truth["files"][kind]
    checks.expect(True, "", files - wrong)
    checks.expect(False, f"{kind}: skipped files differ from the malformed set", wrong)
    summary = SUMMARY_LINE.search(out_text)
    checks.expect(
        summary is not None and int(summary.group(2)) == len(expected),
        f"{kind}: reported skip count differs from {len(expected)}",
    )
    checks.expect(
        stored == truth["stored"][kind],
        f"{kind}: store holds {stored} documents, expected {truth['stored'][kind]}",
    )


def check_pipeline(checks: Checks, truth: dict, result, document: dict, validate_geojson):
    """Checks on one run_pipeline result and the GeoJSON it wrote."""
    try:
        validate_geojson(document)
        checks.expect(True, "")
    except (AssertionError, jsonschema.ValidationError) as exc:
        checks.expect(False, f"GeoJSON invalid: {exc}")

    corpus = truth["corpus"]
    checks.expect(
        len(result.records) + len(result.noise) == corpus["clusterable"],
        f"{len(result.records) + len(result.noise)} records clustered, expected {corpus['clusterable']}",
    )
    checks.expect(
        len(result.purged) == corpus["bbox_purged"],
        f"{len(result.purged)} records purged, expected {corpus['bbox_purged']}",
    )
    lat_m, lon_m = truth["mislocated"]
    checks.expect(
        any(r.position.lat_deg == lat_m and r.position.lon_deg == lon_m for r in result.purged),
        "mislocated point not purged",
    )

    features = document["features"]
    polygons = [f for f in features if f["geometry"]["type"] == "Polygon"]
    centres = {
        f["properties"]["cluster_id"]: f
        for f in features
        if f["geometry"]["type"] == "Point" and "member_count" in f["properties"]
    }
    k = result.labeling.n_clusters
    checks.expect(
        len(polygons) == k == len(centres),
        f"{len(polygons)} polygons for {k} clusters",
    )

    lats = np.array([r.position.lat_deg for r in result.records])
    lons = np.array([r.position.lon_deg for r in result.records])
    labels = np.asarray(result.labeling.labels)
    for poly in polygons:
        cid = poly["properties"]["cluster_id"]
        radius = poly["properties"]["radius_km"]
        centre = centres.get(cid)
        if centre is None:
            checks.expect(False, f"cluster {cid}: polygon without centre")
            continue
        c_lon, c_lat = centre["geometry"]["coordinates"]
        ring = np.array(poly["geometry"]["coordinates"][0])
        d = haversine_km(c_lat, c_lon, ring[:, 1], ring[:, 0])
        checks.expect(
            bool(np.allclose(d, radius, rtol=1e-7, atol=1e-9)),
            f"cluster {cid}: ring vertices off the {radius} km radius",
        )
        members = labels == cid
        mean_lat, mean_lon = lats[members].mean(), lons[members].mean()
        far = haversine_km(mean_lat, mean_lon, lats[members], lons[members]).max()
        checks.expect(
            abs(mean_lat - c_lat) <= 1e-9 and abs(mean_lon - c_lon) <= 1e-9
            and abs(far - radius) <= 1e-6 * max(1.0, radius),
            f"cluster {cid}: centre or radius differs from its members",
        )

    blob_of = {(lat, lon): blob for lat, lon, blob in truth["clusterable_points"]}
    blobs = np.array([blob_of.get((a, b), -2) for a, b in zip(lats, lons)])
    checks.expect(not (blobs == -2).any(), "clustered record not produced by the generator")
    for blob, (b_lat, b_lon) in enumerate(truth["blob_centers"]):
        if (blobs == blob).sum() < MIN_BLOB_POINTS:
            continue
        # k-means may merge two blobs or split one (a local optimum is a
        # valid result), but every blob's centre lies inside some zone.
        covered = any(
            haversine_km(
                c["geometry"]["coordinates"][1], c["geometry"]["coordinates"][0], [b_lat], [b_lon]
            )[0] <= c["properties"]["radius_km"]
            for c in centres.values()
        )
        checks.expect(covered, f"blob {blob} centre outside every coverage circle")
