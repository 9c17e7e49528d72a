"""The whole pipeline against the reference chain, on small generated stores.

The chain is ``reference.corpus``, then the exhaustive DBSCAN of
``tests/oracles.py``, then ``reference.xmeans``, ``reference.summarize``,
rings from ``coverage_circle`` and ``reference.export_geojson``. Every stage
keeps the bits of its input, so the report, the summaries and the GeoJSON
bytes of ``run_pipeline`` must equal the chain's exactly.
"""

import json

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geozones.clustering import NOISE, DbscanConfig, KMeansConfig, Labeling, XMeansConfig
from geozones.corpus import DEFAULT_STUDY_AREA as BOX
from geozones.corpus import KeywordQuery
from geozones.coverage import coverage_circle
from geozones.errors import EmptyCorpusError
from geozones.pipeline import PipelineConfig, run_pipeline
from geozones.store import DocumentStore

from . import reference
from .oracles import brute_force_dbscan

QUERY = KeywordQuery(terms=("Medellín", "Fiesta"))
# Each matches QUERY; the first three only once text and term are folded.
ON_TOPIC = ("medellin", "ﬁesta", "MEDELLÍN", "arriba Medellín", "gran fiesta")
OFF_TOPIC = ("otro", "4sq.com/x")
EPS_KM = 5.0
VERTEX_COUNT = 8
# 1/32 degree of longitude near 6.25 N is about 3.45 km, inside EPS_KM.
STEP = 1 / 32


def tweet(point, text) -> tuple:
    return ("tweet", point, text)


def photo(point, text) -> tuple:
    return ("photo", point, text)


def pile(point, copies: int, make=tweet) -> list[tuple]:
    """``copies`` records at one point, each with its own on-topic text, so none is a duplicate."""
    return [make(point, f"{ON_TOPIC[i % len(ON_TOPIC)]} {i}") for i in range(copies)]


def tied_piles(lat: float, lon: float, copies: int) -> list[tuple]:
    """Two piles mirrored in longitude about (lat, lon), and one record at that midpoint.

    Seeded on the two piles, k-means finds the midpoint at exactly equal
    distance from both centres, so its label is the argmin tie-break.
    """
    return pile((lat, lon - STEP), copies) + pile((lat, lon + STEP), copies) + [tweet((lat, lon), "fiesta")]


def mirrored_pair(lat: float, lon: float, copies: int) -> list[tuple]:
    """A pile with one record on each side of it in longitude: as one cluster, its farthest members tie."""
    return pile((lat, lon), copies) + [tweet((lat, lon - STEP / 2), "fiesta"), tweet((lat, lon + STEP / 2), "fiesta")]


def xmeans_config(k_min, k_max, seed=0, restarts=2, max_iterations=100, tolerance=1e-7) -> XMeansConfig:
    inner = KMeansConfig(k=1, seed=seed, restarts=restarts, max_iterations=max_iterations, tolerance=tolerance)
    return XMeansConfig(k_min=k_min, k_max=k_max, inner=inner)


# Edge values of the box and a middle value, each with the direction out of the box.
EDGE_LATS = {BOX.min_lat: -90.0, BOX.max_lat: 90.0, 6.25: 6.25}
EDGE_LONS = {BOX.min_lon: -180.0, BOX.max_lon: 180.0, -75.45: -75.45}
# Dyadic points inside the box, so means of mirrored records are exact.
DYADIC_LAT = st.integers(2, 42).map(lambda i: 5.9375 + i / 64)
DYADIC_LON = st.integers(4, 40).map(lambda i: -75.75 + i / 64)


@st.composite
def stores(draw):
    """(records, min_pts, xmeans config) for a store of at most about 300 records.

    A record is (collection, (lat, lon) or None, text). The store holds
    Gaussian blobs, untagged tweets, duplicates that differ only in text,
    only in origin or not at all, piles on the box's edges and corners with
    records just outside them, tied piles and mirrored pairs.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    texts = ON_TOPIC + OFF_TOPIC
    records = []
    for _ in range(draw(st.integers(0, 3))):
        centre = rng.uniform((6.0, -75.7), (6.5, -75.2))
        sigma = draw(st.sampled_from([0.003, 0.01]))
        for lat, lon in (centre + rng.normal(0.0, sigma, (draw(st.integers(1, 80)), 2))).tolist():
            make = photo if rng.random() < 0.25 else tweet
            records.append(make((lat, lon), texts[rng.integers(len(texts))]))
    records += [tweet(None, "fiesta")] * draw(st.integers(0, 3))
    located = [r for r in records if r[1] is not None]
    for kind in draw(st.lists(st.sampled_from(["text", "origin", "exact"]), max_size=6 if located else 0)):
        collection, point, text = located[rng.integers(len(located))]
        if kind == "text":
            records.append((collection, point, text + " bis"))
        elif kind == "origin":
            records.append(("photo" if collection == "tweet" else "tweet", point, text))
        else:
            records.append((collection, point, text))
    edge_points = st.tuples(st.sampled_from(list(EDGE_LATS)), st.sampled_from(list(EDGE_LONS)))
    for lat, lon in draw(st.lists(edge_points, max_size=2)):
        records += pile((lat, lon), draw(st.integers(1, 6)), make=draw(st.sampled_from([tweet, photo])))
        # The nearest floats past an edge are purged.
        records.append(tweet((float(np.nextafter(lat, EDGE_LATS[lat])), lon), "fiesta"))
        records.append(tweet((lat, float(np.nextafter(lon, EDGE_LONS[lon]))), "fiesta"))
    if draw(st.booleans()):
        records += tied_piles(draw(DYADIC_LAT), draw(DYADIC_LON), draw(st.integers(3, 6)))
    if draw(st.booleans()):
        records += mirrored_pair(draw(DYADIC_LAT), draw(DYADIC_LON), draw(st.integers(3, 6)))
    if draw(st.booleans()):
        records = [records[i] for i in rng.permutation(len(records))]
    k_min = draw(st.integers(1, 4))
    cfg = xmeans_config(
        k_min,
        draw(st.integers(k_min, k_min + 3)),
        seed=draw(st.integers(0, 2**16)),
        restarts=draw(st.integers(1, 3)),
        max_iterations=draw(st.sampled_from([2, 100])),
        tolerance=draw(st.sampled_from([0.0, 1e-7])),
    )
    return records, draw(st.integers(3, 5)), cfg


def body(collection: str, point, text: str) -> dict:
    if collection == "photo":
        return {"geo": {"latitude": point[0], "longitude": point[1], "accuracy": 16}, "name": text}
    block = None if point is None else {"coordinates": {"latitude": point[0], "longitude": point[1]}, "type": "Point"}
    return {"coordinates": block, "source": "test", "text": text}


def reference_chain(bodies: dict, min_pts: int, cfg: XMeansConfig):
    """(report, summaries, GeoJSON bytes) of the reference chain, or None for an empty corpus."""
    records, _ = reference.corpus(bodies, QUERY, BOX)
    if not records:
        return None
    density = brute_force_dbscan([r.position for r in records], EPS_KM, min_pts)
    kept = [r for r, label in zip(records, density.tolist()) if label != NOISE]
    if not kept:
        return None
    inner = cfg.inner
    x = np.array([(r.position.lat_deg, r.position.lon_deg) for r in kept])
    assume(len(kept) >= cfg.k_min)  # fewer points than k_min is a ConfigError, checked elsewhere
    labels, centers, wcss = reference.xmeans(
        x, cfg.k_min, cfg.k_max, inner.seed, inner.restarts, inner.max_iterations, inner.tolerance
    )
    report = "\n".join(
        [f"Cluster centers : {len(centers)} centers"]
        + [f"Cluster {i}\t{lat!r} {lon!r}" for i, (lat, lon) in enumerate(centers.tolist())]
    )
    summaries = reference.summarize(Labeling(labels, centers, wcss), [r.position for r in kept])
    zones = [(s, coverage_circle(s.point_of_means, s.radius_km, VERTEX_COUNT)) for s in summaries]
    members = list(zip(labels.tolist(), kept))
    doc = reference.export_geojson(zones, members, include_members=True, query_terms=QUERY.terms)
    return report, summaries, (json.dumps(doc, ensure_ascii=False, indent=2) + "\n").encode("utf-8")


class TestPipelineReference:
    @settings(max_examples=60, deadline=None)
    @given(case=stores())
    # Seeded on the two piles, the midpoint ties: it joins the cluster of the lower index.
    @example(case=(tied_piles(6.25, -75.5, 5), 5, xmeans_config(2, 2)))
    # Piles on two corners of the box, twins that differ only in origin or only in text,
    # an exact duplicate, an untagged tweet and texts that match only once folded.
    @example(
        case=(
            pile((BOX.max_lat, BOX.max_lon), 5)
            + pile((BOX.min_lat, BOX.min_lon), 5, make=photo)
            + pile((6.25, -75.45), 5)
            + [tweet((6.25, -75.45), "medellin 0"), photo((6.25, -75.45), "medellin 0")]
            + [tweet((6.2501, -75.45), "medellin 0"), tweet((6.2501, -75.45), "otra fiesta")]
            + [tweet((6.2502, -75.45), "fiesta"), tweet((6.2502, -75.45), "fiesta")]
            + [tweet(None, "fiesta")],
            5,
            xmeans_config(3, 3),
        )
    )
    # As one cluster, the pair ties as farthest members: the first is kept.
    @example(case=(mirrored_pair(6.25, -75.5, 5), 5, xmeans_config(1, 1)))
    def test_equals_reference_chain(self, tmp_path_factory, case):
        records, min_pts, xmeans = case
        bodies = {"tweet": [], "photo": []}
        for collection, point, text in records:
            bodies[collection].append(body(collection, point, text))
        expected = reference_chain(bodies, min_pts, xmeans)

        directory = tmp_path_factory.mktemp("store")
        with DocumentStore(directory / "store") as store:
            with store.batch():
                for collection in ("tweet", "photo"):
                    for stored in bodies[collection]:
                        store.put(collection, stored)
        out = directory / "zones.geojson"
        cfg = PipelineConfig(
            store_dir=str(directory / "store"),
            bbox=BOX,
            keywords=QUERY,
            xmeans=xmeans,
            dbscan=DbscanConfig(eps_km=EPS_KM, min_pts=min_pts),
            vertex_count=VERTEX_COUNT,
            output_path=str(out),
            include_members=True,
        )
        try:
            result = run_pipeline(cfg)
        except EmptyCorpusError:
            assert expected is None
            return
        assert expected is not None
        report, summaries, geojson = expected
        assert result.report == report
        assert list(map(repr, result.summaries)) == list(map(repr, summaries))
        assert out.read_bytes() == geojson
