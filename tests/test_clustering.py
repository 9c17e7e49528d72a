import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from geozones import clustering
from geozones.clustering import (
    _EDGE_DEG,
    _H_MARGIN,
    NOISE,
    DbscanConfig,
    KMeansConfig,
    XMeansConfig,
    _bic,
    _grid,
    _h_eps,
    _lloyd,
    _sq_distances,
    _touch,
    dbscan,
    format_cluster_report,
    kmeans,
    points_array,
    xmeans,
)
from geozones.errors import ConfigError, CoordinateError
from geozones.geo import EARTH_RADIUS_KM, GeoPoint, haversine_h, haversine_to_many

from . import reference
from .conftest import BUG_POINT, make_blobs
from .oracles import brute_force_dbscan, brute_force_min_wcss, kahan_mean, reference_bic


KM_PER_DEG = 111.19492664455873  # along a meridian, R = 6371 km


@st.composite
def dbscan_instances(draw):
    """Points jittered around a few centres at the scale of eps, anywhere on the globe."""
    eps = math.exp(draw(st.floats(math.log(0.01), math.log(20_000.0))))
    spread = eps / KM_PER_DEG * draw(st.floats(0.05, 3.0))
    centres = draw(st.lists(st.tuples(st.floats(-90, 90), st.floats(-180, 180)), min_size=1, max_size=4))
    offsets = draw(
        st.lists(
            st.tuples(st.integers(0, len(centres) - 1), st.floats(-1, 1), st.floats(-1, 1)),
            min_size=1,
            max_size=40,
        )
    )
    points = []
    for i, d_lat, d_lon in offsets:
        lat, lon = centres[i]
        lat = min(90.0, max(-90.0, lat + d_lat * spread))
        lon = (lon + d_lon * spread / max(math.cos(math.radians(lat)), 0.01) + 180.0) % 360.0 - 180.0
        points.append(GeoPoint(lat, lon))
    return points, eps, draw(st.integers(1, 8))


def grid_points(n, seed):
    rng = np.random.default_rng(seed)
    return [GeoPoint(lat, lon) for lat, lon in zip(rng.uniform(-60, 60, n), rng.uniform(-170, 170, n))]


@st.composite
def degree_rows(draw, max_rows):
    """An (m, 2) float64 array of (lat, lon) rows, 1 <= m <= max_rows."""
    m = draw(st.integers(1, max_rows))
    lat = draw(arrays(np.float64, m, elements=st.floats(-90, 90)))
    lon = draw(arrays(np.float64, m, elements=st.floats(-180, 180)))
    return np.column_stack((lat, lon))


@settings(max_examples=150, deadline=None)
@given(x=degree_rows(200), centers=degree_rows(60))
def test_sq_distances_equal_einsum_form(x, centers):
    # Labels and radii depend on every bit, so the two forms must agree exactly.
    assert np.array_equal(_sq_distances(x.T, centers).T, reference.sq_distances(x, centers))


@st.composite
def kmeans_instances(draw):
    """At most 30 points on a coarse lattice: duplicates, exact distance ties and near-ties."""
    lat0, lon0 = draw(st.sampled_from([(0.0, 0.0), (6.2, -75.5)]))
    step = draw(st.sampled_from([1.0, 0.5, 0.1, 0.003]))
    pool = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=10))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    x = np.array([(lat0 + pool[i][0] * step, lon0 + pool[i][1] * step) for i in picks])
    cfg = KMeansConfig(
        k=draw(st.integers(1, min(6, len(x)))),
        max_iterations=draw(st.sampled_from([1, 2, 100])),
        tolerance=draw(st.sampled_from([0.0, 1e-7])),
        seed=draw(st.integers(0, 2**16)),
        restarts=draw(st.integers(1, 4)),
    )
    return x, cfg


@settings(max_examples=400, deadline=None)
@given(kmeans_instances())
def test_kmeans_equals_frozen_reference(instance):
    # Labels and radii depend on every bit, so seeding, Lloyd's passes and the
    # restart choice must all match the reference exactly.
    x, cfg = instance
    got = kmeans(x, cfg)
    labels, centers, wcss = reference.kmeans(x, cfg.k, cfg.seed, cfg.restarts, cfg.max_iterations, cfg.tolerance)
    assert np.array_equal(got.labels, labels)
    assert got.centers.tobytes() == centers.tobytes()
    assert got.wcss.hex() == wcss.hex()


@st.composite
def kmeans_scale_instances(draw):
    """Up to a few thousand points, where Lloyd's bounds skip most distance rows.

    Gaussian blobs of 20-400 points each, a lattice pool with many
    duplicates and exact ties, or rows uniform over the world. Sizes and k
    come from the drawn generator, so they spread over their whole range.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["blobs", "lattice", "world"]))
    if kind == "blobs":
        blobs = rng.integers(1, 9)
        centres = np.column_stack((rng.uniform(6.0, 6.6, blobs), rng.uniform(-75.8, -75.2, blobs)))
        sigma = draw(st.sampled_from([0.005, 0.02, 0.1]))
        x = np.concatenate([c + rng.normal(0.0, sigma, (m, 2)) for c, m in zip(centres, rng.integers(20, 401, blobs))])
    elif kind == "lattice":
        pool = rng.integers(-4, 5, (rng.integers(2, 31), 2)) * draw(st.sampled_from([1.0, 0.25, 0.003]))
        x = np.array([6.0, -75.0]) + pool[rng.integers(0, len(pool), rng.integers(10, 2001))]
    else:
        n = rng.integers(10, 2001)
        x = np.column_stack((rng.uniform(-90, 90, n), rng.uniform(-180, 180, n)))
    cfg = KMeansConfig(
        k=int(rng.integers(1, min(12, len(x)) + 1)),
        tolerance=draw(st.sampled_from([0.0, 1e-7])),
        seed=draw(st.integers(0, 2**16)),
        restarts=draw(st.integers(1, 2)),
    )
    return x, cfg


# Half-degree lattices. In the first, a cluster empties in the second pass;
# in the second, a point checked in the third pass is equidistant from two centres.
EMPTIED_LATER = np.array([
    (7.0, -73.5), (6.5, -74.5), (7.5, -73.0), (7.0, -74.0), (7.0, -75.5), (8.5, -74.5), (8.0, -73.0),
    (8.0, -74.5), (7.0, -74.0), (8.0, -73.0), (8.0, -74.5), (8.0, -75.0), (6.5, -74.5), (7.0, -74.0),
    (8.5, -74.5), (8.5, -75.5), (7.5, -73.0), (7.0, -73.5), (7.0, -74.5),
])
TIED_LATER = np.array([
    (7.5, -75.5), (7.0, -75.5), (6.5, -73.0), (6.0, -73.0), (7.0, -74.5), (6.0, -73.5), (6.0, -74.0),
    (6.5, -74.5), (8.5, -75.5), (7.5, -75.5), (7.5, -74.5), (6.0, -75.0),
])


@settings(max_examples=60, deadline=None)
@given(kmeans_scale_instances())
@example((EMPTIED_LATER, KMeansConfig(k=4, tolerance=0.0, seed=2, restarts=1)))
@example((TIED_LATER, KMeansConfig(k=4, tolerance=0.0, seed=0, restarts=1)))
def test_kmeans_at_scale_equals_frozen_reference(instance):
    # A pass computes distance rows only where the bounds cannot prove the
    # label, so the labels must still be those of full passes, bit for bit.
    x, cfg = instance
    got = kmeans(x, cfg)
    labels, centers, wcss = reference.kmeans(x, cfg.k, cfg.seed, cfg.restarts, cfg.max_iterations, cfg.tolerance)
    assert np.array_equal(got.labels, labels)
    assert got.centers.tobytes() == centers.tobytes()
    assert got.wcss.hex() == wcss.hex()


@st.composite
def xmeans_instances(draw):
    """Points and an X-means config with k_min < k_max, so splits are tried, accepted and capped.

    Half the draws are Gaussian blobs. The other half place copies of one
    quarter-degree lattice motif, two piles of 2 or 4 points each about
    their centres, at whole 10-degree steps: the means of piles and copies
    are exact, so the copies' split gains tie bit for bit whenever their
    splits agree, and a cap below the copy count must take the lowest
    cluster ids.
    """
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        blobs = draw(st.integers(1, 5))
        centres = np.column_stack((rng.uniform(6.0, 6.6, blobs), rng.uniform(-75.8, -75.2, blobs)))
        sizes = rng.integers(3, 25, blobs)
        sigma = draw(st.sampled_from([0.005, 0.02, 0.05]))
        x = np.concatenate([c + rng.normal(0.0, sigma, (m, 2)) for c, m in zip(centres, sizes)])
    else:
        cells = st.tuples(st.integers(-8, 8), st.integers(-8, 8)).map(lambda c: np.array(c) / 4.0)
        piles = draw(st.lists(cells, min_size=2, max_size=2, unique_by=tuple))
        size = draw(st.integers(1, 2))
        spreads = draw(st.lists(st.lists(cells, min_size=size, max_size=size), min_size=2, max_size=2))
        motif = [p + sign * d for p, ds in zip(piles, spreads) for d in ds for sign in (1, -1)]
        copies = draw(st.integers(2, 4))
        x = np.array([m + (10.0 * i, 0.0) for i in range(copies) for m in motif])
    k_min = draw(st.integers(1, min(4, len(x) - 1)))
    k_max = draw(st.integers(k_min + 1, min(k_min + 4, len(x))))
    inner = KMeansConfig(
        k=1,
        max_iterations=draw(st.sampled_from([2, 100])),
        tolerance=draw(st.sampled_from([0.0, 1e-7])),
        seed=draw(st.integers(0, 2**16)),
        restarts=draw(st.integers(1, 3)),
    )
    return x, XMeansConfig(k_min=k_min, k_max=k_max, inner=inner)


TIED_MOTIF = [(0.25, 0.25), (-0.25, -0.25), (0.25, 2.25), (-0.25, 1.75)]
TIED_COPIES = np.array([(lat + 10.0 * i, lon) for i in range(2) for lat, lon in TIED_MOTIF])


@settings(max_examples=120, deadline=None)
@given(xmeans_instances())
# Two copies of one motif whose split gains tie, with room for one split.
@example((TIED_COPIES, XMeansConfig(k_min=2, k_max=3, inner=KMeansConfig(k=1, seed=0, restarts=2))))
def test_xmeans_equals_frozen_reference(instance):
    # The split seeds, the BIC gains, the cap and its tie-break, and the
    # polish all feed the labels, so they must match the reference exactly.
    x, cfg = instance
    got = xmeans(x, cfg)
    inner = cfg.inner
    labels, centers, wcss = reference.xmeans(
        x, cfg.k_min, cfg.k_max, inner.seed, inner.restarts, inner.max_iterations, inner.tolerance
    )
    assert np.array_equal(got.labels, labels)
    assert got.centers.tobytes() == centers.tobytes()
    assert got.wcss.hex() == wcss.hex()


class TestKMeans:
    def test_identical_points_single_cluster(self):
        points = [GeoPoint(6.2, -75.5)] * 5
        labeling = kmeans(points, KMeansConfig(k=1))
        assert list(labeling.labels) == [0] * 5
        assert labeling.centroids == [GeoPoint(6.2, -75.5)]
        assert labeling.wcss == 0.0

    def test_two_separated_piles(self):
        points = [GeoPoint(0, 0)] * 3 + [GeoPoint(10, 10)] * 3
        labeling = kmeans(points, KMeansConfig(k=2, seed=5))
        assert labeling.wcss == 0.0
        assert sorted((c.lat_deg, c.lon_deg) for c in labeling.centroids) == [(0, 0), (10, 10)]
        assert len(set(labeling.labels[:3])) == 1
        assert len(set(labeling.labels[3:])) == 1

    def test_k_equals_point_count(self):
        points = [GeoPoint(0, 0), GeoPoint(1, 1), GeoPoint(2, 2), GeoPoint(3, 3)]
        labeling = kmeans(points, KMeansConfig(k=4, seed=2))
        assert labeling.wcss == 0.0
        assert sorted((c.lat_deg, c.lon_deg) for c in labeling.centroids) == [
            (0, 0), (1, 1), (2, 2), (3, 3),
        ]

    def test_k_larger_than_points_rejected(self):
        with pytest.raises(ConfigError):
            kmeans([GeoPoint(0, 0)], KMeansConfig(k=2))

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError):
            kmeans([], KMeansConfig(k=1))

    @pytest.mark.parametrize("tolerance", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(ConfigError):
            KMeansConfig(k=1, tolerance=tolerance)

    def test_deterministic_for_fixed_seed(self):
        points = grid_points(40, seed=11)
        one = kmeans(points, KMeansConfig(k=4, seed=9))
        two = kmeans(points, KMeansConfig(k=4, seed=9))
        assert np.array_equal(one.labels, two.labels)
        assert one.centroids == two.centroids
        assert one.wcss == two.wcss

    def test_array_input_matches_points(self):
        points = make_blobs([(6.0, -75.5), (6.5, -75.0)], sigma=0.02, n_per=80, seed=12)
        one, two = kmeans(points, KMeansConfig(k=3)), kmeans(points_array(points), KMeansConfig(k=3))
        assert np.array_equal(one.labels, two.labels)
        assert np.array_equal(one.centers, two.centers)
        assert one.wcss == two.wcss

    @pytest.mark.parametrize(
        "rows, error",
        [
            ([[6.2, -75.5, 0.0]], ConfigError),
            ([[np.nan, -75.5]], CoordinateError),
            ([[91.0, -75.5]], CoordinateError),
            ([[6.2, -181.0]], CoordinateError),
        ],
    )
    def test_bad_array_input_rejected(self, rows, error):
        with pytest.raises(error):
            points_array(np.array(rows))
        with pytest.raises(error):
            kmeans(np.array(rows), KMeansConfig(k=1))

    def test_restarts_attain_brute_force_optimum(self):
        rng = np.random.default_rng(100)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(3, n) + 1))
            points = [
                GeoPoint(lat, lon)
                for lat, lon in zip(rng.uniform(-50, 50, n), rng.uniform(-50, 50, n))
            ]
            labeling = kmeans(points, KMeansConfig(k=k, seed=int(rng.integers(1 << 30))))
            optimum = brute_force_min_wcss(points_array(points), k)
            assert labeling.wcss == pytest.approx(optimum, rel=1e-9, abs=1e-12)

    def test_wcss_monotone_within_run(self):
        points = grid_points(200, seed=3)
        x = points_array(points)
        rng = np.random.default_rng(0)
        init = x[rng.choice(len(points), 6, replace=False)]
        history = [_lloyd(x, init, max_iterations=m, tolerance=0.0)[2] for m in range(1, 30)]
        assert all(later <= earlier + 1e-9 for earlier, later in zip(history, history[1:]))

    def test_assignment_optimality_at_convergence(self):
        points = grid_points(150, seed=8)
        labeling = kmeans(points, KMeansConfig(k=5, seed=4, tolerance=0.0))
        x = points_array(points)
        centers = points_array(labeling.centroids)
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(labeling.labels, d2.argmin(axis=1))

    def test_centroids_are_member_means(self):
        points = grid_points(120, seed=15)
        labeling = kmeans(points, KMeansConfig(k=4, seed=1, tolerance=0.0))
        x = points_array(points)
        for cid, centroid in enumerate(labeling.centroids):
            members = x[labeling.labels == cid]
            assert centroid.lat_deg == pytest.approx(members[:, 0].mean(), abs=1e-12)
            assert centroid.lon_deg == pytest.approx(members[:, 1].mean(), abs=1e-12)

    def test_permutation_stability_from_fixed_init(self):
        points = grid_points(60, seed=21)
        x = points_array(points)
        init = x[:4].copy()
        labels_a, centers_a, _ = _lloyd(x, init, 100, 0.0)
        perm = np.random.default_rng(5).permutation(len(points))
        labels_b, centers_b, _ = _lloyd(x[perm], init, 100, 0.0)
        # Canonical form: order clusters by centroid, then compare labels.
        order_a = np.lexsort((centers_a[:, 1], centers_a[:, 0]))
        order_b = np.lexsort((centers_b[:, 1], centers_b[:, 0]))
        assert np.allclose(centers_a[order_a], centers_b[order_b])
        rank_a = np.argsort(order_a)
        rank_b = np.argsort(order_b)
        assert np.array_equal(rank_a[labels_a][perm], rank_b[labels_b])


class TestBic:
    def test_matches_reference_formula(self):
        rng = np.random.default_rng(17)
        x = rng.normal(0, 1, (40, 2))
        for k in (1, 2, 3):
            centers = x[:k]
            labels = rng.integers(0, k, 40)
            # Guarantee every cluster is populated.
            labels[:k] = np.arange(k)
            assert _bic(x, centers, labels) == pytest.approx(reference_bic(x, centers, labels), rel=1e-12)

    def test_degenerate_variance_scores_minus_inf(self):
        x = np.zeros((10, 2))
        centers = np.zeros((1, 2))
        labels = np.zeros(10, dtype=np.int64)
        assert _bic(x, centers, labels) == float("-inf")

    def test_count_logs_come_from_libm(self):
        # numpy's AVX-512 log differs from math.log at 9,170, so a split
        # decision could flip with the host if the count logs came from np.log.
        n, dims, k = 9_170, 2, 1
        x = np.random.default_rng(23).normal(0.0, 1.0, (n, dims))
        centers, labels = x.mean(axis=0)[None, :], np.zeros(n, dtype=np.int64)
        variance = reference.wcss(x, centers, labels) / (dims * (n - k))
        expected = (
            n * math.log(n)
            - n * math.log(n)
            - (n * dims / 2.0) * math.log(2.0 * math.pi * variance)
            - (n - k) / 2.0
            - (k * (dims + 1) / 2.0) * math.log(n)
        )
        assert _bic(x, centers, labels) == expected


class TestXMeans:
    def test_fixed_k_ten_blobs(self):
        from .conftest import sample_centers_in_box

        centers = sample_centers_in_box(10, seed=42)
        points = make_blobs(centers, sigma=0.01, n_per=60, seed=7)
        labeling = xmeans(points, XMeansConfig(k_min=10, k_max=10))
        assert labeling.n_clusters == 10
        assert NOISE not in labeling.labels

    def test_single_tight_blob_stays_whole(self):
        points = make_blobs([(6.2, -75.5)], sigma=0.001, n_per=200, seed=3)
        labeling = xmeans(points, XMeansConfig(k_min=1, k_max=10))
        assert labeling.n_clusters == 1

    def test_two_blobs_found(self):
        points = make_blobs([(6.0, -75.5), (6.5, -75.0)], sigma=0.01, n_per=100, seed=4)
        labeling = xmeans(points, XMeansConfig(k_min=1, k_max=5))
        assert labeling.n_clusters == 2
        got = sorted((c.lat_deg, c.lon_deg) for c in labeling.centroids)
        assert got[0] == pytest.approx((6.0, -75.5), abs=0.01)
        assert got[1] == pytest.approx((6.5, -75.0), abs=0.01)

    def test_split_decision_matches_bic_table(self):
        # Independent decision table: for each trial cluster, compare the
        # reference BIC of the 1-cluster model against the best 2-means
        # split found by restarted runs.
        for data_seed, expected_k in ((3, 1), (4, 2)):
            if expected_k == 1:
                points = make_blobs([(6.2, -75.5)], sigma=0.001, n_per=200, seed=data_seed)
            else:
                points = make_blobs([(6.0, -75.5), (6.5, -75.0)], sigma=0.01, n_per=100, seed=data_seed)
            x = points_array(points)
            one_center = x.mean(axis=0)[None, :]
            bic1 = reference_bic(x, one_center, np.zeros(len(points), dtype=np.int64))
            split = kmeans(points, KMeansConfig(k=2, seed=0))
            bic2 = reference_bic(x, points_array(split.centroids), split.labels)
            should_split = bic2 > bic1
            assert should_split == (expected_k == 2)

    def test_k_stays_within_bounds(self):
        points = make_blobs(
            [(6.0, -75.5), (6.2, -75.3), (6.4, -75.7), (6.5, -75.1)], sigma=0.005, n_per=50, seed=9
        )
        for k_min, k_max in ((1, 2), (2, 3), (1, 10), (3, 3)):
            labeling = xmeans(points, XMeansConfig(k_min=k_min, k_max=k_max))
            assert k_min <= labeling.n_clusters <= k_max

    def test_deterministic_for_fixed_seed(self):
        points = make_blobs([(6.0, -75.5), (6.5, -75.0)], sigma=0.02, n_per=80, seed=12)
        cfg = XMeansConfig(k_min=1, k_max=6, inner=KMeansConfig(k=1, seed=33))
        one, two = xmeans(points, cfg), xmeans(points, cfg)
        assert np.array_equal(one.labels, two.labels)
        assert one.centroids == two.centroids

    def test_array_input_matches_points(self):
        points = make_blobs([(6.0, -75.5), (6.5, -75.0)], sigma=0.02, n_per=80, seed=12)
        cfg = XMeansConfig(k_min=1, k_max=6, inner=KMeansConfig(k=1, seed=33))
        one, two = xmeans(points, cfg), xmeans(points_array(points), cfg)
        assert np.array_equal(one.labels, two.labels)
        assert np.array_equal(one.centers, two.centers)
        assert one.wcss == two.wcss

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigError):
            xmeans([GeoPoint(0, 0)], XMeansConfig(k_min=2, k_max=3))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigError):
            XMeansConfig(k_min=5, k_max=2)


class TestDbscan:
    def test_single_dense_cluster(self):
        points = make_blobs([(6.2, -75.5)], sigma=0.001, n_per=20, seed=1)
        labeling = dbscan(points, DbscanConfig(eps_km=50, min_pts=1))
        assert set(labeling.labels) == {0}
        assert labeling.n_clusters == 1

    def test_far_point_is_noise(self):
        mass = make_blobs([(6.2, -75.5)], sigma=0.01, n_per=50, seed=2)
        lonely = GeoPoint(15.0, -75.5)  # ~1000 km north
        labeling = dbscan(mass + [lonely], DbscanConfig(eps_km=50, min_pts=5))
        assert labeling.labels[-1] == NOISE
        assert set(labeling.labels[:-1]) == {0}

    def test_mislocated_point_is_noise(self):
        mass = make_blobs([(6.24, -75.58)], sigma=0.01, n_per=60, seed=6)
        labeling = dbscan(mass + [BUG_POINT], DbscanConfig(eps_km=50, min_pts=5))
        assert labeling.labels[-1] == NOISE

    def test_matches_reachability_oracle_random_instances(self):
        rng = np.random.default_rng(77)
        instances = []
        for _ in range(30):
            n = int(rng.integers(5, 120))
            points = [
                GeoPoint(lat, lon)
                for lat, lon in zip(
                    rng.uniform(6.0, 6.6, n), rng.uniform(-75.8, -75.2, n)
                )
            ]
            instances.append((points, float(rng.uniform(0.5, 20.0)), int(rng.integers(1, 8))))
        # A border point first in input order, within eps of two clusters.
        offsets_km = [0, 0.9, 1.1, 1.3, 1.5, -1.5, -1.3, -1.1, -0.9]
        instances.append(([GeoPoint(6.2 + o / 111.19492664455873, -75.5) for o in offsets_km], 1.0, 4))
        # One dense 600-point component.
        instances.append((make_blobs([(6.20, -75.50), (6.27, -75.50)], sigma=0.01, n_per=300, seed=5), 5.0, 5))
        for trial, (points, eps, min_pts) in enumerate(instances):
            labeling = dbscan(points, DbscanConfig(eps_km=eps, min_pts=min_pts))
            expected = brute_force_dbscan(points, eps, min_pts)
            assert np.array_equal(labeling.labels, expected), (trial, eps, min_pts)

    def test_centroids_are_cluster_means(self):
        points = make_blobs([(6.0, -75.5)], sigma=0.01, n_per=30, seed=13)
        labeling = dbscan(points, DbscanConfig(eps_km=10, min_pts=3))
        members = [p for p, label in zip(points, labeling.labels) if label == 0]
        assert labeling.centroids[0].lat_deg == pytest.approx(
            kahan_mean(p.lat_deg for p in members), abs=1e-12
        )

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError):
            dbscan([], DbscanConfig())

    def test_array_input_matches_points(self):
        points = make_blobs([(6.0, -75.5), (6.5, -75.0)], sigma=0.02, n_per=80, seed=12)
        one, two = dbscan(points, DbscanConfig()), dbscan(points_array(points), DbscanConfig())
        assert np.array_equal(one.labels, two.labels)
        assert np.array_equal(one.centers, two.centers)
        assert one.wcss == two.wcss

    @settings(max_examples=300, deadline=None)
    @given(dbscan_instances())
    def test_matches_oracle_property(self, instance):
        points, eps, min_pts = instance
        labeling = dbscan(points, DbscanConfig(eps_km=eps, min_pts=min_pts))
        assert np.array_equal(labeling.labels, brute_force_dbscan(points, eps, min_pts))

    def assert_oracle(self, points, eps, min_pts):
        labels = dbscan(points, DbscanConfig(eps_km=eps, min_pts=min_pts)).labels
        assert np.array_equal(labels, brute_force_dbscan(points, eps, min_pts))
        return labels

    def test_pair_across_antimeridian(self):
        points = [GeoPoint(0.0, 179.9), GeoPoint(0.0, -179.9)]  # 22.2 km apart
        assert self.assert_oracle(points, 25.0, 2).tolist() == [0, 0]
        assert self.assert_oracle(points, 20.0, 2).tolist() == [NOISE, NOISE]

    @pytest.mark.parametrize("lat", [89.99, -89.97], ids=["north", "south"])
    def test_points_around_a_pole(self, lat):
        # 1.1 and 3.3 km from the pole over every longitude, plus the pole itself.
        points = [GeoPoint(lat, lon) for lon in range(-180, 180, 10)] + [GeoPoint(math.copysign(90.0, lat), 0.0)]
        assert set(self.assert_oracle(points, 5.0, 5)) == {0}
        self.assert_oracle(points, 2.0, 3)

    @pytest.mark.parametrize("min_pts", [2, 3])
    def test_points_exactly_eps_apart(self, min_pts):
        step = 5.0 / KM_PER_DEG  # eps along a meridian, and along the equator
        meridian = [GeoPoint(6.0 + i * step, -75.5) for i in range(6)]
        equator = [GeoPoint(0.0, 100.0 + i * step) for i in range(6)]
        self.assert_oracle(meridian, 5.0, min_pts)
        self.assert_oracle(equator, 5.0, min_pts)

    def test_pair_at_exactly_eps(self):
        p, q = GeoPoint(6.2, -75.5), GeoPoint(6.23, -75.47)
        eps = float(haversine_to_many(p, [q.lat_deg], [q.lon_deg])[0])
        assert self.assert_oracle([p, q], eps, 2).tolist() == [0, 0]
        assert self.assert_oracle([p] * 5 + [q] * 5, eps, 5).tolist() == [0] * 10
        assert self.assert_oracle([p, q], float(np.nextafter(eps, 0)), 2).tolist() == [NOISE, NOISE]

    @pytest.mark.parametrize("gap_km", [4.6, 5.1])
    def test_dense_disks_near_eps_apart(self, gap_km, monkeypatch):
        # Two 150-point disks whose boxes come closer than their points; tiny
        # tiles force the chunked tests and the bisection of the core-pair search.
        monkeypatch.setattr(clustering, "_BLOCK", 7)
        rng = np.random.default_rng(8)
        centre_km = 1.5 + gap_km / 2
        points = []
        for sign in (-1, 1):
            angle, radius = rng.uniform(0, 2 * np.pi, 150), 1.5 * np.sqrt(rng.uniform(0, 1, 150))
            offset = sign * centre_km / math.sqrt(2)
            points += [
                GeoPoint(6.2 + (offset + r * math.sin(a)) / KM_PER_DEG, -75.5 + (offset + r * math.cos(a)) / KM_PER_DEG)
                for a, r in zip(angle, radius)
            ]
        labels = self.assert_oracle(points, 5.0, 5)
        assert labels.max() == (0 if gap_km < 5.0 else 1)

    def test_core_pair_in_the_farther_half(self, monkeypatch):
        # One cell holds four points along a meridian, the next cell east two
        # points whose box spans all four latitudes, so the bisection's two
        # halves tie; only the upper half, searched second, reaches within eps.
        monkeypatch.setattr(clustering, "_BLOCK", 7)
        km_per_lon = KM_PER_DEG * math.cos(math.radians(6.226))
        points = [GeoPoint(6.202 + i * 0.008, -75.52) for i in range(4)]
        points += [GeoPoint(6.226, -75.52 + 4.9 / km_per_lon), GeoPoint(6.202, -75.52 + 5.5 / km_per_lon)]
        assert _grid(points_array(points), _h_eps(5.0))[1].tolist() == [0, 4, 6]
        assert self.assert_oracle(points, 5.0, 2).tolist() == [0] * 6

    def test_one_cell_of_duplicates(self):
        points = [GeoPoint(6.2, -75.5)] * 10 + [GeoPoint(6.6, -75.1)]
        labeling = dbscan(points, DbscanConfig(eps_km=5.0, min_pts=5))
        assert labeling.labels.tolist() == [0] * 10 + [NOISE]
        assert labeling.n_clusters == 1
        self.assert_oracle(points, 5.0, 5)

    def test_all_noise(self):
        points = [GeoPoint(6.0 + i * 0.1, -75.5) for i in range(8)]  # 11 km apart
        labeling = dbscan(points, DbscanConfig(eps_km=5.0, min_pts=2))
        assert labeling.labels.tolist() == [NOISE] * 8
        assert labeling.n_clusters == 0
        assert labeling.wcss == 0.0
        self.assert_oracle(points, 5.0, 2)

    def test_min_pts_one(self):
        rng = np.random.default_rng(31)
        points = [GeoPoint(lat, lon) for lat, lon in zip(rng.uniform(6.0, 6.3, 60), rng.uniform(-75.8, -75.5, 60))]
        labels = self.assert_oracle(points, 3.0, 1)
        assert NOISE not in labels

    @pytest.mark.parametrize("eps", [20_016.0, 4e4, 1e7, 1e308, math.inf])
    def test_eps_beyond_half_the_circumference(self, eps):
        # Any two points are within pi R (20,015.1 km): such an eps reaches every point, in bounded time.
        rng = np.random.default_rng(3)
        points = [GeoPoint(lat, lon) for lat, lon in zip(rng.uniform(-90, 90, 200), rng.uniform(-180, 180, 200))]
        start = time.perf_counter()
        labels = self.assert_oracle(points, eps, 5)
        assert time.perf_counter() - start < 1.0
        assert labels.tolist() == [0] * 200

    @pytest.mark.parametrize("eps", [20_016.0, math.inf])
    def test_antipodal_pair_whose_h_rounds_past_one(self, eps):
        assert self.assert_oracle([GeoPoint(2.5, 0.0), GeoPoint(-2.5, 180.0)], eps, 2).tolist() == [0, 0]

    def test_tiny_eps_rejected(self):
        with pytest.raises(ConfigError):
            DbscanConfig(eps_km=1e-7)

    @pytest.mark.parametrize(
        "eps, lat, lon", [(5.0, 6.2, -75.5), (0.01, -45.3, 12.0), (5.0, 0.01, 100.0), (300.0, 40.0, -3.0)]
    )
    def test_dense_cell_diagonal_at_the_margin(self, eps, lat, lon):
        # The corners of one grid cell, from the sizing rule of the grid. The
        # dense-cell shortcut makes them core without computing a distance,
        # so every pair, the diagonal included, must compute as within eps.
        s2 = math.sin(eps / (2 * EARTH_RADIUS_KM)) ** 2 * (1 - _H_MARGIN)
        height = math.degrees(2 * math.asin(math.sqrt(s2 / 2))) - 2 * _EDGE_DEG
        south = math.floor(lat / height) * height
        phi_min = max(min(abs(south), abs(south + height)) - _EDGE_DEG, 0.0)
        t = math.sqrt(s2 / 2) / math.cos(math.radians(phi_min))
        width = 360.0 / math.ceil(360.0 / (math.degrees(2 * math.asin(t)) - 2 * _EDGE_DEG))
        west = -180.0 + math.floor((lon + 180.0) / width) * width
        inset_lat, inset_lon = 1e-9 * height, 1e-9 * width
        points = [
            GeoPoint(a, b)
            for a in (south + inset_lat, south + height - inset_lat)
            for b in (west + inset_lon, west + width - inset_lon)
        ]
        x = points_array(points)
        assert _grid(x, _h_eps(eps))[1].tolist() == [0, 4]  # one cell
        d = haversine_to_many(x, x[:, 0], x[:, 1])
        assert (d <= eps).all()
        assert d.max() > 0.99 * eps
        assert self.assert_oracle(points, eps, 4).tolist() == [0, 0, 0, 0]


@st.composite
def touch_instances(draw):
    """Two disks of 1-300 points each, the gap between the disks drawn around eps, rows shuffled."""
    eps = draw(st.sampled_from([0.5, 5.0, 50.0]))
    sizes = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    radii = eps * draw(st.floats(0.0, 2.0)), eps * draw(st.floats(0.0, 2.0))
    gap = eps * draw(st.floats(0.5, 1.5))
    lat0, lon0, bearing = draw(st.floats(-70, 70)), draw(st.floats(-170, 170)), draw(st.floats(0, 2 * math.pi))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for centre_km, size, radius in zip((0.0, radii[0] + radii[1] + gap), sizes, radii):
        angle, r = rng.uniform(0, 2 * math.pi, size), radius * np.sqrt(rng.uniform(0, 1, size))
        north = centre_km * math.cos(bearing) + r * np.cos(angle)
        east = centre_km * math.sin(bearing) + r * np.sin(angle)
        rows.append(np.c_[lat0 + north / KM_PER_DEG, lon0 + east / (KM_PER_DEG * math.cos(math.radians(lat0)))])
    order = rng.permutation(sizes[0] + sizes[1])
    x = np.concatenate(rows)[order]
    return x, np.flatnonzero(order < sizes[0]), np.flatnonzero(order >= sizes[0]), eps, draw(st.sampled_from([7, None]))


class TestTouch:
    """The core-pair test of the union-find equals the any() of the full eps block, either way round."""

    @staticmethod
    def assert_block_any(x, p, q, eps, block=None):
        h_eps = _h_eps(eps)
        expected = bool((haversine_h(x[p], x[q, 0], x[q, 1]) <= h_eps).any())
        with mock.patch.object(clustering, "_BLOCK", block or clustering._BLOCK):
            assert _touch(x, p, q, h_eps) == expected
            assert _touch(x, q, p, h_eps) == expected
        return expected

    @settings(max_examples=200, deadline=None)
    @given(touch_instances())
    def test_equals_the_full_block(self, instance):
        self.assert_block_any(*instance)

    @pytest.mark.parametrize("block", [7, None])
    def test_probe_row_misses_and_the_last_point_touches(self, block):
        # The larger set walks in along a meridian: its first point, the probe
        # row, is 20 km from every point of the smaller set, its last 4.5 km.
        q_km, p_km = [0.0, 0.1, 0.2], [-20.0, -15.0, -10.0, -7.0, -4.5]
        x = np.array([(6.2 + km / KM_PER_DEG, -75.5) for km in q_km + p_km])
        q, p = np.arange(3), np.arange(3, 8)
        assert (haversine_to_many(x[p[:1]], x[q, 0], x[q, 1]) > 19.0).all()
        assert self.assert_block_any(x, p, q, 5.0, block)


class TestDbscanWork:
    """Counted work: ``haversine_h`` calls and the h values they compute, which wall-time noise does not move."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]

        def counted(*args):
            count[0] += 1
            return haversine_h(*args)

        monkeypatch.setattr(clustering, "haversine_h", counted)
        return count

    def test_cells_alone_in_reach_compute_no_distance(self, calls):
        # 11 km apart with eps 5 km: every point is a cell with no other cell in reach.
        lattice = [GeoPoint(5.9 + 0.1 * i, -75.8 + 0.1 * j) for i in range(8) for j in range(8)][:50]
        labeling = dbscan(lattice, DbscanConfig(eps_km=5.0, min_pts=5))
        assert labeling.labels.tolist() == [NOISE] * 50
        assert calls[0] == 0

    def test_criterion_3_blobs_call_bound(self, calls):
        from .conftest import sample_centers_in_box

        points = make_blobs(sample_centers_in_box(10, seed=42), sigma=0.01, n_per=60, seed=7)
        dbscan(points, DbscanConfig(eps_km=5.0, min_pts=5))
        assert calls[0] <= 70  # measured when the border labels moved into the count pass

    @pytest.fixture
    def distances(self, monkeypatch):
        count = [0]

        def counted(*args):
            block = haversine_h(*args)
            count[0] += block.size
            return block

        monkeypatch.setattr(clustering, "haversine_h", counted)
        return count

    @pytest.mark.parametrize("n_per, n_uniform, bound", [(60, 0, 4_173), (600, 600, 158_685)])
    def test_criterion_3_blobs_distance_bound(self, distances, n_per, n_uniform, bound):
        # The union-find's core-pair test probes one row before the full block.
        from .conftest import sample_centers_in_box

        points = make_blobs(sample_centers_in_box(10, seed=42), sigma=0.01, n_per=n_per, seed=7)
        rng = np.random.default_rng(9)
        lats, lons = rng.uniform(5.90, 6.60, n_uniform), rng.uniform(-75.80, -75.10, n_uniform)
        points += [GeoPoint(lat, lon) for lat, lon in zip(lats, lons)]
        dbscan(points, DbscanConfig(eps_km=5.0, min_pts=5))
        assert distances[0] <= bound  # measured with the probe row


class TestKmeansWork:
    """Counted work of one ``kmeans(k=10)``: Lloyd passes and the distance cells they compute."""

    @pytest.fixture
    def work(self, monkeypatch):
        count = {"passes": 0, "cells": 0}
        assign = clustering._assign

        def counted(cols, centers):
            count["passes"] += 1
            count["cells"] += centers.shape[0] * cols.shape[1]
            return assign(cols, centers)

        monkeypatch.setattr(clustering, "_assign", counted)
        return count

    @pytest.mark.parametrize("n_per, passes, cells", [(60, 31, 61_180), (600, 56, 701_210)])
    def test_criterion_3_blobs(self, work, n_per, passes, cells):
        # No cluster empties on these blobs, so each pass makes one _assign call.
        from .conftest import sample_centers_in_box

        points = make_blobs(sample_centers_in_box(10, seed=42), sigma=0.01, n_per=n_per, seed=7)
        kmeans(points, KMeansConfig(k=10))
        assert work["passes"] == passes  # identical labels make identical passes
        assert work["cells"] <= cells  # measured with the bounds; full passes compute n * 10 per pass


class TestClusterReport:
    def test_full_precision_report(self):
        centroids = [
            GeoPoint(6.152541316281556, -75.35414111056795),
            GeoPoint(6.241243759319632, -75.57945209898037),
        ]
        report = format_cluster_report(centroids)
        lines = report.splitlines()
        assert lines[0] == "Cluster centers : 2 centers"
        assert lines[1] == "Cluster 0\t6.152541316281556 -75.35414111056795"
        assert lines[2] == "Cluster 1\t6.241243759319632 -75.57945209898037"
        assert len(lines) == len(centroids) + 1


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: KMeansConfig(k=0), "k must be positive, got 0"),
        (lambda: KMeansConfig(k=2, max_iterations=0), "max_iterations and restarts must be positive"),
        (lambda: KMeansConfig(k=2, restarts=0), "max_iterations and restarts must be positive"),
        (lambda: KMeansConfig(k=2, seed=-1), "seed must be a non-negative integer, got -1"),
        (lambda: XMeansConfig(k_min=0, k_max=3), "k_min must be positive, got 0"),
        (lambda: DbscanConfig(min_pts=0), "min_pts must be positive, got 0"),
    ],
    ids=["k", "max-iterations", "restarts", "seed", "k-min", "min-pts"],
)
def test_config_rejections_are_named(build, message):
    with pytest.raises(ConfigError) as excinfo:
        build()
    assert str(excinfo.value) == message
