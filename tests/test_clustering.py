import numpy as np
import pytest

from geozones.clustering import (
    NOISE,
    DbscanConfig,
    KMeansConfig,
    XMeansConfig,
    _bic,
    _lloyd,
    dbscan,
    format_cluster_report,
    kmeans,
    points_array,
    xmeans,
)
from geozones.errors import ConfigError, CoordinateError
from geozones.geo import GeoPoint

from .conftest import BUG_POINT, make_blobs
from .oracles import brute_force_dbscan, brute_force_min_wcss, kahan_mean, reference_bic


def grid_points(n, seed):
    rng = np.random.default_rng(seed)
    return [GeoPoint(lat, lon) for lat, lon in zip(rng.uniform(-60, 60, n), rng.uniform(-170, 170, n))]


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
