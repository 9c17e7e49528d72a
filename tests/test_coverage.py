import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geozones.clustering import (
    NOISE,
    DbscanConfig,
    KMeansConfig,
    Labeling,
    XMeansConfig,
    dbscan,
    kmeans,
    points_array,
    xmeans,
)
from geozones.coverage import coverage_circle, point_of_means, summarize
from geozones.errors import ConfigError, CoordinateError
from geozones.geo import GeoPoint, haversine_distance

from . import reference
from .conftest import make_blobs, sample_centers_in_box
from .oracles import kahan_mean, slc_distance_km


def synthetic_cluster_with(mean: GeoPoint, distant: GeoPoint, n_filler_pairs: int, spread: float, seed: int):
    """A member list whose coordinate mean is ``mean`` (to float rounding)
    and whose farthest member is ``distant``.

    The pull of the distant point on the mean is spread as a small common
    offset over many filler pairs, each pair itself symmetric, so no filler
    comes close to the distant point's separation.
    """
    rng = np.random.default_rng(seed)
    m = 2 * n_filler_pairs
    base_lat = mean.lat_deg - (distant.lat_deg - mean.lat_deg) / m
    base_lon = mean.lon_deg - (distant.lon_deg - mean.lon_deg) / m
    members = [distant]
    for _ in range(n_filler_pairs):
        d_lat, d_lon = rng.uniform(-spread, spread, 2)
        members.append(GeoPoint(base_lat + d_lat, base_lon + d_lon))
        members.append(GeoPoint(base_lat - d_lat, base_lon - d_lon))
    return members


def one_cluster_radius(members):
    """(distant point, radius) that ``summarize`` reports when every member is in cluster 0."""
    mean = point_of_means(members)
    labeling = Labeling(
        labels=np.zeros(len(members), dtype=np.intp), centers=np.array([[mean.lat_deg, mean.lon_deg]]), wcss=0.0
    )
    [summary] = summarize(labeling, members)
    return summary.distant_point, summary.radius_km


class TestPointOfMeans:
    def test_two_points(self):
        assert point_of_means([GeoPoint(0, 0), GeoPoint(2, 2)]) == GeoPoint(1, 1)

    def test_singleton(self):
        p = GeoPoint(6.18991, -75.58002)
        assert point_of_means([p]) == p

    def test_against_compensated_oracle(self):
        rng = np.random.default_rng(9)
        points = [GeoPoint(6 + a, -75 + b) for a, b in rng.normal(0, 0.1, (1000, 2))]
        mean = point_of_means(points)
        assert mean.lat_deg == pytest.approx(kahan_mean(p.lat_deg for p in points), abs=1e-12)
        assert mean.lon_deg == pytest.approx(kahan_mean(p.lon_deg for p in points), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            point_of_means([])

    def test_points_rows_and_array_agree(self):
        rng = np.random.default_rng(13)
        points = [GeoPoint(6 + a, -75 + b) for a, b in rng.normal(0, 0.1, (300, 2))]
        x = points_array(points)
        assert point_of_means(points) == point_of_means(x.tolist()) == point_of_means(x)


class TestCoverageRadius:
    def test_reported_cluster_radius_within_one_percent(self):
        mean = GeoPoint(6.2412, -75.5795)
        distant = GeoPoint(6.273949, -75.57941)
        members = synthetic_cluster_with(mean, distant, n_filler_pairs=20, spread=0.005, seed=2)
        got_distant, radius = one_cluster_radius(members)
        assert got_distant == distant
        assert abs(radius - 3.622) / 3.622 <= 0.01

    def test_inconsistent_reported_radius_not_reproduced(self):
        # The distance between this mean/distant pair is ~20.51 km by any
        # spherical formula; the historically reported 2.855 km for it is
        # impossible and deliberately not reproduced.
        mean = GeoPoint(6.18991, -75.58002)
        distant = GeoPoint(6.354782, -75.49676)
        members = synthetic_cluster_with(mean, distant, n_filler_pairs=40, spread=0.02, seed=3)
        _, radius = one_cluster_radius(members)
        assert radius == pytest.approx(slc_distance_km(mean, distant), abs=1e-6)
        assert radius == pytest.approx(20.513053735913155, abs=1e-6)
        assert abs(radius - 2.855) > 17.0

    def test_singleton_radius_zero(self):
        p = GeoPoint(6.2, -75.5)
        distant, radius = one_cluster_radius([p])
        assert distant == p
        assert radius == 0.0

    def test_radius_is_exact_member_maximum(self):
        rng = np.random.default_rng(4)
        members = [GeoPoint(6 + a, -75 + b) for a, b in rng.normal(0, 0.05, (200, 2))]
        distant, radius = one_cluster_radius(members)
        mean = point_of_means(members)
        distances = [haversine_distance(mean, m) for m in members]
        assert radius == max(distances)
        assert distant == members[int(np.argmax(distances))]

    def test_tie_keeps_first_member(self):
        # Equator-symmetric pair: the mean latitude is exactly 0 and both
        # separations reduce to bit-identical trig evaluations.
        pair = [GeoPoint(1.0, -75.0), GeoPoint(-1.0, -75.0)]
        distant, radius = one_cluster_radius(pair)
        assert distant == pair[0]
        assert radius > 0

    def test_interior_point_cannot_grow_radius_beyond_mean_shift(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            members = [GeoPoint(6 + a, -75 + b) for a, b in rng.normal(0, 0.05, (30, 2))]
            _, radius_old = one_cluster_radius(members)
            mean_old = point_of_means(members)
            # A point strictly inside the current circle.
            inner = GeoPoint(mean_old.lat_deg + 1e-4, mean_old.lon_deg - 1e-4)
            assert haversine_distance(mean_old, inner) < radius_old
            grown = members + [inner]
            _, radius_new = one_cluster_radius(grown)
            mean_new = point_of_means(grown)
            shift = haversine_distance(mean_old, mean_new)
            assert radius_new <= radius_old + shift + 1e-9


class TestCoverageCircle:
    def test_zero_radius_collapses_to_center(self):
        center = GeoPoint(6.2, -75.5)
        ring = coverage_circle(center, 0.0, vertex_count=8)
        assert all(v == center for v in ring)
        assert len(ring) == 9

    def test_cardinal_vertices_at_one_degree(self):
        ring = coverage_circle(GeoPoint(0, 0), 111.19493, vertex_count=4)
        north, east, south, west = ring[:4]
        assert (north.lat_deg, north.lon_deg) == (pytest.approx(1.0, abs=1e-6), pytest.approx(0.0, abs=1e-6))
        assert (east.lat_deg, east.lon_deg) == (pytest.approx(0.0, abs=1e-6), pytest.approx(1.0, abs=1e-6))
        assert (south.lat_deg, south.lon_deg) == (pytest.approx(-1.0, abs=1e-6), pytest.approx(0.0, abs=1e-6))
        assert (west.lat_deg, west.lon_deg) == (pytest.approx(0.0, abs=1e-6), pytest.approx(-1.0, abs=1e-6))

    def test_ring_closed_and_sized(self):
        ring = coverage_circle(GeoPoint(6.2, -75.5), 3.622, vertex_count=64)
        assert ring[0] == ring[-1]
        assert len(ring) == 65

    def test_vertices_at_radius_random_circles(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            center = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
            radius = float(rng.uniform(0.001, 1000))
            ring = coverage_circle(center, radius, vertex_count=6)
            for vertex in ring[:-1]:
                d = haversine_distance(center, vertex)
                assert abs(d - radius) / radius <= 1e-6

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ConfigError):
            coverage_circle(GeoPoint(0, 0), 1.0, vertex_count=2)

    @pytest.mark.parametrize("radius", [-1.0, float("nan")])
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(CoordinateError):
            coverage_circle(GeoPoint(0, 0), radius)


class TestSummarize:
    def test_two_cluster_labeling(self):
        points = make_blobs([(6.0, -75.5), (6.4, -75.2)], sigma=0.01, n_per=40, seed=5)
        labeling = kmeans(points, KMeansConfig(k=2, seed=3))
        summaries = summarize(labeling, points)
        assert [s.cluster_id for s in summaries] == [0, 1]
        for s in summaries:
            assert s.point_of_means == s.centroid
            assert s.radius_km == haversine_distance(s.point_of_means, s.distant_point)

    def test_noise_excluded(self):
        mass = make_blobs([(6.2, -75.5)], sigma=0.005, n_per=30, seed=6)
        lonely = GeoPoint(10.0, -75.5)
        labeling = dbscan(mass + [lonely], DbscanConfig(eps_km=20, min_pts=5))
        summaries = summarize(labeling, mass + [lonely])
        assert len(summaries) == 1
        members = [p for p, label in zip(mass + [lonely], labeling.labels) if label == 0]
        assert summaries[0].distant_point in members
        assert lonely != summaries[0].distant_point

    def test_singleton_cluster_radius_zero(self):
        points = [GeoPoint(6.0, -75.5), GeoPoint(6.0001, -75.5001), GeoPoint(6.4, -75.2)]
        labeling = kmeans(points, KMeansConfig(k=2, seed=1))
        summaries = summarize(labeling, points)
        radii = sorted(s.radius_km for s in summaries)
        assert radii[0] >= 0.0

    def test_radii_match_exhaustive_pairwise_oracle(self):
        from .conftest import sample_centers_in_box

        centers = sample_centers_in_box(10, seed=42)
        points = make_blobs(centers, sigma=0.01, n_per=30, seed=8)
        from geozones.clustering import XMeansConfig, xmeans

        labeling = xmeans(points, XMeansConfig(k_min=10, k_max=10))
        summaries = summarize(labeling, points)
        assert len(summaries) == 10
        for s in summaries:
            members = [points[i] for i in np.flatnonzero(labeling.labels == s.cluster_id)]
            mean = GeoPoint(
                kahan_mean(p.lat_deg for p in members),
                kahan_mean(p.lon_deg for p in members),
            )
            best = max(haversine_distance(mean, m) for m in members)
            assert s.radius_km == pytest.approx(best, rel=1e-12)

    def test_cluster_without_members_skipped(self):
        points = [GeoPoint(6.0, -75.5), GeoPoint(6.4, -75.2)]
        labeling = Labeling(
            labels=np.array([0, 2]), centers=np.array([[6.0, -75.5], [6.2, -75.3], [6.4, -75.2]]), wcss=0.0
        )
        summaries = summarize(labeling, points)
        assert [s.cluster_id for s in summaries] == [0, 2]
        assert [s.point_of_means for s in summaries] == points

    def test_mismatched_lengths_rejected(self):
        points = [GeoPoint(0, 0), GeoPoint(1, 1)]
        labeling = kmeans(points, KMeansConfig(k=1))
        with pytest.raises(ValueError):
            summarize(labeling, points[:1])


class TestSummarizeWork:
    """Counted work: summarize reads member rows as floats and builds points only per cluster."""

    POINTS_PER_CLUSTER = 2  # the point of means and the farthest member

    def test_points_built_per_cluster(self, monkeypatch):
        x = points_array(make_blobs(sample_centers_in_box(10, seed=42), sigma=0.01, n_per=40, seed=7))
        labeling = xmeans(x, XMeansConfig(k_min=10, k_max=10))
        post_init, built = GeoPoint.__post_init__, []

        def counting_post_init(point):
            built.append(point)
            post_init(point)

        monkeypatch.setattr(GeoPoint, "__post_init__", counting_post_init)
        summaries = summarize(labeling, x)
        assert len(summaries) == 10
        assert len(built) <= self.POINTS_PER_CLUSTER * len(summaries)


def labeled(groups, noise=()):
    """(labeling, points) with group i as cluster i, followed by ``noise`` labeled NOISE."""
    rows = [(cid, p) for cid, group in enumerate(groups) for p in group] + [(NOISE, p) for p in noise]
    labels = np.array([cid for cid, _ in rows], dtype=np.intp)
    labeling = Labeling(labels=labels, centers=np.zeros((len(groups), 2)), wcss=0.0)
    return labeling, [p for _, p in rows]


ANY_POINT = st.builds(GeoPoint, st.floats(-90, 90), st.floats(-180, 180))
# Multiples of 1/64 degree: sums and means of these are exact, so the two
# points of a pair mirrored in longitude about the mean lie at bit-equal
# distances from it.
DYADIC_LAT = st.integers(-80 * 64, 80 * 64).map(lambda i: i / 64)
DYADIC_LON = st.integers(-170 * 64, 170 * 64).map(lambda i: i / 64)
OFFSETS = st.lists(st.integers(1, 10 * 64).map(lambda i: i / 64), min_size=1, max_size=3)


@st.composite
def cluster_groups(draw):
    """One cluster's members: none, arbitrary points with duplicates, or mirrored pairs."""
    kind = draw(st.sampled_from(["empty", "arbitrary", "mirrored"]))
    if kind == "empty":
        return []
    if kind == "arbitrary":
        points = draw(st.lists(ANY_POINT, min_size=1, max_size=6))
        return points + draw(st.lists(st.sampled_from(points), max_size=3))
    lat, lon = draw(DYADIC_LAT), draw(DYADIC_LON)
    return [GeoPoint(lat, lon + sign * d) for d in draw(OFFSETS) for sign in (-1, 1)]


@st.composite
def labelings(draw):
    """(labeling, points): up to four clusters plus some noise, rows shuffled."""
    groups = draw(st.lists(cluster_groups(), min_size=1, max_size=4))
    labeling, points = labeled(groups, noise=draw(st.lists(ANY_POINT, max_size=2)))
    order = draw(st.permutations(range(len(points))))
    shuffled = Labeling(labels=labeling.labels[order], centers=labeling.centers, wcss=0.0)
    return shuffled, [points[i] for i in order]


class TestSummarizeReference:
    """summarize against the GeoPoint form frozen in tests/reference.py, field for field."""

    @pytest.mark.parametrize("as_array", [False, True], ids=["points", "array"])
    @settings(max_examples=150, deadline=None)
    @given(case=labelings())
    # Plain left-to-right summation rounds this mean differently.
    @example(case=labeled([[GeoPoint(0.1, 0.0), GeoPoint(0.2, 0.0), GeoPoint(0.3, 0.0)]]))
    # The vectorized haversine rounds this radius differently.
    @example(case=labeled([[GeoPoint(2.1042, 161.266), GeoPoint(-63.3396, 160.6165)]]))
    # An exact tie between a mirrored pair, which keeps the first; cluster 1 has no members.
    @example(case=labeled([[GeoPoint(6.25, -75.5), GeoPoint(6.25, -75.25)], [], [GeoPoint(1.0, 2.0)]]))
    def test_equals_reference(self, as_array, case):
        labeling, points = case
        got = summarize(labeling, points_array(points) if as_array else points)
        expected = reference.summarize(labeling, points)
        assert list(map(repr, got)) == list(map(repr, expected))
