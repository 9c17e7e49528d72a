import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geozones.errors import CoordinateError
from geozones.geo import (
    EARTH_RADIUS_KM,
    GeoPoint,
    destination_point,
    haversine_distance,
    haversine_to_many,
)

from .oracles import slc_distance_km

finite_lat = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
finite_lon = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
geopoints = st.builds(GeoPoint, finite_lat, finite_lon)


class TestGeoPoint:
    def test_valid_point(self):
        p = GeoPoint(6.2412, -75.5795)
        assert p.lat_deg == 6.2412
        assert p.lon_deg == -75.5795

    @pytest.mark.parametrize(
        "lat,lon",
        [(95.0, 0.0), (-91.0, 0.0), (0.0, 181.0), (0.0, -180.5), (float("nan"), 0.0), (0.0, float("inf"))],
    )
    def test_invalid_coordinates_rejected(self, lat, lon):
        with pytest.raises(CoordinateError):
            GeoPoint(lat, lon)

    def test_boundary_coordinates_accepted(self):
        GeoPoint(90.0, 180.0)
        GeoPoint(-90.0, -180.0)

    def test_unpacks_as_lat_lon(self):
        lat, lon = GeoPoint(6.2412, -75.5795)
        assert (lat, lon) == (6.2412, -75.5795)


class TestHaversineDistance:
    def test_reference_cluster_radius(self):
        # Reported coverage radius 3.622 km; must agree within 1%.
        d = haversine_distance(GeoPoint(6.2412, -75.5795), GeoPoint(6.273949, -75.57941))
        assert abs(d - 3.622) / 3.622 <= 0.01

    def test_mean_to_distant_pair(self):
        # Frozen from the 50-digit spherical-law-of-cosines oracle. The
        # historically reported 2.855 km for this pair is not reproducible.
        d = haversine_distance(GeoPoint(6.18991, -75.58002), GeoPoint(6.354782, -75.49676))
        assert d == pytest.approx(20.513053735913155, abs=1e-9)

    def test_identity(self):
        p = GeoPoint(6.2412, -75.5795)
        assert haversine_distance(p, p) == 0.0

    def test_half_great_circle(self):
        d = haversine_distance(GeoPoint(0, 0), GeoPoint(0, 180))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_KM, rel=1e-12)

    @given(a=geopoints, b=geopoints)
    @example(a=GeoPoint(6.2412, -75.5795), b=GeoPoint(6.2412, -75.5795))
    @example(a=GeoPoint(0.0, 0.0), b=GeoPoint(0.0, 180.0))
    @example(a=GeoPoint(-90.0, 0.0), b=GeoPoint(90.0, 0.0))
    def test_pairs_equal_points_bit_for_bit(self, a, b):
        # A (lat, lon) tuple and a list row take the same float operations as the points.
        got = haversine_distance((a.lat_deg, a.lon_deg), [b.lat_deg, b.lon_deg])
        assert got.hex() == haversine_distance(a, b).hex()

    @given(a=geopoints, b=geopoints)
    def test_symmetry(self, a, b):
        assert haversine_distance(a, b) == haversine_distance(b, a)

    @given(p=geopoints)
    def test_self_distance_zero(self, p):
        assert haversine_distance(p, p) == 0.0

    @given(a=geopoints, b=geopoints)
    def test_range(self, a, b):
        d = haversine_distance(a, b)
        assert 0.0 <= d <= math.pi * EARTH_RADIUS_KM * (1 + 1e-12)

    @given(a=geopoints, b=geopoints, c=geopoints)
    def test_triangle_inequality(self, a, b, c):
        ab = haversine_distance(a, b)
        bc = haversine_distance(b, c)
        ac = haversine_distance(a, c)
        assert ac <= ab + bc + 1e-9 * max(1.0, ac)

    def test_oracle_agreement_random_pairs(self):
        # 10^4 random pairs against the high-precision independent oracle,
        # 1e-6 km tolerance for separations of at least one meter.
        rng = np.random.default_rng(20240817)
        checked = 0
        while checked < 10_000:
            lat1, lat2 = rng.uniform(-89, 89, 2)
            lon1, lon2 = rng.uniform(-180, 180, 2)
            a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
            expected = slc_distance_km(a, b)
            if expected < 1e-3:
                continue
            assert haversine_distance(a, b) == pytest.approx(expected, abs=1e-6)
            checked += 1

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(3)
        lats = rng.uniform(-80, 80, 50)
        lons = rng.uniform(-179, 179, 50)
        origin = GeoPoint(6.0, -75.0)
        batch = haversine_to_many(origin, lats, lons)
        for i in range(50):
            single = haversine_distance(origin, GeoPoint(lats[i], lons[i]))
            assert batch[i] == pytest.approx(single, rel=1e-12)


    def test_block_origin_equals_stacked_point_calls(self):
        rng = np.random.default_rng(17)
        origins = np.c_[rng.uniform(-90, 90, 40), rng.uniform(-180, 180, 40)]
        lats, lons = rng.uniform(-90, 90, 300), rng.uniform(-180, 180, 300)
        block = haversine_to_many(origins, lats, lons)
        stacked = np.array([haversine_to_many(GeoPoint(lat, lon), lats, lons) for lat, lon in origins])
        assert block.shape == (40, 300)
        assert np.array_equal(block, stacked)

    @settings(max_examples=200)
    @given(st.lists(st.tuples(finite_lat, finite_lon), min_size=1, max_size=30))
    def test_block_is_symmetric(self, rows):
        x = np.array(rows)
        block = haversine_to_many(x, x[:, 0], x[:, 1])
        assert np.array_equal(block, block.T)

class TestDestinationPoint:
    def test_one_degree_north(self):
        p = destination_point(GeoPoint(0, 0), 0.0, 111.19493)
        assert p.lat_deg == pytest.approx(1.0, abs=1e-6)
        assert p.lon_deg == pytest.approx(0.0, abs=1e-6)

    def test_one_degree_east(self):
        p = destination_point(GeoPoint(0, 0), 90.0, 111.19493)
        assert p.lat_deg == pytest.approx(0.0, abs=1e-6)
        assert p.lon_deg == pytest.approx(1.0, abs=1e-6)

    def test_zero_distance_identity(self):
        c = GeoPoint(6.25, -75.57)
        assert destination_point(c, 123.4, 0.0) == c

    def test_bearing_wraps_mod_360(self):
        c = GeoPoint(6.25, -75.57)
        p1 = destination_point(c, 45.0, 10.0)
        p2 = destination_point(c, 45.0 + 360.0, 10.0)
        assert p1 == p2

    def test_longitude_normalized(self):
        p = destination_point(GeoPoint(0, 179.5), 90.0, 200.0)
        assert -180.0 <= p.lon_deg <= 180.0

    def test_negative_distance_rejected(self):
        with pytest.raises(CoordinateError):
            destination_point(GeoPoint(0, 0), 0.0, -1.0)

    @settings(max_examples=200)
    @given(
        center=st.builds(GeoPoint, st.floats(-89, 89), finite_lon),
        bearing=st.floats(min_value=0, max_value=360, exclude_max=True),
        radius=st.floats(min_value=1e-3, max_value=1000),
    )
    def test_round_trip_distance(self, center, bearing, radius):
        # Radii start at 1 mm: below that, float64 cannot represent the
        # displacement against unit-scale trig terms at the 1e-6 bound.
        dest = destination_point(center, bearing, radius)
        d = haversine_distance(center, dest)
        assert abs(d - radius) / max(radius, 1e-9) <= 1e-6
