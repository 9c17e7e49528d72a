import json

from geozones.corpus import CorpusRecord
from geozones.coverage import CoverageSummary, coverage_circle
from geozones.export import export_geojson, top_terms, write_geojson
from geozones.geo import GeoPoint

from .geojson_schema import validate_geojson

CLUSTER2_CENTROID = GeoPoint(6.241243759319632, -75.57945209898037)


def summary_for(cid, centroid, distant, radius):
    return CoverageSummary(
        cluster_id=cid,
        point_of_means=centroid,
        distant_point=distant,
        radius_km=radius,
    )


def make_outputs():
    s0 = summary_for(0, GeoPoint(6.15, -75.35), GeoPoint(6.16, -75.35), 1.2)
    s1 = summary_for(1, CLUSTER2_CENTROID, GeoPoint(6.273949, -75.57941), 3.622)
    zones = [(s, coverage_circle(s.point_of_means, s.radius_km, vertex_count=16)) for s in (s0, s1)]
    members = [
        (0, CorpusRecord(GeoPoint(6.16, -75.35), "gran fiesta", "tweet", 0)),
        (1, CorpusRecord(GeoPoint(6.24, -75.58), "I'm at 4sq.com/x", "tweet", 1)),
        (0, CorpusRecord(GeoPoint(6.15, -75.34), "medellin", "photo", 2)),
    ]
    return zones, members


class TestExportGeojson:
    def test_feature_order_and_counts(self):
        zones, members = make_outputs()
        doc = export_geojson(zones, members, include_members=True)
        kinds = [f["geometry"]["type"] for f in doc["features"]]
        assert kinds == ["Point", "Point", "Polygon", "Polygon", "Point", "Point", "Point"]
        assert [f["properties"]["cluster_id"] for f in doc["features"][:2]] == [0, 1]
        assert [f["properties"]["cluster_id"] for f in doc["features"][2:4]] == [0, 1]
        # Member features stay in corpus order, not cluster order.
        assert [f["properties"]["cluster_id"] for f in doc["features"][4:]] == [0, 1, 0]

    def test_members_excluded_by_default(self):
        zones, members = make_outputs()
        doc = export_geojson(zones, members)
        assert len(doc["features"]) == 4

    def test_centroid_coordinates_lon_lat_full_precision(self):
        zones, members = make_outputs()
        doc = export_geojson(zones, members)
        assert doc["features"][1]["geometry"]["coordinates"] == [
            -75.57945209898037,
            6.241243759319632,
        ]

    def test_counts_and_terms_properties(self):
        zones, members = make_outputs()
        doc = export_geojson(zones, members, query_terms=("Medellín", "Fiesta", "4sq.com"))
        props0 = doc["features"][0]["properties"]
        props1 = doc["features"][1]["properties"]
        assert props0["member_count"] == 2
        assert props1["member_count"] == 1
        assert props0["top_terms"] == ["Fiesta", "Medellín"]
        assert props1["top_terms"] == ["4sq.com"]
        assert props1["radius_km"] == 3.622

    def test_no_clusters(self):
        doc = export_geojson([], [])
        assert doc == {"type": "FeatureCollection", "features": []}

    def test_validates_against_independent_schema(self):
        zones, members = make_outputs()
        doc = export_geojson(zones, members, include_members=True)
        validate_geojson(doc)

    def test_rings_closed(self):
        zones, members = make_outputs()
        doc = export_geojson(zones, members)
        for feature in doc["features"]:
            if feature["geometry"]["type"] == "Polygon":
                ring = feature["geometry"]["coordinates"][0]
                assert ring[0] == ring[-1]
                assert len(ring) == 17

    def test_round_trip_precision_through_file(self, tmp_path):
        zones, members = make_outputs()
        doc = export_geojson(zones, members)
        path = tmp_path / "zones.geojson"
        write_geojson(doc, path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == doc


class TestTopTerms:
    def test_alphabetical_and_folded(self):
        texts = ["fiesta grande", "en MEDELLIN"]
        assert top_terms(texts, ("Medellín", "Fiesta", "4sq.com")) == ["Fiesta", "Medellín"]

    def test_no_terms_present(self):
        assert top_terms(["nada"], ("Fiesta",)) == []

    def test_empty_members(self):
        assert top_terms([], ("Fiesta",)) == []
