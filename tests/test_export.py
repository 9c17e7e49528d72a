import errno
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geozones import export
from geozones.corpus import CorpusRecord, KeywordQuery, filter_keywords
from geozones.coverage import CoverageSummary, coverage_circle
from geozones.errors import StorageError
from geozones.export import export_geojson, write_geojson
from geozones.geo import GeoPoint

from . import reference
from .conftest import columns
from .geojson_schema import validate_geojson

CLUSTER2_CENTROID = GeoPoint(6.241243759319632, -75.57945209898037)
TERMS = ("Medellín", "Fiesta", "4sq.com")


def summary_for(cid, centroid, distant, radius):
    return CoverageSummary(
        cluster_id=cid,
        point_of_means=centroid,
        distant_point=distant,
        radius_km=radius,
    )


def make_outputs(terms=()):
    s0 = summary_for(0, GeoPoint(6.15, -75.35), GeoPoint(6.16, -75.35), 1.2)
    s1 = summary_for(1, CLUSTER2_CENTROID, GeoPoint(6.273949, -75.57941), 3.622)
    zones = [(s, coverage_circle(s.point_of_means, s.radius_km, vertex_count=16)) for s in (s0, s1)]
    labels = np.array([0, 1, 0])
    members = columns(
        [
            CorpusRecord(GeoPoint(6.16, -75.35), "gran fiesta", "tweet", 0),
            CorpusRecord(GeoPoint(6.24, -75.58), "I'm at 4sq.com/x", "tweet", 1),
            CorpusRecord(GeoPoint(6.15, -75.34), "medellin", "photo", 2),
        ],
        terms,
    )
    return zones, labels, members


class TestExportGeojson:
    def test_feature_order_and_counts(self):
        zones, labels, members = make_outputs()
        doc = export_geojson(zones, labels, members, include_members=True)
        kinds = [f["geometry"]["type"] for f in doc["features"]]
        assert kinds == ["Point", "Point", "Polygon", "Polygon", "Point", "Point", "Point"]
        assert [f["properties"]["cluster_id"] for f in doc["features"][:2]] == [0, 1]
        assert [f["properties"]["cluster_id"] for f in doc["features"][2:4]] == [0, 1]
        # Member features stay in corpus order, not cluster order.
        assert [f["properties"]["cluster_id"] for f in doc["features"][4:]] == [0, 1, 0]

    def test_members_excluded_by_default(self):
        zones, labels, members = make_outputs()
        doc = export_geojson(zones, labels, members)
        assert len(doc["features"]) == 4

    def test_centroid_coordinates_lon_lat_full_precision(self):
        zones, labels, members = make_outputs()
        doc = export_geojson(zones, labels, members)
        assert doc["features"][1]["geometry"]["coordinates"] == [
            -75.57945209898037,
            6.241243759319632,
        ]

    def test_counts_and_terms_properties(self):
        zones, labels, members = make_outputs(TERMS)
        doc = export_geojson(zones, labels, members, query_terms=TERMS)
        props0 = doc["features"][0]["properties"]
        props1 = doc["features"][1]["properties"]
        assert props0["member_count"] == 2
        assert props1["member_count"] == 1
        assert props0["top_terms"] == ["Fiesta", "Medellín"]
        assert props1["top_terms"] == ["4sq.com"]
        assert props1["radius_km"] == 3.622

    def test_top_terms_folded_from_the_keyword_filter_and_alphabetical(self):
        # The hits come from the one matcher; the zone names each term once, sorted.
        texts = ["fiesta grande", "en MEDELLIN", "FIESTA"]
        records = [CorpusRecord(GeoPoint(6.2, -75.5), text, "tweet", i) for i, text in enumerate(texts)]
        members = filter_keywords(columns(records), KeywordQuery(terms=TERMS))
        zone = summary_for(0, GeoPoint(6.2, -75.5), GeoPoint(6.2, -75.5), 0.0)
        doc = export_geojson([(zone, [zone.point_of_means] * 4)], [0, 0, 0], members, query_terms=TERMS)
        assert doc["features"][0]["properties"]["top_terms"] == ["Fiesta", "Medellín"]
        assert doc["features"][0]["properties"]["member_count"] == 3

    def test_top_terms_empty_when_no_member_holds_a_term(self):
        members = columns([CorpusRecord(GeoPoint(6.2, -75.5), "nada", "tweet", 0)], ("Fiesta",))
        zone = summary_for(0, GeoPoint(6.2, -75.5), GeoPoint(6.2, -75.5), 0.0)
        doc = export_geojson([(zone, [zone.point_of_means] * 4)], [0], members, query_terms=("Fiesta",))
        assert doc["features"][0]["properties"]["top_terms"] == []
        assert doc["features"][0]["properties"]["member_count"] == 1

    def test_zone_without_members(self):
        zones, labels, members = make_outputs(TERMS)
        doc = export_geojson(zones, np.zeros_like(labels), members, query_terms=TERMS)
        props1 = doc["features"][1]["properties"]
        assert (props1["member_count"], props1["top_terms"]) == (0, [])

    @pytest.mark.parametrize("terms, query_terms", [((), TERMS), (TERMS, ()), (TERMS, TERMS[:2])])
    def test_hits_width_other_than_query_terms_rejected(self, terms, query_terms):
        zones, labels, members = make_outputs(terms)
        with pytest.raises(ValueError, match=f"hits cover {len(terms)} query terms, got {len(query_terms)}"):
            export_geojson(zones, labels, members, query_terms=query_terms)

    def test_no_clusters(self):
        doc = export_geojson([], [], columns([]))
        assert doc == {"type": "FeatureCollection", "features": []}

    def test_mismatched_lengths_rejected(self):
        zones, labels, members = make_outputs()
        with pytest.raises(ValueError, match="labels cover 2 members, got 3"):
            export_geojson(zones, labels[:2], members)

    def test_validates_against_independent_schema(self):
        zones, labels, members = make_outputs()
        doc = export_geojson(zones, labels, members, include_members=True)
        validate_geojson(doc)

    def test_rings_closed(self):
        zones, labels, members = make_outputs()
        doc = export_geojson(zones, labels, members)
        for feature in doc["features"]:
            if feature["geometry"]["type"] == "Polygon":
                ring = feature["geometry"]["coordinates"][0]
                assert ring[0] == ring[-1]
                assert len(ring) == 17

    def test_round_trip_precision_through_file(self, tmp_path):
        zones, labels, members = make_outputs()
        doc = export_geojson(zones, labels, members)
        path = tmp_path / "zones.geojson"
        write_geojson(doc, path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == doc


EMPTY = {"type": "FeatureCollection", "features": []}


class TestWriteGeojson:
    def test_fsyncs_temp_file_then_replaces_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "zones.geojson"
        path.write_text("old\n", encoding="utf-8")
        calls = []
        real_fsync, real_replace = export.os.fsync, export.os.replace

        def fsync(fd):
            calls.append("fsync")
            real_fsync(fd)

        def replace(src, dst):
            calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(export.os, "fsync", fsync)
        monkeypatch.setattr(export.os, "replace", replace)
        write_geojson(EMPTY, path)
        assert calls == ["fsync", "replace"]
        assert json.loads(path.read_text(encoding="utf-8")) == EMPTY
        assert [p.name for p in tmp_path.iterdir()] == ["zones.geojson"]

    def test_failed_replace_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "zones.geojson"
        path.write_text("old\n", encoding="utf-8")

        def fail(src, dst):
            raise OSError(errno.EIO, "Input/output error")

        monkeypatch.setattr(export.os, "replace", fail)
        with pytest.raises(StorageError, match=re.escape(f"cannot write {path}: Input/output error")):
            write_geojson(EMPTY, path)
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["zones.geojson"]


# Cluster ids 0..4; a zone is drawn for some of them, so zones without
# members and members without a zone both occur.
CLUSTER_IDS = st.integers(min_value=0, max_value=4)
POINTS = st.builds(GeoPoint, st.floats(-90, 90), st.floats(-180, 180))
# Case-variant terms, accented and not; a query draws them with repeats, or
# takes all of them in a shuffled order.
TERM_LIST = ["Medellín", "medellin", "MEDELLÍN", "Fiesta", "fiesta", "4sq.com", "ß", "ﬁ"]
QUERY_TERMS = st.lists(st.sampled_from(TERM_LIST), max_size=5).map(tuple) | st.permutations(TERM_LIST).map(tuple)
# ASCII and non-ASCII texts: a third hold several of the terms, so top_terms
# often has more than one to order.
TEXTS = (
    st.sampled_from(["gran fiesta en Medellín", "MEDELLIN 4sq.com/x", "Fiesta Medellín 4sq.com ß", "ﬁesta ß"])
    | st.sampled_from(["ﬁesta", "straße", "Medelli\u0301n", "otro", ""])
    | st.text(max_size=8)
)


@st.composite
def zone_sets(draw):
    """(summary, ring) pairs ascending by cluster id, as the pipeline builds them."""
    zones = []
    for cid in sorted(draw(st.sets(CLUSTER_IDS, max_size=4))):
        summary = CoverageSummary(
            cluster_id=cid,
            point_of_means=draw(POINTS),
            distant_point=draw(POINTS),
            radius_km=draw(st.floats(0, 20_000)),
        )
        ring = draw(st.lists(POINTS, min_size=1, max_size=5))
        zones.append((summary, ring + ring[:1]))
    return zones


RECORDS = st.builds(CorpusRecord, POINTS, TEXTS, st.sampled_from(["tweet", "photo"]), st.integers(0, 9))
MEMBERS = st.lists(st.tuples(CLUSTER_IDS, RECORDS), max_size=12)


class TestExportReference:
    """export_geojson on labels plus columns against the reference on (cluster id, record) pairs, byte for byte."""

    @settings(max_examples=120, deadline=None)
    @given(
        zones=zone_sets(),
        members=MEMBERS,
        include_members=st.booleans(),
        query_terms=QUERY_TERMS,
    )
    def test_equals_reference_bytes(self, zones, members, include_members, query_terms):
        labels = np.array([cid for cid, _ in members], dtype=np.intp)
        rows = columns([record for _, record in members], query_terms)
        doc = export_geojson(zones, labels, rows, include_members=include_members, query_terms=query_terms)
        expected = reference.export_geojson(zones, members, include_members=include_members, query_terms=query_terms)
        assert json.dumps(doc, ensure_ascii=False, indent=2) == json.dumps(expected, ensure_ascii=False, indent=2)

