import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geozones.corpus import (
    DEFAULT_STUDY_AREA,
    BoundingBox,
    CorpusRecord,
    KeywordQuery,
    dedupe,
    filter_bbox,
    filter_keywords,
    fold_text,
    normalize,
)
from geozones.errors import ConfigError
from geozones.geo import GeoPoint
from geozones.store import StoredDocument

from .conftest import BUG_POINT
from .oracles import kahan_mean


def record(lat, lon, text="hola", origin="tweet", doc_id=0):
    return CorpusRecord(position=GeoPoint(lat, lon), text=text, origin=origin, source_doc_id=doc_id)


record_strategy = st.builds(
    record,
    lat=st.floats(min_value=-90, max_value=90, allow_nan=False),
    lon=st.floats(min_value=-180, max_value=180, allow_nan=False),
    text=st.sampled_from(["", "fiesta", "Medellín", "4sq.com/x", "otro"]),
    origin=st.sampled_from(["tweet", "photo"]),
    doc_id=st.integers(min_value=0, max_value=5),
)


class TestNormalize:
    def test_geotagged_tweet(self):
        doc = StoredDocument(
            collection="tweet",
            body={
                "coordinates": {
                    "coordinates": {"latitude": 6.2445419, "longitude": -75.6011771},
                    "type": "Point",
                },
                "source": "app",
                "text": "La distribución de par",
            },
            doc_id=7,
        )
        rec = normalize(doc)
        assert rec.position == GeoPoint(6.2445419, -75.6011771)
        assert rec.text == "La distribución de par"
        assert rec.origin == "tweet"
        assert rec.source_doc_id == 7

    def test_untagged_tweet_dropped(self):
        doc = StoredDocument(
            collection="tweet",
            body={"coordinates": None, "source": "app", "text": "x"},
            doc_id=0,
        )
        assert normalize(doc) is None

    def test_photo_uses_name_as_text(self):
        doc = StoredDocument(
            collection="photo",
            body={"geo": {"latitude": 6.1, "longitude": -75.3, "accuracy": 6}, "name": "mirador"},
            doc_id=3,
        )
        rec = normalize(doc)
        assert rec.origin == "photo"
        assert rec.text == "mirador"
        assert rec.position == GeoPoint(6.1, -75.3)


class TestFilterKeywords:
    def test_url_fragment_matches_inside_url(self):
        records = [record(6.2, -75.5, text="FOURSQUARE: I'm at C… 4sq.com/x")]
        query = KeywordQuery(terms=("4sq.com",))
        assert filter_keywords(records, query) == records

    def test_accent_folding(self):
        records = [record(6.2, -75.5, text="medellin es linda")]
        query = KeywordQuery(terms=("Medellín",))
        assert filter_keywords(records, query) == records

    def test_case_insensitive(self):
        records = [record(6.2, -75.5, text="GRAN FIESTA")]
        assert filter_keywords(records, KeywordQuery(terms=("fiesta",))) == records

    def test_empty_input(self):
        assert filter_keywords([], KeywordQuery(terms=("x",))) == []

    def test_any_vs_all_modes(self):
        records = [
            record(6.2, -75.5, text="fiesta en medellín"),
            record(6.3, -75.6, text="solo fiesta"),
        ]
        any_query = KeywordQuery(terms=("fiesta", "medellín"), mode="any")
        all_query = KeywordQuery(terms=("fiesta", "medellín"), mode="all")
        assert filter_keywords(records, any_query) == records
        assert filter_keywords(records, all_query) == records[:1]

    def test_empty_term_list_rejected(self):
        with pytest.raises(ConfigError):
            KeywordQuery(terms=())

    def test_blank_term_rejected(self):
        with pytest.raises(ConfigError):
            KeywordQuery(terms=("  ",))

    @pytest.mark.parametrize("term", ["\u0301", " \u0301\u0308 "], ids=["acute", "marks-and-spaces"])
    def test_term_of_combining_marks_rejected(self, term):
        # fold_text strips combining marks, so such a term would match every text.
        with pytest.raises(ConfigError):
            KeywordQuery(terms=("fiesta", term))

    @given(records=st.lists(record_strategy, max_size=30))
    def test_subset_and_order_preserving(self, records):
        kept = filter_keywords(records, KeywordQuery(terms=("fiesta", "4sq.com")))
        # Subsequence check by object identity (records may be duplicated).
        remaining = iter(map(id, records))
        assert all(id(r) in remaining for r in kept)

    def test_folding_examples(self):
        assert fold_text("Medellín") == "medellin"
        assert fold_text("FIESTA") == "fiesta"
        assert fold_text("ñoño") == "nono"


class TestFilterBbox:
    def test_mislocated_point_purged(self):
        inside_rec = record(6.2, -75.5)
        outside_rec = record(BUG_POINT.lat_deg, BUG_POINT.lon_deg)
        inside, purged = filter_bbox([inside_rec, outside_rec], DEFAULT_STUDY_AREA)
        assert inside == [inside_rec]
        assert purged == [outside_rec]

    def test_boundary_point_is_inside(self):
        box = BoundingBox(min_lat=5.9, max_lat=6.6, min_lon=-75.8, max_lon=-75.1)
        boundary = record(5.9, -75.8)
        inside, purged = filter_bbox([boundary], box)
        assert inside == [boundary]
        assert purged == []

    def test_empty_input(self):
        assert filter_bbox([], DEFAULT_STUDY_AREA) == ([], [])

    def test_degenerate_box_rejected(self):
        with pytest.raises(ConfigError):
            BoundingBox(min_lat=7, max_lat=6, min_lon=0, max_lon=1)

    @pytest.mark.parametrize("nan_at", range(4))
    def test_nan_bound_rejected(self, nan_at):
        bounds = [6.0, 7.0, -76.0, -75.0]
        bounds[nan_at] = float("nan")
        with pytest.raises(ConfigError):
            BoundingBox(*bounds)

    def test_infinite_bounds_cover_the_world(self):
        box = BoundingBox(-math.inf, math.inf, -math.inf, math.inf)
        assert box.contains(GeoPoint(-90, 180))

    @given(records=st.lists(record_strategy, max_size=40))
    def test_partition_is_exact(self, records):
        inside, purged = filter_bbox(records, DEFAULT_STUDY_AREA)
        assert len(inside) + len(purged) == len(records)
        assert sorted(map(id, inside + purged)) == sorted(map(id, records))
        for r in inside:
            assert DEFAULT_STUDY_AREA.contains(r.position)
        for r in purged:
            assert not DEFAULT_STUDY_AREA.contains(r.position)


class TestDedupe:
    def test_same_position_different_text_both_kept(self):
        one = record(6.2445419, -75.6011771, text="La distribución de par")
        two = record(6.2445419, -75.6011771, text="FOURSQUARE: I'm at C")
        assert dedupe([one, two]) == [one, two]

    def test_exact_duplicates_collapse(self):
        one = record(6.2, -75.5, text="igual", doc_id=0)
        two = record(6.2, -75.5, text="igual", doc_id=1)
        assert dedupe([one, two]) == [one]

    @given(records=st.lists(record_strategy, max_size=40))
    def test_matches_set_construction_oracle(self, records):
        deduped = dedupe(records)
        keys = [(r.position.lat_deg, r.position.lon_deg, r.text, r.origin) for r in deduped]
        expected = set(
            (r.position.lat_deg, r.position.lon_deg, r.text, r.origin) for r in records
        )
        assert set(keys) == expected
        assert len(keys) == len(expected)

    @given(records=st.lists(record_strategy, max_size=40))
    def test_idempotent(self, records):
        once = dedupe(records)
        assert dedupe(once) == once


def test_mean_helper_against_kahan():
    values = [6.2445419, 6.2520885, 6.18991, 6.354782] * 250
    assert kahan_mean(values) == pytest.approx(sum(values) / len(values), rel=1e-12)
