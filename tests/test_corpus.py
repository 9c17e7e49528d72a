import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geozones.corpus import (
    DEFAULT_STUDY_AREA,
    KEYWORD_MODES,
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
from geozones.pipeline import build_corpus
from geozones.store import DocumentStore, StoredDocument

from . import reference
from .conftest import BUG_POINT, columns
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
        [rec] = list(normalize([doc]))
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
        assert len(normalize([doc])) == 0

    def test_photo_uses_name_as_text(self):
        doc = StoredDocument(
            collection="photo",
            body={"geo": {"latitude": 6.1, "longitude": -75.3, "accuracy": 6}, "name": "mirador"},
            doc_id=3,
        )
        [rec] = list(normalize([doc]))
        assert rec.origin == "photo"
        assert rec.text == "mirador"
        assert rec.position == GeoPoint(6.1, -75.3)


class TestFilterKeywords:
    def test_url_fragment_matches_inside_url(self):
        records = [record(6.2, -75.5, text="FOURSQUARE: I'm at C… 4sq.com/x")]
        query = KeywordQuery(terms=("4sq.com",))
        assert list(filter_keywords(columns(records), query)) == records

    def test_accent_folding(self):
        records = [record(6.2, -75.5, text="medellin es linda")]
        query = KeywordQuery(terms=("Medellín",))
        assert list(filter_keywords(columns(records), query)) == records

    def test_case_insensitive(self):
        records = [record(6.2, -75.5, text="GRAN FIESTA")]
        assert list(filter_keywords(columns(records), KeywordQuery(terms=("fiesta",)))) == records

    def test_empty_input(self):
        kept = filter_keywords(columns([]), KeywordQuery(terms=("x", "y")))
        assert list(kept) == []
        assert kept.hits.shape == (0, 2)

    @pytest.mark.parametrize("mode", KEYWORD_MODES)
    def test_hits_per_term_folded_in_query_order(self, mode):
        texts = ["fiesta grande", "en MEDELLIN", "nada", "Fiesta en Medellín"]
        records = [record(6.2, -75.5, text=text) for text in texts]
        kept = filter_keywords(columns(records), KeywordQuery(terms=("Medellín", "Fiesta", "4sq.com"), mode=mode))
        hits = [[False, True, False], [True, False, False], [True, True, False]]
        if mode == "any":
            assert (list(kept), kept.hits.tolist()) == ([records[0], records[1], records[3]], hits)
        else:
            assert (list(kept), kept.hits.shape) == ([], (0, 3))

    def test_normalize_records_no_hits(self):
        doc = StoredDocument("photo", {"geo": {"latitude": 6.1, "longitude": -75.3, "accuracy": 6}, "name": "x"}, 0)
        assert normalize([doc]).hits.shape == (1, 0)

    def test_hits_follow_the_rows_through_bbox_and_dedupe(self):
        records = [record(6.2, -75.5, text="fiesta"), record(40.0, -75.5, text="medellin")]
        records.append(records[0])
        kept = filter_keywords(columns(records), KeywordQuery(terms=("Medellín", "Fiesta")))
        inside, purged = filter_bbox(kept, DEFAULT_STUDY_AREA)
        assert (purged.hits.tolist(), dedupe(inside).hits.tolist()) == ([[True, False]], [[False, True]])

    def test_any_vs_all_modes(self):
        records = [
            record(6.2, -75.5, text="fiesta en medellín"),
            record(6.3, -75.6, text="solo fiesta"),
        ]
        any_query = KeywordQuery(terms=("fiesta", "medellín"), mode="any")
        all_query = KeywordQuery(terms=("fiesta", "medellín"), mode="all")
        assert list(filter_keywords(columns(records), any_query)) == records
        assert list(filter_keywords(columns(records), all_query)) == records[:1]

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
        kept = list(filter_keywords(columns(records), KeywordQuery(terms=("fiesta", "4sq.com"))))
        # Subsequence check: each kept record is found after the previous one.
        remaining = iter(records)
        assert all(r in remaining for r in kept)

    def test_folding_examples(self):
        assert fold_text("Medellín") == "medellin"
        assert fold_text("FIESTA") == "fiesta"
        assert fold_text("ñoño") == "nono"


class TestFilterBbox:
    def test_mislocated_point_purged(self):
        inside_rec = record(6.2, -75.5)
        outside_rec = record(BUG_POINT.lat_deg, BUG_POINT.lon_deg)
        inside, purged = filter_bbox(columns([inside_rec, outside_rec]), DEFAULT_STUDY_AREA)
        assert list(inside) == [inside_rec]
        assert list(purged) == [outside_rec]

    def test_boundary_point_is_inside(self):
        box = BoundingBox(min_lat=5.9, max_lat=6.6, min_lon=-75.8, max_lon=-75.1)
        boundary = record(5.9, -75.8)
        inside, purged = filter_bbox(columns([boundary]), box)
        assert list(inside) == [boundary]
        assert list(purged) == []

    def test_empty_input(self):
        inside, purged = filter_bbox(columns([]), DEFAULT_STUDY_AREA)
        assert (list(inside), list(purged)) == ([], [])

    def test_degenerate_box_rejected(self):
        with pytest.raises(ConfigError):
            BoundingBox(min_lat=7, max_lat=6, min_lon=0, max_lon=1)

    @pytest.mark.parametrize("nan_at", range(4))
    def test_nan_bound_rejected(self, nan_at):
        bounds = [6.0, 7.0, -76.0, -75.0]
        bounds[nan_at] = float("nan")
        with pytest.raises(ConfigError):
            BoundingBox(*bounds)

    @pytest.mark.parametrize("huge_at", range(4))
    def test_bound_beyond_float_range_rejected(self, huge_at):
        # A lower bound far below, or an upper bound far above: a box that is valid but for float range.
        bounds = [5.0, 7.0, -76.0, -75.0]
        bounds[huge_at] = 10**400 if huge_at % 2 else -(10**400)
        with pytest.raises(ConfigError, match="does not fit in a float"):
            BoundingBox(*bounds)

    def test_integer_bounds_become_floats(self):
        box = BoundingBox(5, 7, -76, -75)
        assert [type(b) for b in (box.min_lat, box.max_lat, box.min_lon, box.max_lon)] == [float] * 4
        inside, purged = filter_bbox(columns([record(6, -75.5), record(7.5, -75.5)]), box)
        assert (len(inside), len(purged)) == (1, 1)

    def test_infinite_bounds_cover_the_world(self):
        box = BoundingBox(-math.inf, math.inf, -math.inf, math.inf)
        inside, purged = filter_bbox(columns([record(-90, 180), record(90, -180)]), box)
        assert (len(inside), len(purged)) == (2, 0)

    @given(records=st.lists(record_strategy, max_size=40))
    def test_partition_is_exact(self, records):
        box = DEFAULT_STUDY_AREA
        inside, purged = filter_bbox(columns(records), box)
        assert len(inside) + len(purged) == len(records)
        assert Counter(list(inside) + list(purged)) == Counter(records)

        def contains(r):
            lat, lon = r.position.lat_deg, r.position.lon_deg
            return box.min_lat <= lat <= box.max_lat and box.min_lon <= lon <= box.max_lon

        assert all(map(contains, inside))
        assert not any(map(contains, purged))


class TestDedupe:
    def test_same_position_different_text_both_kept(self):
        one = record(6.2445419, -75.6011771, text="La distribución de par")
        two = record(6.2445419, -75.6011771, text="FOURSQUARE: I'm at C")
        assert list(dedupe(columns([one, two]))) == [one, two]

    def test_exact_duplicates_collapse(self):
        one = record(6.2, -75.5, text="igual", doc_id=0)
        two = record(6.2, -75.5, text="igual", doc_id=1)
        assert list(dedupe(columns([one, two]))) == [one]

    @given(records=st.lists(record_strategy, max_size=40))
    def test_matches_set_construction_oracle(self, records):
        deduped = list(dedupe(columns(records)))
        keys = [(r.position.lat_deg, r.position.lon_deg, r.text, r.origin) for r in deduped]
        expected = set(
            (r.position.lat_deg, r.position.lon_deg, r.text, r.origin) for r in records
        )
        assert set(keys) == expected
        assert len(keys) == len(expected)

    @given(records=st.lists(record_strategy, max_size=40))
    def test_idempotent(self, records):
        once = dedupe(columns(records))
        assert list(dedupe(once)) == list(once)


def tweet_body(point, text) -> dict:
    block = None if point is None else {
        "coordinates": {"latitude": point[0], "longitude": point[1]},
        "type": "Point",
    }
    return {"coordinates": block, "source": "test", "text": text}


def photo_body(point, text) -> dict:
    return {"geo": {"latitude": point[0], "longitude": point[1], "accuracy": 16}, "name": text}


BOX = BoundingBox(min_lat=5.9, max_lat=6.6, min_lon=-75.8, max_lon=-75.1)
# A coordinate is drawn a third of the time on the box's edges, a third just
# past them or inside, and a third anywhere, so edge points and exact
# duplicates are common.
LATS = (
    st.sampled_from([5.9, 6.6])
    | st.sampled_from([6.25, 5.8999999999999995, 6.6000000000000005, -0.0])
    | st.floats(-90, 90)
)
LONS = (
    st.sampled_from([-75.8, -75.1])
    | st.sampled_from([-75.45, -75.80000000000001, -75.09999999999999])
    | st.floats(-180, 180)
)
POINTS = st.tuples(LATS, LONS)
# ASCII and non-ASCII spellings of the terms: combining marks, ß, İ and the ﬁ ligature.
# Every text in the first list matches ON_TOPIC.
TEXTS = (
    st.sampled_from(["arriba Medellín", "medellin", "MEDELLÍN", "Medelli\u0301n", "gran FIESTA", "ﬁesta"])
    | st.sampled_from(["straße", "STRASSE", "İzmir", "izmir", "4sq.com/x", "otro", ""])
    | st.text(max_size=6)
)
ON_TOPIC = KeywordQuery(terms=("Medellín", "Fiesta"))
# Two queries in three are ON_TOPIC.
QUERIES = (
    st.just(ON_TOPIC)
    | st.just(ON_TOPIC)
    | st.builds(
        KeywordQuery,
        terms=st.lists(
            st.sampled_from(["Medellín", "medellin", "Fiesta", "4sq.com", "ß", "İ", "ﬁ"]), min_size=1, max_size=2
        ).map(tuple),
        mode=st.sampled_from(["any", "all"]),
    )
)


class TestBuildCorpusReference:
    """build_corpus against the per-record stages frozen in tests/reference.py."""

    @settings(max_examples=60, deadline=None)
    @given(
        tweets=st.lists(st.builds(tweet_body, st.none() | POINTS, TEXTS), max_size=8),
        photos=st.lists(st.builds(photo_body, POINTS, TEXTS), max_size=4),
        # Each twin is stored as a tweet and as a photo with the same position and text.
        twins=st.lists(st.tuples(POINTS, TEXTS), max_size=3),
        query=QUERIES,
    )
    # An ASCII text that matches only once the term's accent is stripped.
    @example(tweets=[tweet_body((6.25, -75.45), "medellin")], photos=[], twins=[], query=ON_TOPIC)
    # Points on all four edges of the box.
    @example(
        tweets=[tweet_body((5.9, -75.8), "fiesta"), tweet_body((6.6, -75.1), "fiesta")],
        photos=[],
        twins=[],
        query=ON_TOPIC,
    )
    # A tweet and a photo with the same position and text are not duplicates.
    @example(tweets=[], photos=[], twins=[((6.25, -75.45), "fiesta")], query=ON_TOPIC)
    def test_equals_per_record_reference(self, tmp_path_factory, tweets, photos, twins, query):
        tweets = tweets + [tweet_body(point, text) for point, text in twins]
        photos = photos + [photo_body(point, text) for point, text in twins]
        directory = tmp_path_factory.mktemp("store")
        with DocumentStore(directory) as store:
            for body in tweets:
                store.put("tweet", body)
            for body in photos:
                store.put("photo", body)
            kept, purged = build_corpus(store, query, BOX)
        expected, expected_purged = reference.corpus({"tweet": tweets, "photo": photos}, query, BOX)
        assert list(kept) == expected
        assert list(purged) == expected_purged
        # Each row's hits are the folded substring test of every query term, in query order.
        terms = [reference.fold_text(term) for term in query.terms]
        for rows, want in ((kept, expected), (purged, expected_purged)):
            assert rows.hits.shape == (len(want), len(terms))
            assert rows.hits.tolist() == [[term in reference.fold_text(r.text) for term in terms] for r in want]
        assert kept.x.dtype == np.float64 and kept.x.shape == (len(expected), 2)
        assert kept.x.tolist() == [[r.position.lat_deg, r.position.lon_deg] for r in expected]


def test_mean_helper_against_kahan():
    values = [6.2445419, 6.2520885, 6.18991, 6.354782] * 250
    assert kahan_mean(values) == pytest.approx(sum(values) / len(values), rel=1e-12)
