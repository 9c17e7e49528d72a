import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geozones import ingest
from geozones.errors import ConfigError, CoordinateError, ParseError, SchemaError, StorageError
from geozones.geo import GeoPoint
from geozones.ingest import (
    ParseError as IngestParseError,
    PhotoRecord,
    RawTweet,
    ReplaySummary,
    parse_photo_geo,
    parse_photo_search,
    parse_tweet,
    replay_source,
)

from .conftest import FIXTURES, write_tweet_file


class TestParseTweet:
    def test_geotagged_fixture(self, tweet_payload):
        tweet = parse_tweet(tweet_payload)
        assert tweet.coordinates == GeoPoint(40.05701649, -75.14310264)
        assert tweet.source == (
            '<a href="http://itunes.apple.com/us/app/twitter/id409789998?mt=1"'
            ' rel="nofollow">Twitter for Mac</a>'
        )
        assert tweet.text == (
            "Tweet Button, Follow Button, and Web Intents javascript now support SSL"
            " http://t.co/9fba0oYy ^TS"
        )

    def test_coordinate_array_order_is_lon_lat(self, tweet_payload):
        # |lon| > 90 makes a swapped decode impossible to miss.
        tweet = parse_tweet(tweet_payload)
        assert tweet.coordinates.lon_deg == -75.14310264
        assert tweet.coordinates.lat_deg == 40.05701649

    def test_null_coordinates(self):
        tweet = parse_tweet('{"coordinates": null, "source": "s", "text": "t"}')
        assert tweet.coordinates is None

    def test_missing_coordinates_block(self):
        tweet = parse_tweet('{"source": "s", "text": "t"}')
        assert tweet.coordinates is None

    def test_malformed_json_reports_byte_offset(self):
        with pytest.raises(ParseError) as excinfo:
            parse_tweet("{")
        assert excinfo.value.offset is not None

    def test_coordinate_beyond_float_range(self):
        payload = '{"coordinates": {"coordinates": [1' + "0" * 400 + ', 6.2], "type": "Point"}}'
        with pytest.raises(SchemaError) as excinfo:
            parse_tweet(payload)
        assert excinfo.value.path == "tweet.coordinates.coordinates"

    def test_integer_over_digit_limit(self):
        with pytest.raises(ParseError):
            parse_tweet('{"text": ' + "1" * 5000 + "}")

    def test_deep_nesting(self):
        with pytest.raises(ParseError):
            parse_tweet("[" * 5000 + "]" * 5000)

    def test_wrong_geometry_type(self):
        payload = '{"coordinates": {"coordinates": [1.0, 2.0], "type": "Polygon"}}'
        with pytest.raises(SchemaError):
            parse_tweet(payload)

    def test_wrong_array_length(self):
        payload = '{"coordinates": {"coordinates": [1.0, 2.0, 3.0], "type": "Point"}}'
        with pytest.raises(SchemaError):
            parse_tweet(payload)

    @pytest.mark.parametrize("field", ["source", "text"])
    def test_lone_surrogate_rejected(self, field):
        payload = json.dumps({"source": "s", "text": "t", field: "fiesta \ud800"})
        with pytest.raises(SchemaError) as excinfo:
            parse_tweet(payload)
        assert excinfo.value.path == f"tweet.{field}"

    def test_unicode_escapes_decoded(self):
        tweet = parse_tweet('{"source": "\\u003Cb\\u003E", "text": "caf\\u00e9"}')
        assert tweet.source == "<b>"
        assert tweet.text == "café"

    @given(
        point=st.one_of(
            st.none(),
            st.builds(
                GeoPoint,
                st.floats(-90, 90, allow_nan=False),
                st.floats(-180, 180, allow_nan=False),
            ),
        ),
        source=st.text(max_size=60),
        text=st.text(max_size=140),
    )
    def test_round_trip(self, point, source, text):
        block = None if point is None else {"coordinates": [point.lon_deg, point.lat_deg], "type": "Point"}
        payload = {"coordinates": block, "source": source, "text": text}
        assert parse_tweet(json.dumps(payload)) == RawTweet(coordinates=point, source=source, text=text)


class TestParsePhotoSearch:
    def test_search_page_fixture(self, photo_search_payload):
        page = parse_photo_search(photo_search_payload)
        assert (page.page, page.pages, page.per_page, page.total) == (2, 89, 10, 881)
        assert len(page.stubs) == 4
        assert page.stubs[0].id == "2636"
        assert page.stubs[0].owner == "47058503995@N01"
        assert page.stubs[0].title == "test_04"
        assert page.stubs[0].is_public is True
        assert page.stubs[1].is_public is False

    def test_empty_page(self):
        page = parse_photo_search("<photos page='1' pages='1' perpage='10' total='0'/>")
        assert page.stubs == ()

    def test_missing_photo_id(self):
        payload = "<photos page='1' pages='1' perpage='10' total='1'><photo owner='x'/></photos>"
        with pytest.raises(SchemaError) as excinfo:
            parse_photo_search(payload)
        assert "id" in str(excinfo.value)

    def test_missing_page_attribute(self):
        with pytest.raises(SchemaError) as excinfo:
            parse_photo_search("<photos pages='1' perpage='10' total='0'/>")
        assert "page" in str(excinfo.value)

    def test_malformed_xml(self):
        with pytest.raises(IngestParseError):
            parse_photo_search("<photos")

    def test_stub_count_cannot_exceed_per_page(self):
        rows = "".join(f"<photo id='{i}'/>" for i in range(3))
        payload = f"<photos page='1' pages='1' perpage='2' total='3'>{rows}</photos>"
        with pytest.raises(SchemaError):
            parse_photo_search(payload)

    def test_page_beyond_pages(self):
        with pytest.raises(SchemaError):
            parse_photo_search("<photos page='5' pages='2' perpage='10' total='11'/>")

    @pytest.mark.parametrize(
        "attr, value",
        [("pages", "1_0"), ("page", "+1"), ("perpage", " 10"), ("total", "1 "), ("page", "\u0661"), ("total", "1.0")],
    )
    def test_integer_attribute_must_be_ascii_digits(self, attr, value):
        attrs = {"page": "1", "pages": "1", "perpage": "10", "total": "1", attr: value}
        payload = "<photos " + " ".join(f"{k}='{v}'" for k, v in attrs.items()) + "/>"
        with pytest.raises(SchemaError) as excinfo:
            parse_photo_search(payload)
        assert excinfo.value.path == f"photos.{attr}"


class TestParsePhotoGeo:
    def test_geo_entity_fixture(self, photo_geo_payload):
        geo = parse_photo_geo(photo_geo_payload)
        assert geo.photo_id == "123"
        assert geo.location == GeoPoint(-17.685895, -63.36914)
        assert geo.accuracy == 6

    def test_accuracy_zero_rejected(self):
        payload = "<photo id='1'><location latitude='1' longitude='2' accuracy='0'/></photo>"
        with pytest.raises(SchemaError):
            parse_photo_geo(payload)

    def test_accuracy_above_sixteen_rejected(self):
        payload = "<photo id='1'><location latitude='1' longitude='2' accuracy='17'/></photo>"
        with pytest.raises(SchemaError):
            parse_photo_geo(payload)

    def test_out_of_range_latitude_rejected(self):
        payload = "<photo id='1'><location latitude='95' longitude='2' accuracy='6'/></photo>"
        with pytest.raises(ValueError):
            parse_photo_geo(payload)

    def test_missing_location(self):
        with pytest.raises(SchemaError):
            parse_photo_geo("<photo id='1'/>")

    @staticmethod
    def _geo(latitude="6.2", longitude="-75.5", accuracy="6"):
        return parse_photo_geo(
            f"<photo id='1'><location latitude='{latitude}' longitude='{longitude}' accuracy='{accuracy}'/></photo>"
        )

    @pytest.mark.parametrize(
        "attr, value",
        [
            ("latitude", "6_2"),
            ("longitude", "-75_5"),
            ("latitude", "\u0666.2"),
            ("latitude", " 6.2"),
            ("longitude", "-75.5 "),
            ("latitude", "nan"),
            ("latitude", "0x6"),
            ("accuracy", "1_6"),
            ("accuracy", "\u0666"),
            ("accuracy", " 6"),
            ("accuracy", "+6"),
        ],
    )
    def test_number_must_be_ascii_literal(self, attr, value):
        with pytest.raises(SchemaError) as excinfo:
            self._geo(**{attr: value})
        assert excinfo.value.path == ("photo.location.accuracy" if attr == "accuracy" else "photo.location")

    @pytest.mark.parametrize("raw", ["6", "6.", ".5", "+6.2", "-0.5", "6.2e-05", "1E1", repr(6.123456789012345)])
    def test_plain_float_forms_accepted(self, raw):
        assert self._geo(latitude=raw).location.lat_deg == float(raw)


@pytest.mark.parametrize(
    "parse, payload",
    [
        (parse_photo_search, "<photos page='1' pages='1' perpage='1' total='1'><photo id='1' title='a\ud800'/></photos>"),
        (parse_photo_search, "<photos page='1' pages='1' perpage='1' total='0'/>\ud800"),
        (parse_photo_geo, "<photo id='1' title='a\ud800'><location latitude='1' longitude='2' accuracy='6'/></photo>"),
        (parse_photo_geo, "<photo id='1'><location latitude='1' longitude='2' accuracy='6'/></photo>\ud800"),
    ],
    ids=["search-title", "search-trailing", "geo-attribute", "geo-trailing"],
)
def test_photo_xml_lone_surrogate_is_schema_error(parse, payload):
    # Only a str caller can hand over a lone surrogate; replayed files are decoded strictly.
    with pytest.raises(SchemaError) as excinfo:
        parse(payload)
    assert excinfo.value.path == "photo"


FIXTURE_TEXTS = [
    (FIXTURES / name).read_text(encoding="utf-8")
    for name in ("tweet_geotagged.json", "photo_search_page.xml", "photo_geo_entity.xml")
]
HOSTILE_TOKENS = [
    "1e400",
    "\ud800",
    "9" * 5000,
    '<!DOCTYPE photo [<!ENTITY e "&#x26;e;">]>',
    "&e;",
    "\x00",
    "\u0663",  # ARABIC-INDIC DIGIT THREE
    "1_0",
]


@st.composite
def mutated_fixtures(draw):
    """One of the fixtures with 1-4 insertions, deletions or hostile tokens at random places."""
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "token"]))
        if edit == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 12)) :]
        else:
            piece = draw(st.text(min_size=1, max_size=4) if edit == "insert" else st.sampled_from(HOSTILE_TOKENS))
            text = text[:at] + piece + text[at:]
    return text


@pytest.mark.parametrize(
    "parse, returns",
    [(parse_tweet, RawTweet), (parse_photo_search, ingest.PhotoSearchPage), (parse_photo_geo, PhotoRecord)],
    ids=["tweet", "photo-search", "photo-geo"],
)
@settings(max_examples=150, deadline=None)
@given(payload=mutated_fixtures())
# A lone surrogate before the point where the JSON breaks.
@example(payload='{"\ud800": }')
def test_parser_returns_record_or_named_error(parse, returns, payload):
    try:
        assert isinstance(parse(payload), returns)
    except (ParseError, SchemaError, CoordinateError):
        pass


class TestReplaySource:
    def _drain(self, directory, kind):
        records = []
        summary = None
        for item in replay_source(directory, kind):
            if isinstance(item, ReplaySummary):
                summary = item
            else:
                records.append(item)
        return records, summary

    def test_single_tweet_fixture(self, tmp_path):
        (tmp_path / "a.json").write_text(
            (FIXTURES / "tweet_geotagged.json").read_text(encoding="utf-8"), encoding="utf-8"
        )
        records, summary = self._drain(tmp_path, "tweet")
        assert len(records) == 1
        assert records[0].coordinates == GeoPoint(40.05701649, -75.14310264)
        assert (summary.parsed, summary.skipped) == (1, 0)

    def test_empty_directory(self, tmp_path):
        records, summary = self._drain(tmp_path, "tweet")
        assert records == []
        assert (summary.parsed, summary.skipped) == (0, 0)

    def test_mixed_good_and_malformed(self, tmp_path):
        write_tweet_file(tmp_path, "a.json", GeoPoint(6.2, -75.5))
        (tmp_path / "b.json").write_text("{", encoding="utf-8")
        (tmp_path / "c.json").write_text("[" * 5000 + "]" * 5000, encoding="utf-8")
        (tmp_path / "d.json").write_text('{"text": "fiesta \\ud800"}', encoding="utf-8")
        records, summary = self._drain(tmp_path, "tweet")
        assert len(records) == 1
        assert (summary.parsed, summary.skipped) == (1, 3)
        assert [name for name, _ in summary.failures] == ["b.json", "c.json", "d.json"]

    @pytest.mark.parametrize(
        "kind, name, payload",
        [
            ("photo", "total.xml", f"<photos page='1' pages='1' perpage='10' total='{'9' * 5000}'/>"),
            ("photo", "page.xml", f"<photos page='{'9' * 4000}' pages='1' perpage='10' total='0'/>"),
            (
                "photo",
                "latitude.xml",
                f"<photo id='1'><location latitude='{'x' * 5000}' longitude='2' accuracy='6'/></photo>",
            ),
            (
                "photo",
                "accuracy.xml",
                f"<photo id='1'><location latitude='1' longitude='2' accuracy='{'9' * 4000}'/></photo>",
            ),
            ("tweet", "type.json", json.dumps({"coordinates": {"type": "P" * 5000, "coordinates": [1, 2]}})),
        ],
        ids=["total", "page", "latitude", "accuracy", "tweet-type"],
    )
    def test_long_raw_value_clipped_in_reason(self, tmp_path, kind, name, payload):
        (tmp_path / name).write_text(payload, encoding="utf-8")
        records, summary = self._drain(tmp_path, kind)
        assert records == []
        assert (summary.parsed, summary.skipped) == (0, 1)
        [(failed, reason)] = summary.failures
        assert failed == name
        assert len(reason) < 200

    def test_lexicographic_order(self, tmp_path):
        write_tweet_file(tmp_path, "b.json", None, text="second")
        write_tweet_file(tmp_path, "a.json", None, text="first")
        records, _ = self._drain(tmp_path, "tweet")
        assert [r.text for r in records] == ["first", "second"]

    def test_photo_join_of_search_and_geo(self, tmp_path):
        (tmp_path / "10_search.xml").write_text(
            "<photos page='1' pages='1' perpage='10' total='1'>"
            "<photo id='123' title='mirador' ispublic='1'/></photos>",
            encoding="utf-8",
        )
        (tmp_path / "20_geo.xml").write_text(
            "<photo id='123'><location latitude='6.24' longitude='-75.58' accuracy='8'/></photo>",
            encoding="utf-8",
        )
        records, summary = self._drain(tmp_path, "photo")
        assert records == [
            PhotoRecord(photo_id="123", name="mirador", location=GeoPoint(6.24, -75.58), accuracy=8)
        ]
        assert (summary.parsed, summary.skipped) == (1, 0)

    def test_each_photo_file_parsed_once(self, tmp_path, monkeypatch):
        (tmp_path / "10_search.xml").write_text(
            "<photos page='1' pages='1' perpage='10' total='1'><photo id='123' title='mirador'/></photos>",
            encoding="utf-8",
        )
        (tmp_path / "20_geo.xml").write_text(
            "<photo id='123'><location latitude='6.24' longitude='-75.58' accuracy='8'/></photo>",
            encoding="utf-8",
        )
        (tmp_path / "30_other.xml").write_text("<video id='1'/>", encoding="utf-8")
        calls = []
        fromstring = ingest.ET.fromstring

        def counting(text, *args, **kwargs):
            calls.append(text)
            return fromstring(text, *args, **kwargs)

        monkeypatch.setattr("geozones.ingest.ET.fromstring", counting)
        records, summary = self._drain(tmp_path, "photo")
        assert len(calls) == 3
        assert [r.name for r in records] == ["mirador"]
        assert summary.failures == [("30_other.xml", "unrecognized root element <video>")]

    def test_photo_geo_without_search_title(self, tmp_path):
        (tmp_path / "geo.xml").write_text(
            "<photo id='9'><location latitude='6.1' longitude='-75.3' accuracy='6'/></photo>",
            encoding="utf-8",
        )
        records, _ = self._drain(tmp_path, "photo")
        assert records[0].name == ""

    def test_missing_directory(self, tmp_path):
        with pytest.raises(StorageError):
            list(replay_source(tmp_path / "missing", "tweet"))

    def test_file_listing_matches_path_listing(self, tmp_path):
        for name in ("b.json", "B.json", "a.json", "10.json", "9.json", "ñandú.json", "éclair", "Zz", "_x", ".hidden"):
            (tmp_path / name).write_text("{}", encoding="utf-8")
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.json").symlink_to(tmp_path / "a.json")
        (tmp_path / "dangling.json").symlink_to(tmp_path / "nosuch.json")
        (tmp_path / "sublink").symlink_to(tmp_path / "sub")
        expected = sorted(p for p in tmp_path.iterdir() if p.is_file() and not p.name.startswith("."))
        assert ingest._replay_files(tmp_path) == expected
        assert tmp_path / "link.json" in expected and tmp_path / "dangling.json" not in expected

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ConfigError):
            list(replay_source(tmp_path, "video"))
