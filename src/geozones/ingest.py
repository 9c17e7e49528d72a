"""Parsers for raw social-media payloads and file-replay record sources.

Tweets arrive as JSON documents whose ``coordinates`` block follows the
GeoJSON convention (array ordered [longitude, latitude]). Photo metadata
arrives as two XML entity kinds: search result pages (``<photos>``) that
carry ids and titles, and geo entities (``<photo>``) that carry the
location fix. Live API access is out of scope; ``replay_source`` streams
records from fixture directories instead.
"""

from __future__ import annotations

import json
import os
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Union

from .errors import ConfigError, ParseError, SchemaError, StorageError, ZoneError
from .geo import GeoPoint

FLICKR_ACCURACY_RANGE = (1, 16)
ECHO_CHARS = 40
# Plain ASCII numerals only: int()/float() would also take "1_6", " 6" and non-ASCII digits.
INT_FORM = re.compile(r"-?[0-9]+")
FLOAT_FORM = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


@dataclass(frozen=True)
class RawTweet:
    """One tweet: optional position, originating application, message text."""

    coordinates: GeoPoint | None
    source: str
    text: str


@dataclass(frozen=True)
class RawPhotoStub:
    """One row of a photo search page; no location yet."""

    id: str
    owner: str
    title: str
    is_public: bool


@dataclass(frozen=True)
class PhotoSearchPage:
    page: int
    pages: int
    per_page: int
    total: int
    stubs: tuple[RawPhotoStub, ...]


@dataclass(frozen=True)
class PhotoRecord:
    """A photo's geo entity: location fix, accuracy level and, once joined, its search-stub title."""

    photo_id: str
    location: GeoPoint
    accuracy: int
    name: str = ""


@dataclass
class ReplaySummary:
    """Terminal item of a replay stream: how many records parsed vs skipped."""

    parsed: int = 0
    skipped: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)


def _echo(value) -> str:
    """``repr(value)`` for an error message: at most ECHO_CHARS characters, then its full length."""
    text = repr(value)
    if len(text) <= ECHO_CHARS:
        return text
    return f"{text[:ECHO_CHARS]}... ({len(text)} chars)"


def parse_tweet(payload: str) -> RawTweet:
    """Decode one tweet JSON document.

    A missing or null ``coordinates`` block is legal (the tweet is simply
    not geotagged). A present block must be a GeoJSON Point with a
    two-element [longitude, latitude] array.
    """
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        # A lone surrogate (from a str caller) counts as the 3 bytes surrogatepass gives it.
        offset = len(payload[: exc.pos].encode("utf-8", "surrogatepass"))
        raise ParseError(f"malformed tweet JSON at byte {offset}: {exc.msg}", offset=offset) from exc
    except (ValueError, RecursionError) as exc:  # an integer over the digit limit, or deep nesting
        raise ParseError(f"malformed tweet JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("tweet payload must be a JSON object", path="tweet")

    point = None
    block = doc.get("coordinates")
    if block is not None:
        if not isinstance(block, dict):
            raise SchemaError("coordinates block must be an object", path="tweet.coordinates")
        if block.get("type") != "Point":
            raise SchemaError(
                f"coordinates type must be 'Point', got {_echo(block.get('type'))}",
                path="tweet.coordinates.type",
            )
        coords = block.get("coordinates")
        if not isinstance(coords, list) or len(coords) != 2:
            raise SchemaError(
                "coordinates array must hold exactly [longitude, latitude]",
                path="tweet.coordinates.coordinates",
            )
        lon, lat = coords
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in coords):
            raise SchemaError("coordinates must be numeric", path="tweet.coordinates.coordinates")
        try:
            point = GeoPoint(float(lat), float(lon))
        except OverflowError:
            raise SchemaError("coordinates must fit in a float", path="tweet.coordinates.coordinates")

    source = doc.get("source", "")
    text = doc.get("text", "")
    for name, value in (("source", source), ("text", text)):
        if not isinstance(value, str):
            raise SchemaError(f"{name} must be a string", path=f"tweet.{name}")
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate, which a JSON "\ud800" escape decodes to
            raise SchemaError(f"{name} must be valid UTF-8", path=f"tweet.{name}")
    return RawTweet(coordinates=point, source=source, text=text)


def _xml_root(payload: str, what: str) -> ET.Element:
    try:
        return ET.fromstring(payload)
    except ET.ParseError as exc:
        raise ParseError(f"malformed {what} XML: {exc}", position=exc.position) from exc
    except UnicodeEncodeError:  # a lone surrogate: the parser encodes the text to UTF-8 first
        raise SchemaError(f"{what} XML must be valid UTF-8", path="photo") from None


def _require_attr(elem: ET.Element, name: str, context: str) -> str:
    value = elem.get(name)
    if value is None:
        raise SchemaError(f"missing required attribute '{name}' on <{elem.tag}>", path=f"{context}.{name}")
    return value


def _int_attr(elem: ET.Element, name: str, context: str) -> int:
    raw = _require_attr(elem, name, context)
    try:
        if INT_FORM.fullmatch(raw):
            return int(raw)
    except ValueError:  # beyond int()'s digit limit
        pass
    raise SchemaError(f"attribute '{name}' must be an integer, got {_echo(raw)}", path=f"{context}.{name}")


def parse_photo_search(payload: str) -> PhotoSearchPage:
    """Decode a photo search result page (``<photos>`` root element)."""
    return _search_page(_xml_root(payload, "photo search"))


def _search_page(root: ET.Element) -> PhotoSearchPage:
    if root.tag != "photos":
        raise SchemaError(f"expected <photos> root, got <{root.tag}>", path="photos")
    page = _int_attr(root, "page", "photos")
    pages = _int_attr(root, "pages", "photos")
    per_page = _int_attr(root, "perpage", "photos")
    total = _int_attr(root, "total", "photos")
    if page < 1 or pages < 1 or per_page < 1:
        raise SchemaError("page, pages and perpage must be positive", path="photos.page")
    if total < 0:
        raise SchemaError("total must be non-negative", path="photos.total")
    if page > pages:
        raise SchemaError(f"page {_echo(page)} exceeds pages {_echo(pages)}", path="photos.page")

    stubs = []
    for child in root.findall("photo"):
        photo_id = _require_attr(child, "id", "photos.photo")
        if not photo_id:
            raise SchemaError("photo id must be non-empty", path="photos.photo.id")
        stubs.append(
            RawPhotoStub(
                id=photo_id,
                owner=child.get("owner", ""),
                title=child.get("title", ""),
                is_public=child.get("ispublic", "0") == "1",
            )
        )
    if len(stubs) > per_page:
        raise SchemaError(f"{len(stubs)} photo rows exceed perpage={per_page}", path="photos.perpage")
    return PhotoSearchPage(page=page, pages=pages, per_page=per_page, total=total, stubs=tuple(stubs))


def parse_photo_geo(payload: str) -> PhotoRecord:
    """Decode a photo geo entity (``<photo>`` root with a ``<location>``); its name is empty."""
    return _geo_entity(_xml_root(payload, "photo geo"))


def _geo_entity(root: ET.Element) -> PhotoRecord:
    if root.tag != "photo":
        raise SchemaError(f"expected <photo> root, got <{root.tag}>", path="photo")
    photo_id = _require_attr(root, "id", "photo")
    if not photo_id:
        raise SchemaError("photo id must be non-empty", path="photo.id")
    location = root.find("location")
    if location is None:
        raise SchemaError("missing <location> element", path="photo.location")
    lat = _require_attr(location, "latitude", "photo.location")
    lon = _require_attr(location, "longitude", "photo.location")
    accuracy = _int_attr(location, "accuracy", "photo.location")
    lo, hi = FLICKR_ACCURACY_RANGE
    if not lo <= accuracy <= hi:
        raise SchemaError(f"accuracy {_echo(accuracy)} outside [{lo}, {hi}]", path="photo.location.accuracy")
    if not (FLOAT_FORM.fullmatch(lat) and FLOAT_FORM.fullmatch(lon)):
        raise SchemaError(
            f"non-numeric location attributes ({_echo(lat)}, {_echo(lon)})", path="photo.location"
        )
    # GeoPoint raises CoordinateError on out-of-range values.
    return PhotoRecord(photo_id=photo_id, location=GeoPoint(float(lat), float(lon)), accuracy=accuracy)


ReplayItem = Union[RawTweet, PhotoRecord, ReplaySummary]


def _replay_files(directory: Path) -> list[str]:
    # Sorted names, not Paths: the same order for one directory at a fraction of the cost, and
    # a Path per file is built only while that file is read. DirEntry.is_file follows symlinks
    # as Path.is_file does, mostly without a stat.
    try:
        with os.scandir(directory) as entries:
            return sorted(e.name for e in entries if e.is_file() and not e.name.startswith("."))
    except OSError as exc:
        raise StorageError(f"replay directory not readable: {directory}: {exc}") from exc


def replay_source(directory, kind: str) -> Iterator[ReplayItem]:
    """Yield parsed records from a fixture directory, then a ReplaySummary.

    Files are processed in lexicographic filename order. A file that fails
    to parse is reported in the summary (with its filename) and skipped;
    it never aborts the stream. ``kind`` is ``"tweet"`` (one JSON document
    per file) or ``"photo"`` (XML search pages and geo entities; geo
    entities drive the output, search pages contribute titles).
    """
    if kind not in ("tweet", "photo"):
        raise ConfigError(f"replay kind must be 'tweet' or 'photo', got {kind!r}")
    directory = Path(directory)
    names = _replay_files(directory)
    summary = ReplaySummary()

    if kind == "tweet":
        for name in names:
            try:
                record = parse_tweet((directory / name).read_text(encoding="utf-8"))
            except (ZoneError, UnicodeDecodeError, OSError) as exc:
                summary.skipped += 1
                summary.failures.append((name, str(exc)))
                continue
            summary.parsed += 1
            yield record
        yield summary
        return

    # Photos need a join: pass 1 collects titles from search pages and the
    # geo entities in filename order; pass 2 yields the combined records.
    titles: dict[str, str] = {}
    geo_entities: list[PhotoRecord] = []
    for name in names:
        try:
            root = _xml_root((directory / name).read_text(encoding="utf-8"), "photo")
            if root.tag == "photos":
                for stub in _search_page(root).stubs:
                    titles.setdefault(stub.id, stub.title)
            elif root.tag == "photo":
                geo_entities.append(_geo_entity(root))
            else:
                raise SchemaError(f"unrecognized root element <{root.tag}>", path=root.tag)
        except (ZoneError, UnicodeDecodeError, OSError) as exc:
            summary.skipped += 1
            summary.failures.append((name, str(exc)))
    for entity in geo_entities:
        summary.parsed += 1
        yield replace(entity, name=titles.get(entity.photo_id, ""))
    yield summary
