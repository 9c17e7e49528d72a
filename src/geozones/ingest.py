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
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Union

from .errors import ConfigError, ParseError, SchemaError, StorageError, ZoneError
from .geo import GeoPoint

FLICKR_ACCURACY_RANGE = (1, 16)
ECHO_CHARS = 40


@dataclass(frozen=True)
class RawTweet:
    """One tweet: optional position, originating application, message text."""

    coordinates: GeoPoint | None
    source: str
    text: str

    def to_payload(self) -> dict:
        """Rebuild the wire-shaped payload (coordinates as [lon, lat])."""
        block = None
        if self.coordinates is not None:
            block = {
                "coordinates": [self.coordinates.lon_deg, self.coordinates.lat_deg],
                "type": "Point",
            }
        return {"coordinates": block, "source": self.source, "text": self.text}


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
class RawPhotoGeo:
    """The geo entity of a photo: location fix plus accuracy level."""

    photo_id: str
    location: GeoPoint
    accuracy: int


@dataclass(frozen=True)
class PhotoRecord:
    """Geo entity joined with the title its search stub supplied (if any)."""

    photo_id: str
    name: str
    location: GeoPoint
    accuracy: int


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
        offset = len(payload[: exc.pos].encode("utf-8"))
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
    if not isinstance(source, str):
        raise SchemaError("source must be a string", path="tweet.source")
    if not isinstance(text, str):
        raise SchemaError("text must be a string", path="tweet.text")
    return RawTweet(coordinates=point, source=source, text=text)


def _xml_root(payload: str, what: str) -> ET.Element:
    try:
        return ET.fromstring(payload)
    except ET.ParseError as exc:
        raise ParseError(f"malformed {what} XML: {exc}", position=exc.position) from exc


def _require_attr(elem: ET.Element, name: str, context: str) -> str:
    value = elem.get(name)
    if value is None:
        raise SchemaError(f"missing required attribute '{name}' on <{elem.tag}>", path=f"{context}.{name}")
    return value


def _int_attr(elem: ET.Element, name: str, context: str) -> int:
    raw = _require_attr(elem, name, context)
    try:
        return int(raw)
    except ValueError:
        raise SchemaError(
            f"attribute '{name}' must be an integer, got {_echo(raw)}", path=f"{context}.{name}"
        )


def parse_photo_search(payload: str) -> PhotoSearchPage:
    """Decode a photo search result page (``<photos>`` root element)."""
    root = _xml_root(payload, "photo search")
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


def parse_photo_geo(payload: str) -> RawPhotoGeo:
    """Decode a photo geo entity (``<photo>`` root with a ``<location>``)."""
    root = _xml_root(payload, "photo geo")
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
    try:
        lat_val, lon_val = float(lat), float(lon)
    except ValueError:
        raise SchemaError(
            f"non-numeric location attributes ({_echo(lat)}, {_echo(lon)})", path="photo.location"
        )
    # GeoPoint raises CoordinateError on out-of-range values.
    return RawPhotoGeo(photo_id=photo_id, location=GeoPoint(lat_val, lon_val), accuracy=accuracy)


ReplayItem = Union[RawTweet, PhotoRecord, ReplaySummary]


def _replay_files(directory: Path) -> list[Path]:
    if not directory.is_dir():
        raise StorageError(f"replay directory not readable: {directory}")
    try:
        return sorted(p for p in directory.iterdir() if p.is_file() and not p.name.startswith("."))
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
    files = _replay_files(directory)
    summary = ReplaySummary()

    if kind == "tweet":
        for path in files:
            try:
                record = parse_tweet(path.read_text(encoding="utf-8"))
            except (ZoneError, UnicodeDecodeError, OSError) as exc:
                summary.skipped += 1
                summary.failures.append((path.name, str(exc)))
                continue
            summary.parsed += 1
            yield record
        yield summary
        return

    # Photos need a join: pass 1 collects titles from search pages and the
    # geo entities in filename order; pass 2 yields the combined records.
    titles: dict[str, str] = {}
    geo_entities: list[RawPhotoGeo] = []
    for path in files:
        try:
            payload = path.read_text(encoding="utf-8")
            root_tag = _xml_root(payload, "photo").tag
            if root_tag == "photos":
                page = parse_photo_search(payload)
                for stub in page.stubs:
                    titles.setdefault(stub.id, stub.title)
            elif root_tag == "photo":
                geo_entities.append(parse_photo_geo(payload))
            else:
                raise SchemaError(f"unrecognized root element <{root_tag}>", path=root_tag)
        except (ZoneError, UnicodeDecodeError, OSError) as exc:
            summary.skipped += 1
            summary.failures.append((path.name, str(exc)))
    for entity in geo_entities:
        summary.parsed += 1
        yield PhotoRecord(
            photo_id=entity.photo_id,
            name=titles.get(entity.photo_id, ""),
            location=entity.location,
            accuracy=entity.accuracy,
        )
    yield summary
