"""File-backed document store for ingested tweets and photos.

On-disk layout under the store directory:

    tweet.jsonl   one canonical-form JSON document per line, LF-terminated
    photo.jsonl   same
    LOCK          advisory lock file; the writer holds an exclusive flock

Each line is the canonical envelope ``{"body":{...},"doc_id":n,"len":m}``;
``doc_id`` is the insertion sequence number within its collection. On read,
a line must be exactly that frame, with a body (the bytes between
``{"body":`` and the suffix) of m bytes, parsed and validated but never
re-serialized. Any other line, such as one with spaces, another key order
or a signed or zero-padded number, raises StorageError naming path:line.

Document bodies follow a fixed two-collection schema:

    photo: {"geo": {"latitude", "longitude", "accuracy"}, "name"}
    tweet: {"coordinates": {"coordinates": {"latitude", "longitude"},
            "type"} | null, "source", "text"}
"""

from __future__ import annotations

import fcntl
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import SchemaError, StorageError
from .ingest import PhotoRecord, RawTweet

COLLECTIONS = ("tweet", "photo")

_decode_json = json.JSONDecoder().raw_decode  # json.loads minus argument handling and whitespace skipping
# A stored line: the canonical envelope, whose "body" key sorts first.
_FRAME = re.compile(rb'\{"body":(.*),"doc_id":(0|[1-9][0-9]*),"len":(0|[1-9][0-9]*)\}\n?', re.DOTALL)


class StoredDocument(NamedTuple):
    collection: str
    body: dict
    doc_id: int


@dataclass(frozen=True)
class StoreStats:
    tweet_count: int
    photo_count: int


def canonical_json(obj) -> str:
    """Canonical serialization: sorted keys, compact separators, raw UTF-8."""
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"), sort_keys=True)


def _check_number(value, path: str, lo: float, hi: float):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path} must be a number", path=path)
    if not lo <= value <= hi:  # also false for NaN, infinities and ints beyond float range
        raise SchemaError(f"{path} value {value} outside [{lo}, {hi}]", path=path)


def _check_str(value, path: str):
    if not isinstance(value, str):
        raise SchemaError(f"{path} must be a string", path=path)
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate cannot be written
        raise SchemaError(f"{path} must be valid UTF-8", path=path)


def _require(body: dict, key: str, path: str):
    try:
        return body[key]
    except (KeyError, TypeError):  # the key is missing, or ``body`` is no object
        raise SchemaError(f"missing required field {path}", path=path) from None


def validate_body(collection: str, body: dict):
    """Raise SchemaError (naming the offending path) unless ``body`` conforms."""
    if collection == "photo":
        geo = _require(body, "geo", "photo.geo")
        lat = _require(geo, "latitude", "photo.geo.latitude")
        _check_number(lat, "photo.geo.latitude", -90.0, 90.0)
        lon = _require(geo, "longitude", "photo.geo.longitude")
        _check_number(lon, "photo.geo.longitude", -180.0, 180.0)
        acc = _require(geo, "accuracy", "photo.geo.accuracy")
        if isinstance(acc, bool) or not isinstance(acc, int):
            raise SchemaError("photo.geo.accuracy must be an integer", path="photo.geo.accuracy")
        _check_str(_require(body, "name", "photo.name"), "photo.name")
    elif collection == "tweet":
        block = _require(body, "coordinates", "tweet.coordinates")
        if block is not None:
            inner = _require(block, "coordinates", "tweet.coordinates.coordinates")
            lat = _require(inner, "latitude", "tweet.coordinates.coordinates.latitude")
            _check_number(lat, "tweet.coordinates.coordinates.latitude", -90.0, 90.0)
            lon = _require(inner, "longitude", "tweet.coordinates.coordinates.longitude")
            _check_number(lon, "tweet.coordinates.coordinates.longitude", -180.0, 180.0)
            _check_str(_require(block, "type", "tweet.coordinates.type"), "tweet.coordinates.type")
        _check_str(_require(body, "source", "tweet.source"), "tweet.source")
        _check_str(_require(body, "text", "tweet.text"), "tweet.text")
    else:
        raise SchemaError(f"unknown collection {collection!r}", path=collection)


def tweet_body(raw: RawTweet) -> dict:
    """Store-schema body for a parsed tweet."""
    block = None
    if raw.coordinates is not None:
        block = {
            "coordinates": {
                "latitude": raw.coordinates.lat_deg,
                "longitude": raw.coordinates.lon_deg,
            },
            "type": "Point",
        }
    return {"coordinates": block, "source": raw.source, "text": raw.text}


def photo_body(record: PhotoRecord) -> dict:
    """Store-schema body for a joined photo record."""
    return {
        "geo": {
            "latitude": record.location.lat_deg,
            "longitude": record.location.lon_deg,
            "accuracy": record.accuracy,
        },
        "name": record.name,
    }


class DocumentStore:
    """Append-only two-collection store under one directory.

    A writable store creates its directory if needed, holds an exclusive
    advisory lock for its lifetime (a second writer on the same directory
    fails fast) and drops a last record torn by a crash mid-write. A read-only
    store requires the directory to exist. Readers never lock and see every
    write completed before their scan started.
    """

    def __init__(self, directory, read_only: bool = False):
        self.directory = Path(directory)
        self.read_only = read_only
        self._lock_fd = None
        self._counts: dict[str, int] = {}
        self._batch: dict[str, bytearray] | None = None  # collection -> encoded lines of the open batch
        if read_only:
            if not self.directory.is_dir():
                raise StorageError(f"no store directory at {self.directory}")
        else:
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise StorageError(f"cannot create store directory {self.directory}: {exc}") from exc
            self._acquire_lock()
            # Only put() reads the counts; stats() recounts from disk.
            self._counts = {c: self._count_lines(self._path(c), repair=True) for c in COLLECTIONS}

    def _path(self, collection: str) -> Path:
        return self.directory / f"{collection}.jsonl"

    def _acquire_lock(self):
        lock_path = self.directory / "LOCK"
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            raise StorageError(f"store directory already locked by another writer: {self.directory}")
        self._lock_fd = fd

    @staticmethod
    def _count_lines(path: Path, repair: bool = False) -> int:
        # With ``repair`` (the writer, holding the lock), a last line without its newline, which
        # is what a crash during a batch's exit write can leave, is cut off and the cut fsynced first.
        if not path.exists():
            return 0
        with open(path, "r+b" if repair else "rb") as fh:
            count, line = 0, b"\n"
            for count, line in enumerate(fh, 1):
                pass
            if repair and not line.endswith(b"\n"):
                fh.truncate(fh.tell() - len(line))
                os.fsync(fh.fileno())
                count -= 1
            return count

    def close(self):
        if self._lock_fd is not None:
            fcntl.flock(self._lock_fd, fcntl.LOCK_UN)
            os.close(self._lock_fd)
            self._lock_fd = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    @contextmanager
    def batch(self):
        """Make the puts inside the block one all-or-nothing write.

        Puts inside the block only encode their documents, in memory, and hand
        out doc_ids; no file changes until the block exits, so a block that
        raises (its doc_ids are handed out again) or a process killed inside
        it leaves the files as they were. On a clean exit each touched file
        gets its lines in one append and one fsync, then the directory is
        fsynced if the batch created a file. If that fails, each touched file
        is cut back to its length at batch start (a created file is removed),
        the cut is fsynced, the doc_ids are handed out again and a
        StorageError propagates. A kill during the exit write can leave part
        of the batch. A batch holds its encoded lines. Batches do not nest.
        """
        if self.read_only:
            raise StorageError("store opened read-only")
        if self._batch is not None:
            raise StorageError("a batch is already open on this store")
        lines = self._batch = {}
        counts = dict(self._counts)
        files = []  # (file, length at batch start, created) per touched collection
        try:
            try:
                yield
                for collection, data in lines.items():
                    path = self._path(collection)
                    created = not path.exists()
                    # Unbuffered, so closing the file cannot write a failed append again.
                    fh = open(path, "ab", buffering=0)
                    files.append((fh, fh.tell(), created))
                    view = memoryview(data)
                    while view:  # write(2) may put down less than asked; go on from there
                        if not (written := fh.write(view)):
                            raise OSError(f"short write: {len(view)} bytes of {path} left")
                        view = view[written:]
                for fh, _, _ in files:
                    os.fsync(fh.fileno())
                if any(created for _, _, created in files):
                    self._fsync_directory()
            except BaseException:
                self._counts = counts
                for fh, size, created in files:
                    fh.truncate(size)
                    os.fsync(fh.fileno())
                    if created:
                        os.unlink(fh.name)
                raise
            finally:
                self._batch = None
                for fh, _, _ in files:
                    fh.close()
        except OSError as exc:
            raise StorageError(f"write failed in {self.directory}: {exc}") from exc

    def _fsync_directory(self):
        # A new file's directory entry is durable only once the directory is fsynced.
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def put(self, collection: str, body: dict) -> int:
        """Validate and encode one document; returns its doc_id.

        Outside a batch the put is a batch of one: the document is durable
        when put returns, and a failed write or fsync leaves the file as it
        was. Inside a batch the document is written at batch exit.
        """
        if self._batch is None:
            with self.batch():
                return self.put(collection, body)
        validate_body(collection, body)
        doc_id = self._counts[collection]
        raw = canonical_json(body).encode("utf-8")
        self._batch.setdefault(collection, bytearray()).extend(
            b'{"body":%s,"doc_id":%d,"len":%d}\n' % (raw, doc_id, len(raw))
        )
        self._counts[collection] = doc_id + 1
        return doc_id

    def scan(self, collection: str) -> Iterator[StoredDocument]:
        """Yield documents of one collection in insertion order, one line at a time."""
        if collection not in COLLECTIONS:
            raise SchemaError(f"unknown collection {collection!r}", path=collection)
        path = self._path(collection)
        if not path.exists():
            return
        try:
            with open(path, "rb") as fh:
                for lineno, line in enumerate(fh, 1):
                    frame = _FRAME.fullmatch(line)
                    try:
                        if frame is None:
                            raise ValueError("not a canonical envelope")
                        raw, doc_id, declared = frame.groups()
                        if declared != b"%d" % len(raw):
                            raise ValueError(f"body is {len(raw)} bytes, len says {declared.decode()}")
                        body, end = _decode_json(text := raw.decode("utf-8"))
                        if end != len(text):
                            raise ValueError(f"extra data after the body at character {end}")
                        validate_body(collection, body)
                        doc = StoredDocument(collection, body, int(doc_id))
                    # SchemaError and UnicodeDecodeError are ValueErrors, as is an over-long number;
                    # a body nested too deeply for the decoder raises RecursionError.
                    except (ValueError, RecursionError) as exc:
                        raise StorageError(f"corrupt record at {path}:{lineno}: {exc}") from exc
                    yield doc
        except OSError as exc:
            raise StorageError(f"scan failed for {path}: {exc}") from exc

    def stats(self) -> StoreStats:
        # Recount from disk so readers agree with what a fresh scan returns.
        return StoreStats(
            tweet_count=self._count_lines(self._path("tweet")),
            photo_count=self._count_lines(self._path("photo")),
        )
