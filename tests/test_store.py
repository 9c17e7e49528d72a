import builtins
import errno
import json
import os
import re
import stat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geozones import store as store_module
from geozones.errors import SchemaError, StorageError
from geozones.geo import GeoPoint
from geozones.ingest import PhotoRecord, RawTweet
from geozones.store import COLLECTIONS, DocumentStore, canonical_json, photo_body, tweet_body

VALID_PHOTO = {"geo": {"latitude": 6.24, "longitude": -75.58, "accuracy": 6}, "name": "parque"}
VALID_TWEET = {
    "coordinates": {"coordinates": {"latitude": 6.24, "longitude": -75.58}, "type": "Point"},
    "source": "app",
    "text": "hola",
}
UNTAGGED_TWEET = {"coordinates": None, "source": "app", "text": "sin posición"}


class TestPut:
    def test_photo_round_trip(self, tmp_path):
        with DocumentStore(tmp_path) as store:
            doc_id = store.put("photo", VALID_PHOTO)
            [doc] = store.scan("photo")
            assert doc.doc_id == doc_id
            assert doc.body == VALID_PHOTO

    def test_missing_nested_field_names_path(self, tmp_path):
        body = {"geo": {"latitude": 6.24, "accuracy": 6}, "name": "x"}
        with DocumentStore(tmp_path) as store:
            with pytest.raises(SchemaError) as excinfo:
                store.put("photo", body)
        assert excinfo.value.path == "photo.geo.longitude"

    def test_identical_bodies_get_distinct_ids(self, tmp_path):
        with DocumentStore(tmp_path) as store:
            first = store.put("tweet", VALID_TWEET)
            second = store.put("tweet", VALID_TWEET)
        assert first != second

    @pytest.mark.parametrize("latitude", [95.0, 10**400], ids=["95.0", "10**400"])
    def test_out_of_range_latitude_rejected(self, tmp_path, latitude):
        body = {"geo": {"latitude": latitude, "longitude": 0.0, "accuracy": 6}, "name": "x"}
        with DocumentStore(tmp_path) as store:
            with pytest.raises(SchemaError):
                store.put("photo", body)

    def test_tweet_without_coordinates_is_valid(self, tmp_path):
        with DocumentStore(tmp_path) as store:
            store.put("tweet", UNTAGGED_TWEET)
            assert store.stats().tweet_count == 1

    def test_nothing_persisted_on_validation_failure(self, tmp_path):
        with DocumentStore(tmp_path) as store:
            with pytest.raises(SchemaError):
                store.put("tweet", {"source": "app"})
            assert store.stats().tweet_count == 0

    @pytest.mark.parametrize(
        "collection, body, path",
        [
            ("tweet", dict(VALID_TWEET, text="fiesta \ud800"), "tweet.text"),
            ("tweet", dict(VALID_TWEET, source="\udfff"), "tweet.source"),
            ("photo", dict(VALID_PHOTO, name="parque \ud800"), "photo.name"),
        ],
        ids=["text", "source", "name"],
    )
    def test_lone_surrogate_rejected_and_nothing_written(self, tmp_path, collection, body, path):
        valid = VALID_TWEET if collection == "tweet" else VALID_PHOTO
        file = tmp_path / f"{collection}.jsonl"
        with DocumentStore(tmp_path) as store:
            store.put(collection, valid)
            size = file.stat().st_size
            with pytest.raises(SchemaError) as excinfo:
                store.put(collection, body)
            assert excinfo.value.path == path
            assert file.stat().st_size == size
            assert store.put(collection, valid) == 1

    def test_durability_across_reopen(self, tmp_path):
        with DocumentStore(tmp_path) as store:
            doc_id = store.put("photo", VALID_PHOTO)
        with DocumentStore(tmp_path) as store:
            [doc] = store.scan("photo")
            assert doc.doc_id == doc_id
            assert doc.body == VALID_PHOTO
            assert store.put("photo", VALID_PHOTO) == doc_id + 1


class TestScan:
    def test_insertion_order(self, tmp_path):
        bodies = [dict(VALID_TWEET, text=f"t{i}") for i in range(3)]
        with DocumentStore(tmp_path) as store:
            for body in bodies:
                store.put("tweet", body)
            scanned = list(store.scan("tweet"))
        assert [d.body["text"] for d in scanned] == ["t0", "t1", "t2"]
        assert [d.doc_id for d in scanned] == [0, 1, 2]

    def test_empty_store(self, tmp_path):
        with DocumentStore(tmp_path) as store:
            assert list(store.scan("tweet")) == []
            assert list(store.scan("photo")) == []

    def test_corrupt_line_detected(self, tmp_path):
        with DocumentStore(tmp_path) as store:
            store.put("tweet", VALID_TWEET)
        path = tmp_path / "tweet.jsonl"
        line = json.loads(path.read_text(encoding="utf-8"))
        line["body"]["text"] = "tampered beyond the declared length"
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        with DocumentStore(tmp_path) as store:
            with pytest.raises(StorageError):
                list(store.scan("tweet"))

    @pytest.mark.parametrize(
        "body",
        [
            {k: v for k, v in VALID_TWEET.items() if k != "text"},
            dict(VALID_TWEET, text="fiesta \ud800"),
            dict(VALID_TWEET, coordinates={"type": "Point", "coordinates": {"latitude": 95.0, "longitude": 0.0}}),
        ],
        ids=["missing-text", "lone-surrogate", "latitude-out-of-range"],
    )
    def test_off_schema_body_names_line(self, tmp_path, body):
        with DocumentStore(tmp_path) as store:
            store.put("tweet", VALID_TWEET)
        path = tmp_path / "tweet.jsonl"
        # An intact envelope with the right length; only the body breaks the schema.
        declared = len(canonical_json(body).encode("utf-8", "surrogatepass"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"doc_id": 1, "len": declared, "body": body}) + "\n")
        with DocumentStore(tmp_path, read_only=True) as store:
            with pytest.raises(StorageError) as excinfo:
                list(store.scan("tweet"))
        assert f"{path}:2:" in str(excinfo.value)


    @pytest.mark.parametrize("line", ["[1,2]", "7", '"body"', "null"], ids=["array", "number", "string", "null"])
    def test_non_object_line_names_line(self, tmp_path, line):
        with DocumentStore(tmp_path) as store:
            store.put("tweet", VALID_TWEET)
        path = tmp_path / "tweet.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with DocumentStore(tmp_path, read_only=True) as store:
            with pytest.raises(StorageError) as excinfo:
                list(store.scan("tweet"))
        assert f"{path}:2:" in str(excinfo.value)

class TestTornTail:
    """A put torn by a crash leaves a last line without its newline; the next writer cuts it off."""

    @pytest.mark.parametrize("intact", [0, 2])
    def test_writer_drops_torn_last_record_at_every_cut(self, tmp_path, intact):
        bodies = [dict(VALID_TWEET, text=f"t{i}") for i in range(intact + 1)]
        with DocumentStore(tmp_path / "full") as store:
            for body in bodies:
                store.put("tweet", body)
        data = (tmp_path / "full" / "tweet.jsonl").read_bytes()
        last_start = data.rindex(b"\n", 0, len(data) - 1) + 1 if intact else 0
        # From the whole last line gone to only its newline gone.
        for cut in range(last_start, len(data)):
            directory = tmp_path / f"cut{cut}"
            directory.mkdir()
            (directory / "tweet.jsonl").write_bytes(data[:cut])
            new = dict(VALID_TWEET, text="after the crash")
            with DocumentStore(directory) as store:
                assert store.put("tweet", new) == intact
            with DocumentStore(directory, read_only=True) as store:
                docs = list(store.scan("tweet"))
            assert [d.body for d in docs] == bodies[:intact] + [new]
            assert [d.doc_id for d in docs] == list(range(intact + 1))

    def test_reader_still_rejects_torn_tail(self, tmp_path):
        with DocumentStore(tmp_path) as store:
            for i in range(3):
                store.put("tweet", dict(VALID_TWEET, text=f"t{i}"))
        path = tmp_path / "tweet.jsonl"
        path.write_bytes(path.read_bytes()[:-10])
        with DocumentStore(tmp_path, read_only=True) as store:
            with pytest.raises(StorageError) as excinfo:
                list(store.scan("tweet"))
        assert f"{path}:3:" in str(excinfo.value)
        assert len(path.read_bytes().splitlines()) == 3

    def test_corrupt_middle_line_still_raises(self, tmp_path):
        with DocumentStore(tmp_path) as store:
            for i in range(3):
                store.put("tweet", dict(VALID_TWEET, text=f"t{i}"))
        path = tmp_path / "tweet.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(lines[0] + lines[1].replace(b"t1", b"t1 tampered") + lines[2])
        with DocumentStore(tmp_path) as store:
            assert store.put("tweet", VALID_TWEET) == 3
            with pytest.raises(StorageError) as excinfo:
                list(store.scan("tweet"))
        assert f"{path}:2:" in str(excinfo.value)


class TestFailedPut:
    """A put whose write or fsync fails raises StorageError and leaves the file as it was."""

    @staticmethod
    def ids_and_texts(directory):
        with DocumentStore(directory, read_only=True) as store:
            return [(d.doc_id, d.body["text"]) for d in store.scan("tweet")]

    def test_write_stopped_half_way(self, tmp_path, monkeypatch):
        class HalfWrite:
            """A file whose write puts down half of the data, then finds the disk full."""

            def __init__(self, fh):
                self._fh = fh

            def write(self, data):
                self._fh.write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def __getattr__(self, name):
                return getattr(self._fh, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self._fh.close()

        with DocumentStore(tmp_path) as store:
            store.put("tweet", dict(VALID_TWEET, text="t0"))
            monkeypatch.setattr(store_module, "open", lambda *a, **kw: HalfWrite(builtins.open(*a, **kw)), raising=False)
            with pytest.raises(StorageError):
                store.put("tweet", dict(VALID_TWEET, text="t1"))
            monkeypatch.undo()
            assert store.put("tweet", dict(VALID_TWEET, text="t2")) == 1
        assert self.ids_and_texts(tmp_path) == [(0, "t0"), (1, "t2")]

    def test_fsync_failed_after_a_full_write(self, tmp_path, monkeypatch):
        fsync, failures = os.fsync, [OSError(errno.EIO, os.strerror(errno.EIO))]

        def fsync_failing_once(fd):
            if failures:
                raise failures.pop()
            fsync(fd)

        with DocumentStore(tmp_path) as store:
            store.put("tweet", dict(VALID_TWEET, text="t0"))
            monkeypatch.setattr(os, "fsync", fsync_failing_once)
            with pytest.raises(StorageError):
                store.put("tweet", dict(VALID_TWEET, text="t1"))
            assert store.put("tweet", dict(VALID_TWEET, text="t2")) == 1
        assert self.ids_and_texts(tmp_path) == [(0, "t0"), (1, "t2")]


class FailingWrite:
    """A file whose write number ``countdown[0]``, counted over every wrapper sharing the
    list, puts down half of its data and then fails with ENOSPC (with ``short``, returns
    the shorter count instead)."""

    def __init__(self, fh, countdown: list, short: bool):
        self._fh, self._countdown, self._short = fh, countdown, short

    def write(self, data):
        self._countdown[0] -= 1
        if self._countdown[0]:
            return self._fh.write(data)
        written = self._fh.write(data[: len(data) // 2])
        if self._short:
            return written
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, name):
        return getattr(self._fh, name)


class TestBatch:
    """A batch makes all of its puts durable at exit, or leaves both files as they were."""

    PUTS = [
        ("tweet", dict(VALID_TWEET, text="b0")),
        ("photo", dict(VALID_PHOTO, name="b1")),
        ("tweet", dict(VALID_TWEET, text="b2")),
        ("photo", dict(VALID_PHOTO, name="b3")),
        ("tweet", dict(VALID_TWEET, text="b4")),
    ]

    @staticmethod
    def open_store(directory, state):
        """A writable store holding nothing, or one tweet and one photo."""
        store = DocumentStore(directory)
        if state == "seeded":
            store.put("tweet", VALID_TWEET)
            store.put("photo", VALID_PHOTO)
        return store

    @staticmethod
    def files(directory):
        return {c: (directory / f"{c}.jsonl").read_bytes() for c in COLLECTIONS if (directory / f"{c}.jsonl").exists()}

    def run_batch(self, store):
        with store.batch():
            for collection, body in self.PUTS:
                store.put(collection, body)

    def assert_as_before(self, store, directory, before, state):
        assert self.files(directory) == before
        held = 1 if state == "seeded" else 0
        assert store.put("tweet", VALID_TWEET) == held
        assert store.put("photo", VALID_PHOTO) == held

    @pytest.mark.parametrize("state", ["empty", "seeded"])
    @pytest.mark.parametrize("short", [False, True], ids=["error", "short"])
    @pytest.mark.parametrize("k", [1, 2, 4, 5])
    def test_write_failing_at_kth_put(self, tmp_path, monkeypatch, state, short, k):
        with self.open_store(tmp_path, state) as store:
            before = self.files(tmp_path)
            countdown = [k]
            monkeypatch.setattr(
                store_module, "open", lambda *a, **kw: FailingWrite(builtins.open(*a, **kw), countdown, short), raising=False
            )
            with pytest.raises(StorageError, match="No space left|short write"):
                self.run_batch(store)
            monkeypatch.undo()
            self.assert_as_before(store, tmp_path, before, state)

    @pytest.mark.parametrize("state, failing", [("seeded", 1), ("seeded", 2), ("empty", 1), ("empty", 3)])
    def test_fsync_failing_at_exit(self, tmp_path, monkeypatch, state, failing):
        # The third fsync of a batch that created both files is the directory's.
        fsync, countdown = os.fsync, [failing]

        def fsync_failing_once(fd):
            countdown[0] -= 1
            if countdown[0] == 0:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            fsync(fd)

        with self.open_store(tmp_path, state) as store:
            before = self.files(tmp_path)
            monkeypatch.setattr(os, "fsync", fsync_failing_once)
            with pytest.raises(StorageError, match="Input/output error"):
                self.run_batch(store)
            monkeypatch.undo()
            self.assert_as_before(store, tmp_path, before, state)

    @pytest.mark.parametrize("state", ["empty", "seeded"])
    def test_caller_exception(self, tmp_path, state):
        with self.open_store(tmp_path, state) as store:
            before = self.files(tmp_path)
            with pytest.raises(ValueError, match="caller"):
                with store.batch():
                    for collection, body in self.PUTS:
                        store.put(collection, body)
                    raise ValueError("caller gave up")
            self.assert_as_before(store, tmp_path, before, state)

    def test_caller_going_on_after_a_failed_put(self, tmp_path, monkeypatch):
        # The failed put left half a line, so nothing after it may be kept either.
        with self.open_store(tmp_path, "seeded") as store:
            before = self.files(tmp_path)
            countdown = [2]
            monkeypatch.setattr(
                store_module, "open", lambda *a, **kw: FailingWrite(builtins.open(*a, **kw), countdown, False), raising=False
            )
            with pytest.raises(StorageError, match="after a failed put"):
                with store.batch():
                    store.put(*self.PUTS[0])
                    for collection, body in self.PUTS[1:]:
                        with pytest.raises(StorageError):
                            store.put(collection, body)
            monkeypatch.undo()
            self.assert_as_before(store, tmp_path, before, "seeded")

    @pytest.mark.parametrize(
        "state, puts, synced",
        [
            ("seeded", PUTS, ["file", "file"]),
            ("seeded", PUTS[::2], ["file"]),
            ("empty", PUTS, ["file", "file", "dir"]),
            ("empty", PUTS[:1], ["file", "dir"]),
        ],
        ids=["both-files", "one-file", "both-created", "one-created"],
    )
    def test_clean_batch_fsyncs_each_touched_file_once(self, tmp_path, monkeypatch, state, puts, synced):
        fsync, seen = os.fsync, []

        def counting_fsync(fd):
            seen.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            fsync(fd)

        with self.open_store(tmp_path, state) as store:
            held = {c: len(list(store.scan(c))) for c in COLLECTIONS}
            monkeypatch.setattr(store_module.os, "fsync", counting_fsync)
            with store.batch():
                ids = [store.put(collection, body) for collection, body in puts]
            monkeypatch.undo()
        assert seen == synced
        expected = dict(held)
        for (collection, _), doc_id in zip(puts, ids):
            assert doc_id == expected[collection]
            expected[collection] += 1
        with DocumentStore(tmp_path, read_only=True) as store:
            stored = {c: [d.body for d in store.scan(c)][held[c]:] for c in COLLECTIONS}
        assert stored == {c: [b for col, b in puts if col == c] for c in COLLECTIONS}

    def test_put_outside_a_batch_fsyncs_once(self, tmp_path, monkeypatch):
        fsync, seen = os.fsync, []
        with self.open_store(tmp_path, "seeded") as store:
            monkeypatch.setattr(store_module.os, "fsync", lambda fd: seen.append(fd) or fsync(fd))
            assert store.put("tweet", VALID_TWEET) == 1
        assert len(seen) == 1

    def test_batches_do_not_nest(self, tmp_path):
        with self.open_store(tmp_path, "empty") as store:
            with store.batch():
                store.put("tweet", VALID_TWEET)
                with pytest.raises(StorageError, match="already open"):
                    with store.batch():
                        pass
            assert [d.doc_id for d in store.scan("tweet")] == [0]


def framed(body: dict, doc_id="1", length=None) -> str:
    """A stored line for ``body``: the canonical envelope, with ``len`` overridable."""
    text = canonical_json(body)
    length = len(text.encode("utf-8")) if length is None else length
    return f'{{"body":{text},"doc_id":{doc_id},"len":{length}}}'


BODY = canonical_json(VALID_TWEET)
N = len(BODY.encode("utf-8"))
# Text that JSON escapes, or that some line splitters treat as a line break.
AWKWARD_TEXT = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)) | st.sampled_from('"\\\x00\x1f\n\r\u2028\u2029ñ'),
    max_size=12,
)
COORDS = st.tuples(st.floats(-90, 90), st.floats(-180, 180))


def tweet_at(point, text) -> dict:
    block = None if point is None else {
        "coordinates": {"latitude": point[0], "longitude": point[1]},
        "type": "Point",
    }
    return {"coordinates": block, "source": text[::-1], "text": text}


def photo_at(point, text) -> dict:
    return {"geo": {"latitude": point[0], "longitude": point[1], "accuracy": 16}, "name": text}


class TestFrame:
    """A line is ``{"body":`` + body + ``,"doc_id":n,"len":m}`` with an m-byte body."""

    def _scan_after_valid(self, tmp_path, line, valid=1):
        """Put ``valid`` tweets, append ``line``; return (documents read, error message)."""
        with DocumentStore(tmp_path) as store:
            for _ in range(valid):
                store.put("tweet", VALID_TWEET)
        with open(tmp_path / "tweet.jsonl", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        docs = []
        with DocumentStore(tmp_path, read_only=True) as store:
            with pytest.raises(StorageError) as excinfo:
                for doc in store.scan("tweet"):
                    docs.append(doc)
        return docs, str(excinfo.value)

    def test_put_writes_the_frame(self, tmp_path):
        with DocumentStore(tmp_path) as store:
            store.put("tweet", VALID_TWEET)
            store.put("tweet", UNTAGGED_TWEET)
        lines = (tmp_path / "tweet.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines == [framed(VALID_TWEET, doc_id=0), framed(UNTAGGED_TWEET, doc_id=1)]

    @pytest.mark.parametrize("text", ["holas", "hol"], ids=["one-byte-longer", "one-byte-shorter"])
    def test_body_length_differs_from_len(self, tmp_path, text):
        _, error = self._scan_after_valid(tmp_path, framed(dict(VALID_TWEET, text=text), length=N))
        assert f"{tmp_path / 'tweet.jsonl'}:2: body is" in error

    @pytest.mark.parametrize(
        "doc_id, length",
        [("01", N), ("+1", N), ("-1", N), ("1", f"0{N}"), ("1", f"+{N}"), ("1", f"-{N}")],
        ids=["id-leading-zero", "id-plus", "id-minus", "len-leading-zero", "len-plus", "len-minus"],
    )
    def test_padded_or_signed_number_rejected(self, tmp_path, doc_id, length):
        _, error = self._scan_after_valid(tmp_path, framed(VALID_TWEET, doc_id=doc_id, length=length))
        assert f"{tmp_path / 'tweet.jsonl'}:2: not a canonical envelope" in error

    @pytest.mark.parametrize(
        "line",
        [
            json.dumps({"body": VALID_TWEET, "doc_id": 1, "len": N}, ensure_ascii=False),
            f'{{"body":{BODY},"len":{N},"doc_id":1}}',
            f'{{"doc_id":1,"len":{N},"body":{BODY}}}',
            framed(VALID_TWEET) + " ",
            framed(VALID_TWEET) + "\r",
        ],
        ids=["spaces", "len-before-doc-id", "body-last", "trailing-space", "carriage-return"],
    )
    def test_non_canonical_envelope_rejected(self, tmp_path, line):
        _, error = self._scan_after_valid(tmp_path, line)
        assert f"{tmp_path / 'tweet.jsonl'}:2: not a canonical envelope" in error

    def test_corrupt_line_after_valid_ones(self, tmp_path):
        docs, error = self._scan_after_valid(tmp_path, framed(VALID_TWEET)[:-9], valid=3)
        assert [d.doc_id for d in docs] == [0, 1, 2]
        assert f"{tmp_path / 'tweet.jsonl'}:4:" in error

    def test_deeply_nested_body_names_line(self, tmp_path):
        text = "[" * 100_000 + "]" * 100_000
        _, error = self._scan_after_valid(tmp_path, f'{{"body":{text},"doc_id":1,"len":{len(text)}}}')
        assert f"{tmp_path / 'tweet.jsonl'}:2:" in error

    def test_body_with_trailing_data_rejected(self, tmp_path):
        text = BODY + " 7"
        _, error = self._scan_after_valid(tmp_path, f'{{"body":{text},"doc_id":1,"len":{len(text)}}}')
        assert f"{tmp_path / 'tweet.jsonl'}:2:" in error

    @settings(max_examples=40, deadline=None)
    @given(
        tweets=st.lists(st.builds(tweet_at, st.none() | COORDS, AWKWARD_TEXT), max_size=5),
        photos=st.lists(st.builds(photo_at, COORDS, AWKWARD_TEXT), max_size=5),
    )
    def test_put_scan_round_trip(self, tmp_path_factory, tweets, photos):
        directory = tmp_path_factory.mktemp("store")
        with DocumentStore(directory) as store:
            for body in tweets:
                store.put("tweet", body)
            for body in photos:
                store.put("photo", body)
            for collection, bodies in (("tweet", tweets), ("photo", photos)):
                scanned = list(store.scan(collection))
                assert [d.doc_id for d in scanned] == list(range(len(bodies)))
                assert [d.body for d in scanned] == bodies
                # == takes -0.0 for 0.0; the floats' reprs must match too.
                assert [canonical_json(d.body) for d in scanned] == list(map(canonical_json, bodies))


# Tokens that have broken, or could break, a reader: invalid UTF-8, a lone
# surrogate escaped and raw, NUL, a number too long to convert, nesting too
# deep to decode, an overflowing float, signed and padded numbers, and extra
# frame keys.
HOSTILE = [
    b"\xff",
    b"\\ud800",
    "\ud800".encode("utf-8", "surrogatepass"),
    b"\x00",
    b"9" * 5000,
    b"[" * 3000,
    b"1e400",
    b"-0",
    b"00",
    b'"len":',
    b'"doc_id":',
    b',"len":1',
    b',"doc_id":0',
]


@st.composite
def stored_lines(draw):
    """A canonical envelope around the tweet body or a hostile token, with tokens or random bytes spliced in."""

    def splice(data: bytes, edits: int) -> bytes:
        for _ in range(edits):
            at = draw(st.integers(0, len(data)))
            piece = draw(st.sampled_from(HOSTILE) | st.binary(max_size=8))
            data = data[:at] + piece + data[at + draw(st.integers(0, 6)) :]
        return data

    body = splice(draw(st.sampled_from([BODY.encode("utf-8")] + HOSTILE)), draw(st.integers(0, 3)))
    length = len(body) if draw(st.booleans()) else draw(st.integers(0, 2 * len(body)))
    line = b'{"body":%s,"doc_id":%d,"len":%d}' % (body, draw(st.integers(0, 2)), length)
    return splice(line, draw(st.integers(0, 2)))


class TestLineContract:
    """Whatever bytes a line holds, ``scan`` returns a body or raises StorageError naming path:line."""

    @settings(max_examples=120, deadline=None)
    @given(line=stored_lines() | st.binary(max_size=64))
    def test_any_line_reads_or_names_its_line(self, tmp_path_factory, line):
        directory = tmp_path_factory.mktemp("store")
        path = directory / "tweet.jsonl"
        path.write_bytes(framed(VALID_TWEET, doc_id=0).encode("utf-8") + b"\n" + line + b"\n")
        with DocumentStore(directory, read_only=True) as store:
            try:
                docs = list(store.scan("tweet"))
            except StorageError as exc:
                assert re.match(rf"corrupt record at {re.escape(str(path))}:[0-9]+: ", str(exc)), exc
            else:
                assert docs[0].body == VALID_TWEET
                assert all(isinstance(d.body, dict) for d in docs)

    # Seeded with each token as a whole body under a frame with the right len.
    for token in [BODY.encode("utf-8")] + HOSTILE:
        test_any_line_reads_or_names_its_line = example(line=b'{"body":%s,"doc_id":1,"len":%d}' % (token, len(token)))(
            test_any_line_reads_or_names_its_line
        )
    del token


class TestStats:
    def test_fresh_store(self, tmp_path):
        with DocumentStore(tmp_path) as store:
            stats = store.stats()
        assert (stats.tweet_count, stats.photo_count) == (0, 0)

    def test_counts_after_puts(self, tmp_path):
        with DocumentStore(tmp_path) as store:
            for _ in range(5):
                store.put("tweet", VALID_TWEET)
            assert store.stats().tweet_count == 5
            assert store.stats().photo_count == 0

    @settings(max_examples=25, deadline=None)
    @given(workload=st.lists(st.sampled_from(["tweet", "photo"]), max_size=12))
    def test_counts_equal_scan_lengths(self, tmp_path_factory, workload):
        directory = tmp_path_factory.mktemp("store")
        with DocumentStore(directory) as store:
            for collection in workload:
                store.put(collection, VALID_TWEET if collection == "tweet" else VALID_PHOTO)
            stats = store.stats()
            assert stats.tweet_count == len(list(store.scan("tweet")))
            assert stats.photo_count == len(list(store.scan("photo")))


class TestLocking:
    def test_second_writer_rejected(self, tmp_path):
        with DocumentStore(tmp_path):
            with pytest.raises(StorageError):
                DocumentStore(tmp_path)

    def test_reader_allowed_alongside_writer(self, tmp_path):
        with DocumentStore(tmp_path) as writer:
            writer.put("tweet", VALID_TWEET)
            reader = DocumentStore(tmp_path, read_only=True)
            assert len(list(reader.scan("tweet"))) == 1

    def test_read_only_store_rejects_put(self, tmp_path):
        DocumentStore(tmp_path).close()
        reader = DocumentStore(tmp_path, read_only=True)
        with pytest.raises(StorageError):
            reader.put("tweet", VALID_TWEET)

    def test_lock_released_on_close(self, tmp_path):
        DocumentStore(tmp_path).close()
        DocumentStore(tmp_path).close()

    def test_read_only_missing_directory_rejected_and_not_created(self, tmp_path):
        missing = tmp_path / "nosuch"
        with pytest.raises(StorageError, match="nosuch"):
            DocumentStore(missing, read_only=True)
        assert not missing.exists()


class TestBodyBuilders:
    def test_tweet_body_shape(self):
        raw = RawTweet(coordinates=GeoPoint(6.24, -75.58), source="app", text="hola")
        assert tweet_body(raw) == VALID_TWEET | {"source": "app", "text": "hola"}

    def test_untagged_tweet_body(self):
        raw = RawTweet(coordinates=None, source="app", text="x")
        assert tweet_body(raw)["coordinates"] is None

    def test_photo_body_shape(self):
        record = PhotoRecord(photo_id="1", name="parque", location=GeoPoint(6.24, -75.58), accuracy=6)
        assert photo_body(record) == VALID_PHOTO
