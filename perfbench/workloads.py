"""Workload definitions and the seeded payload generator.

A workload is a directory of payload files in the system's public wire
formats (one tweet JSON document per file, photo search pages and photo
geo entities as XML) plus ``truth.json``, the ground truth the output
checks compare against. The same (workload, seed, scale) always produces
byte-identical files.

Ground truth is derived from the generator's own construction, never by
calling into ``geozones``: which files are malformed, which records carry
a keyword, which positions fall inside the study area, which records are
exact duplicates, and which blob every clustered point was drawn from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import quoteattr

import numpy as np

# The study area of the paper (Aburra and San Nicolas valleys), closed
# intervals: (min_lat, max_lat, min_lon, max_lon).
STUDY_AREA = (5.90, 6.60, -75.80, -75.10)

# Seed of the fixed blob-centre layouts (see _separated_centers).
LAYOUT_SEED = 2014

# The known mislocated record: geotagged far outside the study area.
MISLOCATED = (40.05701649, -75.14310264)

# Texts that match the default keyword query (any of Medellín / Fiesta /
# 4sq.com, accent- and case-insensitive substring).
KEYWORD_PHRASES = ("arriba Medellín", "gran FIESTA hoy", "I'm at Parque Lleras 4sq.com/x")
# Texts that match none of the default keywords in any fold.
OFF_TOPIC_PHRASES = (
    "buenos dias a todos",
    "traffic on the autopista again",
    "cafe con leche y pan",
    "watching the game tonight",
    "lluvia en la tarde",
    "new phone who dis",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seed_salt: int
    # Pipeline settings (passed to geozones.PipelineConfig by the worker).
    eps_km: float
    min_pts: int
    k_min: int
    k_max: int
    include_members: bool
    # Pipeline runs per plain pass, after its one ingest.
    pipeline_runs: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-medellin",
            why="paper settings: ~7k tweets, 10 blobs, eps 5 km, k=10; quadratic DBSCAN dominates time and memory",
            seed_salt=1,
            eps_km=5.0,
            min_pts=5,
            k_min=10,
            k_max=10,
            include_members=False,
        ),
        Workload(
            name="zones-many",
            why="3.5k tweets in 40 tight blobs, eps 0.5 km, X-means k 10..60, members exported; X-means, coverage and export lead",
            seed_salt=2,
            eps_km=0.5,
            min_pts=5,
            k_min=10,
            k_max=60,
            include_members=True,
        ),
        Workload(
            name="ingest-mixed",
            why="17k tweet files plus photo XML, 1% malformed, 90% off-topic; ingest and fsync dominate, clustering is small",
            seed_salt=3,
            eps_km=5.0,
            min_pts=5,
            k_min=10,
            k_max=10,
            include_members=False,
            pipeline_runs=4,
        ),
    )
}


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def _separated_centers(salt: int, count: int, min_sep_deg: float, margin: float) -> np.ndarray:
    """Blob centres inside the study area, pairwise at least ``min_sep_deg`` apart.

    The zones are fixed places: centres come from a layout seed per
    workload, not from the run seed, which draws the points around them.
    Fixed, separated centres keep cluster structure, and with it run time
    and peak memory, alike from one run seed to the next.
    """
    rng = _rng(LAYOUT_SEED, salt)
    min_lat, max_lat, min_lon, max_lon = STUDY_AREA
    centers: list[tuple[float, float]] = []
    for _ in range(100_000):
        if len(centers) == count:
            return np.array(centers)
        c = (
            rng.uniform(min_lat + margin, max_lat - margin),
            rng.uniform(min_lon + margin, max_lon - margin),
        )
        if all(np.hypot(c[0] - a, c[1] - b) >= min_sep_deg for a, b in centers):
            centers.append(c)
    raise RuntimeError(f"cannot place {count} centres {min_sep_deg} deg apart")


def _uniform_in_area(rng, n: int, inset: float = 1e-6) -> np.ndarray:
    min_lat, max_lat, min_lon, max_lon = STUDY_AREA
    return np.column_stack(
        [
            rng.uniform(min_lat + inset, max_lat - inset, n),
            rng.uniform(min_lon + inset, max_lon - inset, n),
        ]
    )


def _inside(lat: float, lon: float) -> bool:
    min_lat, max_lat, min_lon, max_lon = STUDY_AREA
    return min_lat <= lat <= max_lat and min_lon <= lon <= max_lon


def _tweet_json(lat: float | None, lon: float | None, text: str) -> str:
    block = None if lat is None else {"coordinates": [lon, lat], "type": "Point"}
    return json.dumps({"coordinates": block, "source": "perfbench", "text": text})


def _photo_geo_xml(photo_id: str, lat: float, lon: float, accuracy: int) -> str:
    return (
        f'<photo id="{photo_id}">\n'
        f'  <location latitude="{lat!r}" longitude="{lon!r}" accuracy="{accuracy}" />\n'
        "</photo>\n"
    )


def _photo_search_xml(page: int, pages: int, per_page: int, total: int, stubs) -> str:
    rows = "".join(
        f'  <photo id="{pid}" owner="bench@N01" title={quoteattr(title)} ispublic="1" />\n'
        for pid, title in stubs
    )
    return f'<photos page="{page}" pages="{pages}" perpage="{per_page}" total="{total}">\n{rows}</photos>\n'


class _Payloads:
    """Accumulates payload files and the ground truth they imply."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.tweets: list[tuple[str, bool]] = []  # (payload text, malformed)
        self.photo_files: dict[str, str] = {}
        self.skips = {"tweet": [], "photo": []}
        self.photos_stored = 0
        self.clusterable: list[list] = []  # [lat, lon, blob] reaching the bbox filter, inside
        self.clusterable_tweets: list[int] = []  # indices into self.tweets
        self.purged = 0
        self.dup_dropped = 0
        self.records_in = 0
        self.keyword_dropped = 0

    def keyword_text(self) -> str:
        i = len(self.tweets) + len(self.photo_files)
        return f"{KEYWORD_PHRASES[self.rng.integers(len(KEYWORD_PHRASES))]} #{i}"

    def off_topic_text(self) -> str:
        i = len(self.tweets) + len(self.photo_files)
        return f"{OFF_TOPIC_PHRASES[self.rng.integers(len(OFF_TOPIC_PHRASES))]} #{i}"

    def _count_record(self, lat, lon, keyword: bool, blob: int):
        self.records_in += 1
        if not keyword:
            self.keyword_dropped += 1
        elif _inside(lat, lon):
            self.clusterable.append([lat, lon, blob])
        else:
            self.purged += 1

    def tweet(self, lat, lon, keyword: bool, blob: int = -1):
        text = self.keyword_text() if keyword else self.off_topic_text()
        if lat is not None:
            self._count_record(lat, lon, keyword, blob)
            if keyword and _inside(lat, lon):
                self.clusterable_tweets.append(len(self.tweets))
        self.tweets.append((_tweet_json(lat, lon, text), False))

    def malformed_tweet(self):
        i = len(self.tweets)
        if i % 2:
            payload = '{"coordinates": {"coordinates": [-75.5, 6.2], "type": "Point"}, "text": "cut'
        else:
            payload = '{"coordinates": {"coordinates": [-75.5, 6.2], "type": "Polygon"}, "text": "x"}'
        self.tweets.append((payload, True))

    def write(self, out: Path, order: np.ndarray) -> dict:
        """Write tweets in ``order`` (file name order is replay order)."""
        tweet_dir = out / "tweet"
        tweet_dir.mkdir(parents=True)
        items = [self.tweets[i] for i in order]
        for i, (payload, malformed) in enumerate(items):
            name = f"t{i:06d}.json"
            (tweet_dir / name).write_text(payload, encoding="utf-8")
            if malformed:
                self.skips["tweet"].append(name)
        if self.photo_files:
            photo_dir = out / "photo"
            photo_dir.mkdir()
            for name, payload in sorted(self.photo_files.items()):
                (photo_dir / name).write_text(payload, encoding="utf-8")
        n_tweet_files = len(items)
        return {
            "files": {"tweet": n_tweet_files, "photo": len(self.photo_files)},
            "skips": {k: sorted(v) for k, v in self.skips.items()},
            "stored": {
                "tweet": n_tweet_files - len(self.skips["tweet"]),
                "photo": self.photos_stored,
            },
            "corpus": {
                "records_in": self.records_in,
                "keyword_dropped": self.keyword_dropped,
                "bbox_purged": self.purged,
                "dup_dropped": self.dup_dropped,
                "clusterable": len(self.clusterable),
            },
            "clusterable_points": self.clusterable,
        }


def _blob_tweets(b: _Payloads, centers: np.ndarray, n_per: int, sigma: float):
    for blob, (lat, lon) in enumerate(centers):
        for d_lat, d_lon in b.rng.normal(0.0, sigma, size=(n_per, 2)):
            b.tweet(float(lat + d_lat), float(lon + d_lon), keyword=True, blob=blob)


def _blobs_with_noise(seed: int, salt: int, scale: float, n_blobs: int, n_per: int,
                      sigma: float, min_sep: float, no_geo_share: float):
    rng = _rng(seed, salt)
    b = _Payloads(rng)
    n_per = max(6, round(n_per * scale))
    centers = _separated_centers(salt, n_blobs, min_sep, margin=0.05)
    _blob_tweets(b, centers, n_per, sigma)
    n_noise = round(0.10 * n_blobs * n_per)
    for lat, lon in _uniform_in_area(rng, n_noise):
        b.tweet(float(lat), float(lon), keyword=True)
    for _ in range(round(no_geo_share * len(b.tweets))):
        b.tweet(None, None, keyword=True)
    b.tweet(*MISLOCATED, keyword=True)
    order = rng.permutation(len(b.tweets))
    return b, centers, order


def generate(name: str, seed: int, out: Path, scale: float = 1.0) -> dict:
    """Write workload ``name`` for ``seed`` under ``out``; return its truth."""
    out = Path(out)
    w = WORKLOADS[name]
    if name == "paper-medellin":
        b, centers, order = _blobs_with_noise(
            seed, w.seed_salt, scale, n_blobs=10, n_per=600, sigma=0.01, min_sep=0.15,
            no_geo_share=0.05,
        )
    elif name == "zones-many":
        b, centers, order = _blobs_with_noise(
            seed, w.seed_salt, scale, n_blobs=40, n_per=80, sigma=0.003, min_sep=0.05,
            no_geo_share=0.0,
        )
    else:
        b, centers, order = _mixed(seed, w.seed_salt, scale)
    truth = b.write(out, order)
    truth.update(
        workload=name,
        seed=seed,
        scale=scale,
        blob_centers=centers.tolist(),
        mislocated=list(MISLOCATED),
        study_area=list(STUDY_AREA),
    )
    (out / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    return truth


def _mixed(seed: int, salt: int, scale: float):
    """Mostly off-topic tweets, a photo join, malformed files and duplicates."""
    rng = _rng(seed, salt)
    b = _Payloads(rng)
    centers = _separated_centers(salt, 10, 0.15, margin=0.05)
    n_on = max(30, round(1500 * scale))
    n_off = max(30, round(14_850 * scale))
    n_malformed = max(2, round(160 * scale))

    # On-topic: 95% in blobs (5% of those with no geo), plus a few outside
    # the study area and the mislocated record.
    for _ in range(n_on):
        if rng.random() < 0.05:
            b.tweet(None, None, keyword=True)
            continue
        blob = int(rng.integers(len(centers)))
        lat, lon = centers[blob] + rng.normal(0.0, 0.01, 2)
        b.tweet(float(lat), float(lon), keyword=True, blob=blob)
    for _ in range(max(1, round(10 * scale))):
        b.tweet(float(rng.uniform(6.7, 7.0)), float(rng.uniform(-75.8, -75.1)), keyword=True)
    b.tweet(*MISLOCATED, keyword=True)
    # Off-topic: 80% geotagged anywhere in a wider region.
    for _ in range(n_off):
        if rng.random() < 0.2:
            b.tweet(None, None, keyword=False)
        else:
            b.tweet(float(rng.uniform(5.5, 7.0)), float(rng.uniform(-76.2, -74.7)), keyword=False)
    for _ in range(n_malformed):
        b.malformed_tweet()
    order = list(rng.permutation(len(b.tweets)))
    # Exact duplicate files go last so they follow their originals and
    # dedupe keeps the original.
    for i in rng.choice(b.clusterable_tweets, size=max(1, round(20 * scale)), replace=False):
        b.tweets.append(b.tweets[int(i)])
        b.records_in += 1
        b.dup_dropped += 1
        order.append(len(b.tweets) - 1)

    # Photos: geo entities joined with titles from search pages. 90% of the
    # entities have a search stub; 10% of titles carry a keyword.
    n_photos = max(20, round(800 * scale))
    stubs = []
    for p in range(n_photos):
        pid = f"{seed % 1000:03d}{p:06d}"
        keyword = rng.random() < 0.10
        if rng.random() < 0.5:
            blob = int(rng.integers(len(centers)))
            lat, lon = (float(v) for v in centers[blob] + rng.normal(0.0, 0.01, 2))
        else:
            blob = -1
            lat, lon = (float(v) for v in _uniform_in_area(rng, 1)[0])
        has_stub = rng.random() < 0.9
        title = (b.keyword_text() if keyword else b.off_topic_text()) if has_stub else ""
        b.photo_files[f"g{p:06d}.xml"] = _photo_geo_xml(pid, lat, lon, int(rng.integers(1, 17)))
        b.photos_stored += 1
        b._count_record(lat, lon, keyword and has_stub, blob)
        if has_stub:
            stubs.append((pid, title))
    per_page = 10
    pages = -(-len(stubs) // per_page)
    for page in range(pages):
        chunk = stubs[page * per_page:(page + 1) * per_page]
        b.photo_files[f"s{page:05d}.xml"] = _photo_search_xml(
            page + 1, pages, per_page, len(stubs), chunk
        )
    n_bad_photos = max(2, round(10 * scale))
    for j in range(n_bad_photos):
        name = f"x{j:05d}.xml"
        if j % 2:
            b.photo_files[name] = '<photo id="9"><location latitude="6.2" longitude="-75.5"'
        else:
            b.photo_files[name] = _photo_geo_xml("9", 6.2, -75.5, 0)  # accuracy out of range
        b.skips["photo"].append(name)
    return b, centers, np.array(order)

