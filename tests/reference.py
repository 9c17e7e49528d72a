"""Record-at-a-time corpus stages, the reference for the columnar corpus.

These are the per-record forms of ``geozones.corpus``'s stages: normalize
one stored document into a ``CorpusRecord``, then filter lists of records
by keyword, bounding box and duplicates. They are kept here as written and
never imported from ``src/``, so ``pipeline.build_corpus`` is checked
against a second, independent implementation. Only the data types come
from the package.
"""

from __future__ import annotations

import unicodedata

from geozones.corpus import CorpusRecord
from geozones.geo import GeoPoint
from geozones.store import StoredDocument


def fold_text(text: str) -> str:
    """NFD decomposition with combining marks stripped, then casefold."""
    decomposed = unicodedata.normalize("NFD", text)
    stripped = "".join(ch for ch in decomposed if unicodedata.category(ch) != "Mn")
    return stripped.casefold()


def normalize(doc: StoredDocument) -> CorpusRecord | None:
    """A tweet's text or a photo's name at its position; None for an unlocated tweet."""
    if doc.collection == "tweet":
        block = doc.body.get("coordinates")
        if block is None:
            return None
        inner = block["coordinates"]
        position = GeoPoint(inner["latitude"], inner["longitude"])
        text = doc.body["text"]
    else:
        geo = doc.body["geo"]
        position = GeoPoint(geo["latitude"], geo["longitude"])
        text = doc.body["name"]
    return CorpusRecord(position=position, text=text, origin=doc.collection, source_doc_id=doc.doc_id)


def filter_keywords(records, query) -> list[CorpusRecord]:
    """Records whose folded text contains the folded terms (any or all of them)."""
    folded_terms = [fold_text(t) for t in query.terms]
    combine = any if query.mode == "any" else all
    kept = []
    for record in records:
        haystack = fold_text(record.text)
        if combine(term in haystack for term in folded_terms):
            kept.append(record)
    return kept


def filter_bbox(records, box) -> tuple[list[CorpusRecord], list[CorpusRecord]]:
    """(inside, purged) by closed-interval containment: edge points are inside."""
    inside, purged = [], []
    for record in records:
        lat, lon = record.position.lat_deg, record.position.lon_deg
        contained = box.min_lat <= lat <= box.max_lat and box.min_lon <= lon <= box.max_lon
        (inside if contained else purged).append(record)
    return inside, purged


def dedupe(records) -> list[CorpusRecord]:
    """Drop exact duplicates by (position, text, origin), keeping the first."""
    seen = set()
    kept = []
    for record in records:
        key = (record.position.lat_deg, record.position.lon_deg, record.text, record.origin)
        if key in seen:
            continue
        seen.add(key)
        kept.append(record)
    return kept


def corpus(bodies: dict[str, list[dict]], query, box) -> tuple[list[CorpusRecord], list[CorpusRecord]]:
    """(records, purged) for a store holding ``bodies`` per collection, tweets first."""
    records = []
    for collection in ("tweet", "photo"):
        for doc_id, body in enumerate(bodies.get(collection, ())):
            record = normalize(StoredDocument(collection, body, doc_id))
            if record is not None:
                records.append(record)
    inside, purged = filter_bbox(filter_keywords(records, query), box)
    return dedupe(inside), purged
