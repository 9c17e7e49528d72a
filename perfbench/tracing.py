"""In-memory spans around geozones' public functions, installed from outside.

``Tracer.install`` replaces public functions and methods with timing
wrappers in the running process only; no file of the program changes.
Each span records (name, start, end, parent); generators are timed per
``next()`` so a span covers only the time spent inside the producer.
A wrapped target that no longer exists is recorded as missing, and every
metric derived from it is left out of the report rather than set to zero.
"""

from __future__ import annotations

import os
import resource
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute) — the attribute is looked up on the module
# object the caller resolves it through, so the wrapper is what runs.
FUNCTION_TARGETS = (
    ("ingest.command", "geozones.cli", "ingest_command"),
    ("corpus.build", "geozones.pipeline", "build_corpus"),
    ("corpus.normalize", "geozones.pipeline", "normalize"),
    ("corpus.filter_keywords", "geozones.pipeline", "filter_keywords"),
    ("corpus.filter_bbox", "geozones.pipeline", "filter_bbox"),
    ("corpus.dedupe", "geozones.pipeline", "dedupe"),
    ("clustering.dbscan", "geozones.pipeline", "dbscan"),
    ("clustering.xmeans", "geozones.pipeline", "xmeans"),
    ("clustering.kmeans", "geozones.clustering", "kmeans"),
    ("coverage.summarize", "geozones.pipeline", "summarize"),
    ("coverage.circle", "geozones.pipeline", "coverage_circle"),
    ("export.build", "geozones.pipeline", "export_geojson"),
    ("export.write", "geozones.pipeline", "write_geojson"),
)
GENERATOR_TARGETS = (("ingest.parse", "geozones.cli", "replay_source"),)
METHOD_TARGETS = (
    ("store.put", "geozones.store", "DocumentStore", "put"),
    ("store.scan", "geozones.store", "DocumentStore", "scan"),
)
# Spans whose growth of the process's peak RSS is recorded as well.
RSS_GROWTH_SPANS = ("clustering.dbscan",)
COUNTER_TARGETS = (
    ("clustering.haversine_to_many_calls", "geozones.clustering", "haversine_to_many"),
    ("coverage.haversine_calls", "geozones.coverage", "haversine_distance"),
)


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _ModuleView:
    """Stands in for a module inside one importer, overriding some names."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, int] = defaultdict(int)
        self.results: dict[str, tuple] = {}  # last (args, return value) per span name
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.results[name] = (args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                self.counts[name + ".items"] += 1
                yield item

        return traced

    def wrap_counter(self, name: str, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every target in this process; record the ones that are gone."""
        import importlib

        def patch(module_name, attr, make):
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                return
            setattr(module, attr, make(getattr(module, attr)))

        for name, module_name, attr in FUNCTION_TARGETS:
            if name in RSS_GROWTH_SPANS:
                patch(module_name, attr, lambda fn, name=name: self.wrap(name, self._wrap_rss_growth(name, fn)))
            else:
                patch(module_name, attr, lambda fn, name=name: self.wrap(name, fn))
        for name, module_name, attr in GENERATOR_TARGETS:
            patch(module_name, attr, lambda fn, name=name: self.wrap_generator(name, fn))
        for name, module_name, attr in COUNTER_TARGETS:
            patch(module_name, attr, lambda fn, name=name: self.wrap_counter(name, fn))
        for name, module_name, cls_name, attr in METHOD_TARGETS:
            module = importlib.import_module(module_name)
            cls = getattr(module, cls_name, None)
            if cls is None or not hasattr(cls, attr):
                self.missing.append(f"{module_name}.{cls_name}.{attr}")
                continue
            wrapper = self.wrap_generator if attr == "scan" else self.wrap
            setattr(cls, attr, wrapper(name, getattr(cls, attr)))
        self._install_open()
        self._install_fsync()

    def _install_open(self):
        from geozones import store

        original = store.DocumentStore.__init__
        tracer = self

        def traced_init(self, *args, **kwargs):
            read_only = kwargs.get("read_only", args[1] if len(args) > 1 else False)
            with tracer.span("store.open_ro" if read_only else "store.open_rw"):
                original(self, *args, **kwargs)

        store.DocumentStore.__init__ = traced_init

    def _install_fsync(self):
        from geozones import store

        if not hasattr(store, "os") or not hasattr(store.os, "fsync"):
            self.missing.append("geozones.store.os.fsync")
            return
        store.os = _ModuleView(os, fsync=self.wrap("store.fsync", os.fsync))

    def _wrap_rss_growth(self, name: str, fn):
        """Record how far the call raised the process's peak RSS, in MB.

        tracemalloc would give the call's own allocation peak, but it makes
        DBSCAN's per-neighbour Python objects about ten times slower.
        """

        def measured(*args, **kwargs):
            before = _max_rss_mb()
            result = fn(*args, **kwargs)
            self.counts[name + ".rss_growth_mb"] = _max_rss_mb() - before
            return result

        return measured

    # -- reporting ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is the span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]


def span_targets(span: str | None) -> list[str]:
    """The wrapped targets a span or counter name depends on."""
    if span is None:
        return []
    targets = [f"{m}.{a}" for n, m, a in FUNCTION_TARGETS + GENERATOR_TARGETS + COUNTER_TARGETS if n == span]
    targets += [f"{m}.{c}.{a}" for n, m, c, a in METHOD_TARGETS if n == span]
    if span == "store.fsync":
        targets.append("geozones.store.os.fsync")
    return targets
