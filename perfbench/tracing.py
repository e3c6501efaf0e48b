"""Instrumentation for the traced run (``--trace 1``).

Nothing here is imported into the program: the tracer wraps public
entry points from outside for the duration of the traced repetitions
and restores them afterwards.

* Spans: name, start, end, parent and a tag (a condition fingerprint or
  a query id), kept in memory and written out as JSON lines at the end.
  The benchmark opens spans around its own calls into the program; the
  wrappers below add spans for the calls the campaign makes itself
  (``produce_summary``, ``build_site``, ``RecordingCache.store``).
* Folded profile: the simulator's layers interleave inside one event
  loop instead of nesting as calls, so their self time comes from a
  ``cProfile`` hook folded by source module (:data:`LAYER_PREFIXES`).
* Counters: read from public objects after each page load
  (``EventLoop.events_processed``, ``LinkStats``,
  ``PageLoadResult.transport``) and from a counting wrapper around
  ``RangeSet.add``.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: Source-path prefix (relative to ``src/repro/``) -> layer; the longest
#: matching prefix wins. Everything else (numpy, builtins, the standard
#: library, ``repro.util``/``lint``/``cli`` and this benchmark) is
#: ``other``, so the folded self times cover the whole profile.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("netem/engine.py", "netem.engine"),
    ("netem/link.py", "netem.link"),
    ("netem/trace.py", "netem.link"),
    ("netem/packet.py", "netem.link"),
    ("netem/", "netem.path"),
    ("netem/proxy.py", "netem.proxy"),
    ("netem/middlebox.py", "netem.middlebox"),
    ("transport/", "transport.other"),
    ("transport/tcp.py", "transport.tcp"),
    ("transport/quic.py", "transport.quic"),
    ("transport/ranges.py", "transport.ranges"),
    ("transport/cc/", "transport.cc"),
    ("http/", "http"),
    ("browser/", "browser"),
    ("web/", "web"),
    ("testbed/", "testbed"),
    ("study/", "study"),
    ("analysis/", "analysis"),
    ("report/", "analysis"),
)

#: Every layer the profile folds into, in report order.
PROFILE_LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for _, layer in LAYER_PREFIXES)) + ("other",)

_PACKAGE_MARK = "/repro/"


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to."""
    position = filename.replace("\\", "/").rfind(_PACKAGE_MARK)
    if position < 0:
        return "other"
    relative = filename[position + len(_PACKAGE_MARK):]
    best, layer = -1, "other"
    for prefix, name in LAYER_PREFIXES:
        if relative.startswith(prefix) and len(prefix) > best:
            best, layer = len(prefix), name
    return layer


class NullTracer:
    """The untraced run's tracer: every hook is a no-op."""

    enabled = False

    @contextmanager
    def span(self, name: str, tag: Optional[str] = None) -> Iterator[None]:
        yield


class Tracer(NullTracer):
    """Spans, counters and a folded profile for the traced repetitions."""

    enabled = True

    def __init__(self) -> None:
        #: ``(id, parent, name, start, end, tag)`` per closed span.
        self.spans: List[Tuple[int, int, str, float, float,
                               Optional[str]]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = [0]
        self._next_id = 1
        self._patches: List[Tuple[object, str, object]] = []
        self._profile = cProfile.Profile()
        self._captured: List[Tuple[object, object]] = []

    @contextmanager
    def span(self, name: str, tag: Optional[str] = None) -> Iterator[None]:
        span_id, parent = self._next_id, self._stack[-1]
        self._next_id += 1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end, tag))

    # -- installing the hooks ------------------------------------------------

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the public entry points and start the profiler."""
        from repro.browser import engine, recorder
        from repro.testbed import campaign, harness
        from repro.transport.ranges import RangeSet

        tracer = self
        produce_summary = campaign.produce_summary
        build_site = harness.build_site
        cache_store = harness.RecordingCache.store
        load_page = recorder.load_page
        build_network_path = engine.build_network_path
        range_add = RangeSet.add

        def traced_produce_summary(*args, **kwargs):
            tag = harness.condition_fingerprint(*args, **kwargs)
            with tracer.span("testbed.produce_summary", tag):
                return produce_summary(*args, **kwargs)

        def traced_build_site(*args, **kwargs):
            with tracer.span("web.build_site"):
                return build_site(*args, **kwargs)

        def traced_cache_store(self, label, fingerprint, summary):
            with tracer.span("testbed.cache_store", fingerprint):
                return cache_store(self, label, fingerprint, summary)

        def capturing_build_network_path(loop, *args, **kwargs):
            path = build_network_path(loop, *args, **kwargs)
            tracer._captured.append((loop, path))
            return path

        def counted_load_page(*args, **kwargs):
            tracer._captured.clear()
            result = load_page(*args, **kwargs)
            tracer._count_load(result)
            return result

        def counted_range_add(self, start, end):
            before = self.covered_bytes()
            range_add(self, start, end)
            tracer.counts["ranges.adds"] += 1
            if self.covered_bytes() > before:
                tracer.counts["ranges.useful_adds"] += 1

        self._patch(campaign, "produce_summary", traced_produce_summary)
        self._patch(harness, "build_site", traced_build_site)
        self._patch(harness.RecordingCache, "store", traced_cache_store)
        self._patch(engine, "build_network_path",
                    capturing_build_network_path)
        self._patch(recorder, "load_page", counted_load_page)
        self._patch(RangeSet, "add", counted_range_add)
        self._profile.enable()

    def uninstall(self) -> None:
        """Stop the profiler and restore every wrapped attribute."""
        self._profile.disable()
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _count_load(self, result) -> None:
        counts = self.counts
        counts["loads"] += 1
        for loop, path in self._captured:
            counts["engine.events"] += loop.events_processed
            for segment in getattr(path, "segments", [path]):
                for link in (segment.uplink, segment.downlink):
                    stats = link.stats
                    counts["link.packets"] += stats.packets_in
                    counts["link.drops"] += stats.packets_lost
        transport = result.transport
        counts["transport.packets_sent"] += transport.packets_or_segments_sent
        counts["transport.retransmissions"] += transport.retransmissions
        counts["transport.timeouts"] += transport.timeouts
        counts["http.requests"] += result.objects_loaded
        counts["browser.paints"] += len(result.curve)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Profiled self time per layer, seconds (sums to the profile)."""
        totals = dict.fromkeys(PROFILE_LAYERS, 0.0)
        for (filename, _, _), row in pstats.Stats(
                self._profile).stats.items():
            totals[layer_of(filename)] += row[2]
        return totals

    def span_totals(self) -> Dict[str, float]:
        """Summed duration per span name, seconds."""
        totals: Dict[str, float] = {}
        for _, _, name, start, end, _ in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def child_time(self, parent_name: str, child_name: str) -> float:
        """Time spent in ``child_name`` spans directly under a parent."""
        parents = {span_id for span_id, _, name, *_ in self.spans
                   if name == parent_name}
        return sum(end - start for _, parent, name, start, end, _
                   in self.spans
                   if name == child_name and parent in parents)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span_id, parent, name, start, end, tag in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "tag": tag}) + "\n")
