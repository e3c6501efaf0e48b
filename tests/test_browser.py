"""Page-load engine and the recorder."""

import gc
import tracemalloc

import pytest

from repro.browser.engine import PageLoad, load_page
from repro.browser.recorder import record_website
from repro.netem.engine import EventLoop
from repro.netem.path import NetworkPath
from repro.netem.profiles import DSL, LTE, MSS
from repro.transport.config import QUIC, TCP, TCP_PLUS
from repro.web.corpus import build_site
from repro.web.objects import WebObject
from repro.web.website import Website


def tiny_site(n_images=3, host2=False):
    objects = [WebObject(
        object_id=0, url="https://t/", host="t.example", size=20_000,
        resource_type="html", render_weight=0.3, progressive=True,
    )]
    objects.append(WebObject(
        object_id=1, url="https://t/style.css", host="t.example",
        size=8_000, resource_type="css", parent_id=0,
        discovery_fraction=0.1, render_blocking=True,
    ))
    for i in range(n_images):
        host = "cdn.example" if host2 and i % 2 else "t.example"
        objects.append(WebObject(
            object_id=2 + i, url=f"https://t/{i}.png", host=host,
            size=30_000, resource_type="image", parent_id=0,
            discovery_fraction=0.3 + 0.1 * i, render_weight=0.5,
            progressive=True,
        ))
    return Website("tiny.example", tuple(objects))


class TestPageLoad:
    def test_load_completes(self):
        result = load_page(tiny_site(), DSL, TCP, seed=1)
        assert result.completed
        assert result.objects_loaded == result.objects_total
        assert result.metrics.plt > 0

    def test_metrics_consistent(self):
        result = load_page(tiny_site(), DSL, TCP, seed=1)
        m = result.metrics
        assert 0 < m.fvc <= m.lvc <= m.plt
        assert m.si <= m.lvc
        assert result.curve.final_value() == pytest.approx(1.0)

    def test_connection_per_host(self):
        result = load_page(tiny_site(host2=True), DSL, TCP, seed=1)
        assert result.transport.connections == 2
        assert set(result.connection_setup_times) == \
            {"t.example", "cdn.example"}

    def test_quic_handshake_advantage_visible(self):
        tcp = load_page(tiny_site(host2=True), LTE, TCP, seed=1)
        quic = load_page(tiny_site(host2=True), LTE, QUIC, seed=1)
        for host in tcp.connection_setup_times:
            assert quic.connection_setup_times[host] < \
                tcp.connection_setup_times[host]

    def test_render_blocking_gates_first_paint(self):
        """First paint cannot happen before the blocking CSS is done."""
        site = tiny_site()
        result = load_page(site, DSL, TCP, seed=1)
        # Rebuild the load to find the css completion via a second run
        # with the same seed (deterministic).
        assert result.metrics.fvc > 0

    def test_paint_gated_by_css_timing(self):
        """Make the blocking CSS huge: FVC must move out with it."""
        fast_css = tiny_site()
        slow_objects = list(fast_css.objects)
        slow_objects[1] = WebObject(
            object_id=1, url="https://t/style.css", host="t.example",
            size=400_000, resource_type="css", parent_id=0,
            discovery_fraction=0.1, render_blocking=True,
        )
        slow_css = Website("tiny.example", tuple(slow_objects))
        fvc_fast = load_page(fast_css, DSL, TCP, seed=1).metrics.fvc
        fvc_slow = load_page(slow_css, DSL, TCP, seed=1).metrics.fvc
        assert fvc_slow > fvc_fast

    def test_timeout_flags_incomplete(self):
        big = build_site("site-24.example", seed=0)
        result = load_page(big, MSS, TCP, seed=1, timeout=2.0)
        assert not result.completed
        assert result.metrics.plt == pytest.approx(2.0)

    def test_deterministic_given_seed(self):
        a = load_page(tiny_site(), LTE, TCP_PLUS, seed=9)
        b = load_page(tiny_site(), LTE, TCP_PLUS, seed=9)
        assert a.metrics.as_dict() == b.metrics.as_dict()

    def test_seed_varies_load(self):
        a = load_page(tiny_site(), LTE, TCP_PLUS, seed=1)
        b = load_page(tiny_site(), LTE, TCP_PLUS, seed=2)
        assert a.metrics.plt != b.metrics.plt

    def test_corpus_site_loads_on_all_stacks(self):
        site = build_site("gov.uk", seed=0)
        for stack in (TCP, TCP_PLUS, QUIC):
            result = load_page(site, DSL, stack, seed=3)
            assert result.completed, stack.name

    def test_network_ordering_dsl_faster_than_lte(self):
        site = build_site("gov.uk", seed=0)
        dsl = load_page(site, DSL, TCP, seed=3)
        lte = load_page(site, LTE, TCP, seed=3)
        assert dsl.metrics.plt < lte.metrics.plt

    def test_transport_totals_populated(self):
        site = build_site("gov.uk", seed=0)
        result = load_page(site, MSS, TCP, seed=3)
        assert result.transport.packets_or_segments_sent > 0


class TestResidualMemory:
    @pytest.mark.parametrize("stack", [TCP, QUIC], ids=lambda s: s.name)
    def test_load_leaves_nothing_behind(self, stack):
        """Once its result is dropped, a page load keeps nothing alive:
        after a warm-up load (imports, caches), a second identical load
        leaves at most 4 KiB traced after a GC pass."""
        site = build_site("gov.uk", seed=0)
        load_page(site, MSS, stack, seed=0)
        gc.collect()
        tracemalloc.start()
        try:
            load_page(site, MSS, stack, seed=0)
            gc.collect()
            residual, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert residual <= 4096, residual


class TestRecorder:
    def test_selection_closest_to_mean(self):
        site = tiny_site()
        recording = record_website(site, LTE, TCP, runs=5, seed=1)
        values = [r.metrics["PLT"] for r in recording.runs]
        mean = sum(values) / len(values)
        chosen = recording.selected.metrics["PLT"]
        assert abs(chosen - mean) == min(abs(v - mean) for v in values)

    def test_runs_vary(self):
        site = tiny_site()
        recording = record_website(site, LTE, TCP, runs=5, seed=1)
        values = {round(r.metrics["PLT"], 6) for r in recording.runs}
        assert len(values) > 1

    def test_selection_by_si(self):
        site = tiny_site()
        recording = record_website(site, LTE, TCP, runs=5, seed=1,
                                   selection_metric="SI")
        values = [r.metrics["SI"] for r in recording.runs]
        mean = sum(values) / len(values)
        chosen = recording.selected.metrics["SI"]
        assert abs(chosen - mean) == min(abs(v - mean) for v in values)

    def test_video_duration_covers_lvc(self):
        site = tiny_site()
        recording = record_website(site, LTE, TCP, runs=3, seed=1)
        assert recording.video_duration >= recording.metrics.lvc

    def test_invalid_args(self):
        site = tiny_site()
        with pytest.raises(ValueError):
            record_website(site, LTE, TCP, runs=0)
        with pytest.raises(ValueError):
            record_website(site, LTE, TCP, runs=3, selection_metric="XX")

    def test_mean_metric(self):
        site = tiny_site()
        recording = record_website(site, LTE, TCP, runs=3, seed=1)
        values = recording.metric_values("PLT")
        assert recording.mean_metric("PLT") == pytest.approx(
            sum(values) / len(values))
