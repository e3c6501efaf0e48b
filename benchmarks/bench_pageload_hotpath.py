"""E-C2 — Page-load hot-path benchmark: per-layer micro/meso timings.

Measures every layer the PR 2 hot-path overhaul touches, bottom-up:

* ``event_loop`` — raw schedule/cancel/dispatch throughput, including the
  timer-churn pattern transports generate (an RTO re-arm per ACK);
* ``link`` — packets/second through one self-clocked
  :class:`~repro.netem.link.EmulatedLink`;
* ``{tcp,quic}_transfer`` — one bulk download over a high-BDP path
  (hundreds of packets in flight), clean and lossy: MB/s and events/s;
* ``tcp_scaling`` — seconds per transferred MB at a small and a large
  BDP. If per-ACK cost scales with the in-flight count this ratio grows
  with the BDP; amortised-O(1) bookkeeping keeps it flat;
* ``pageload`` — full page loads (browser + HTTP + transport + netem)
  per second on a heavy corpus site;
* ``alloc`` — tracemalloc allocation totals for one page load (guards
  the ``__slots__`` satellite);
* ``campaign`` — cold conditions/second through the campaign
  orchestrator on the same grid as ``bench_campaign_throughput``;
* ``multi_segment_overhead`` — page loads/second over a one-segment
  path vs the same access profile chained with a LAN segment, direct
  (store-and-forward boundary) and split (per-segment proxies);
* ``report_path`` — peak memory of aggregating a synthetic
  1k-condition campaign manifest into a pivot report: the old
  whole-grid list-of-summaries load vs the streaming
  ``SummaryStore`` → ``GridReport`` path (O(grid) vs O(axes)).

Run standalone to record a labelled snapshot into ``BENCH_hotpath.json``
at the repo root (the committed trajectory file)::

    PYTHONPATH=src python benchmarks/bench_pageload_hotpath.py --label after

The JSON schema is ``{"schema": 1, "benchmarks": {<name>: {<label>:
{<metric>: value}}}}``; labels are free-form ("before"/"after" for this
PR). See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

from repro.browser.engine import load_page
from repro.netem.engine import EventLoop
from repro.netem.link import EmulatedLink, LinkConfig
from repro.netem.packet import Packet
from repro.netem.path import NetworkPath
from repro.netem.profiles import NetworkProfile
from repro.testbed.campaign import Campaign, CampaignSpec
from repro.transport.config import stack_by_name
from repro.transport.quic import QuicConnection
from repro.transport.tcp import TcpConnection
from repro.web.corpus import build_site

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"

MB = 1_000_000


def fat_profile(rtt_ms: float = 60.0, loss: float = 0.0) -> NetworkProfile:
    """High-BDP path: hundreds of packets in flight at 100 Mbps."""
    return NetworkProfile(
        name=f"bench-fat-{rtt_ms:g}ms" + (f"-loss{loss:g}" if loss else ""),
        uplink_mbps=20.0, downlink_mbps=100.0, min_rtt_ms=rtt_ms,
        loss_rate=loss, queue_ms=200.0,
    )


# -- layer benches -----------------------------------------------------------


def bench_event_loop(n: int = 200_000) -> dict:
    """Schedule/dispatch with transport-style churn: half are cancelled."""
    loop = EventLoop()
    start = time.perf_counter()
    pending = None
    fired = 0

    def tick() -> None:
        nonlocal pending, fired
        fired += 1
        # Transport pattern: every event re-arms a timer that the next
        # event cancels (RTO/PTO churn).
        if pending is not None:
            pending.cancel()
        pending = loop.call_later(10.0, lambda: None)
        if fired < n:
            loop.call_later(0.001, tick)

    loop.call_later(0.001, tick)
    loop.run_until_idle_or(lambda: fired >= n)
    elapsed = time.perf_counter() - start
    return {"events": loop.events_processed, "seconds": round(elapsed, 4),
            "events_per_s": round(loop.events_processed / elapsed)}


def bench_link(n: int = 100_000) -> dict:
    """Self-clocked packet pump through one emulated link."""
    loop = EventLoop()
    config = LinkConfig(rate_bytes_per_s=12.5e6, propagation_delay_s=0.01,
                        queue_ms=200.0)
    sent = 0

    def deliver(packet: Packet) -> None:
        nonlocal sent
        if sent < n:
            sent += 1
            link.send(Packet(size=1500, payload=None))

    link = EmulatedLink(loop, config, deliver)
    start = time.perf_counter()
    for _ in range(32):
        sent += 1
        link.send(Packet(size=1500, payload=None))
    loop.run()
    elapsed = time.perf_counter() - start
    return {"packets": link.stats.packets_delivered,
            "events": loop.events_processed,
            "seconds": round(elapsed, 4),
            "packets_per_s": round(link.stats.packets_delivered / elapsed)}


def _tcp_transfer(profile: NetworkProfile, total_bytes: int,
                  stack_name: str = "TCP+") -> dict:
    loop = EventLoop()
    path = NetworkPath(loop, profile, seed=1)
    stack = stack_by_name(stack_name)
    got = 0

    def on_client(delivered: int, metas: list) -> None:
        nonlocal got
        got = delivered

    conn = TcpConnection(path, stack, on_client, lambda d, m: None)
    conn.connect(lambda: conn.server_write(total_bytes))
    start = time.perf_counter()
    loop.run_until_idle_or(lambda: got >= total_bytes, until=600.0)
    elapsed = time.perf_counter() - start
    return {"bytes": got, "events": loop.events_processed,
            "sim_seconds": round(loop.now, 3),
            "seconds": round(elapsed, 4),
            "mb_per_s": round(got / MB / elapsed, 2),
            "events_per_s": round(loop.events_processed / elapsed)}


def _quic_transfer(profile: NetworkProfile, total_bytes: int,
                   stack_name: str = "QUIC") -> dict:
    loop = EventLoop()
    path = NetworkPath(loop, profile, seed=1)
    stack = stack_by_name(stack_name)
    got = 0

    def on_client(stream_id: int, delivered: int, metas: list,
                  fin: bool) -> None:
        nonlocal got
        got = delivered

    conn = QuicConnection(path, stack, on_client, lambda *a: None)
    conn.connect(lambda: conn.server_stream_write(1, total_bytes, fin=True))
    start = time.perf_counter()
    loop.run_until_idle_or(lambda: got >= total_bytes, until=600.0)
    elapsed = time.perf_counter() - start
    return {"bytes": got, "events": loop.events_processed,
            "sim_seconds": round(loop.now, 3),
            "seconds": round(elapsed, 4),
            "mb_per_s": round(got / MB / elapsed, 2),
            "events_per_s": round(loop.events_processed / elapsed)}


def bench_tcp_scaling() -> dict:
    """Per-MB cost at a small vs a large BDP (same rate, 8x the RTT).

    With linear per-ACK rescans the large-BDP run pays for ~8x more
    in-flight records per ACK; amortised-O(1) bookkeeping keeps the
    per-MB cost roughly constant.
    """
    small = _tcp_transfer(fat_profile(rtt_ms=20.0), 8 * MB)
    large = _tcp_transfer(fat_profile(rtt_ms=160.0), 8 * MB)
    per_mb_small = small["seconds"] / (small["bytes"] / MB)
    per_mb_large = large["seconds"] / (large["bytes"] / MB)
    return {
        "per_mb_s_small_bdp": round(per_mb_small, 5),
        "per_mb_s_large_bdp": round(per_mb_large, 5),
        "large_over_small": round(per_mb_large / per_mb_small, 2),
    }


def bench_pageload(site_name: str = "nytimes.com", loads: int = 6) -> dict:
    site = build_site(site_name, seed=0)
    from repro.netem.profiles import network_by_name
    profile = network_by_name("MSS")
    results = {}
    for stack_name in ("TCP", "QUIC"):
        stack = stack_by_name(stack_name)
        start = time.perf_counter()
        for seed in range(loads):
            load_page(site, profile, stack, seed=seed)
        elapsed = time.perf_counter() - start
        results[stack_name] = {
            "loads": loads, "seconds": round(elapsed, 3),
            "loads_per_s": round(loads / elapsed, 2),
        }
    return results


def bench_multi_segment(site_name: str = "gov.uk", loads: int = 6) -> dict:
    """Topology cost: 1-segment baseline vs 2-segment direct vs split.

    The two-segment variants chain the baseline access profile with a
    LAN segment, so the extra work is purely topological: a second link
    pair plus a forwarding hop (direct), or per-segment transport
    endpoints and relays (split).
    """
    from repro.netem.profiles import LAN, network_by_name, segmented_profile

    site = build_site(site_name, seed=0)
    base = network_by_name("MSS")
    seg = segmented_profile((base, LAN), name="MSS+LAN")
    stack = stack_by_name("TCP")
    results: dict = {}
    for key, profile, path_mode in (
        ("baseline_1seg", base, "direct"),
        ("direct_2seg", seg, "direct"),
        ("split_2seg", seg, "split"),
    ):
        start = time.perf_counter()
        for seed in range(loads):
            load_page(site, profile, stack, seed=seed, path_mode=path_mode)
        elapsed = time.perf_counter() - start
        results[key] = {
            "loads": loads, "seconds": round(elapsed, 3),
            "loads_per_s": round(loads / elapsed, 2),
        }
    baseline = results["baseline_1seg"]["loads_per_s"]
    results["direct_overhead_x"] = round(
        baseline / results["direct_2seg"]["loads_per_s"], 2)
    results["split_overhead_x"] = round(
        baseline / results["split_2seg"]["loads_per_s"], 2)
    return results


def _instance_bytes(obj) -> int:
    """Heap bytes of one instance (object header plus __dict__ if any)."""
    size = sys.getsizeof(obj)
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        size += sys.getsizeof(attrs)
    return size


def bench_alloc(site_name: str = "nytimes.com") -> dict:
    """Allocation profile of one page load (``__slots__`` guard).

    ``*_bytes`` are per-instance heap sizes of the hot per-packet record
    classes (a ``__slots__`` class has no per-instance ``__dict__``);
    ``residual_kb`` is what one load leaves behind after a GC pass.
    """
    import gc

    from repro.netem.packet import Packet
    from repro.transport.quic import _SentPacket
    from repro.transport.tcp import _SentRange

    site = build_site(site_name, seed=0)
    from repro.netem.profiles import network_by_name
    profile = network_by_name("MSS")
    stack = stack_by_name("TCP")
    load_page(site, profile, stack, seed=0)  # warm imports/caches
    gc.collect()
    tracemalloc.start()
    load_page(site, profile, stack, seed=0)
    _, peak = tracemalloc.get_traced_memory()
    gc.collect()
    current, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "peak_kb": round(peak / 1024),
        "residual_kb": round(current / 1024),
        "packet_bytes": _instance_bytes(Packet(size=100, payload=None)),
        "tcp_sent_record_bytes": _instance_bytes(_SentRange(0, 1460, 0.0)),
        "quic_sent_record_bytes": _instance_bytes(_SentPacket(1, (), 40, 0.0)),
    }


def bench_campaign(tmp_dir: Path) -> dict:
    """Cold campaign throughput: the bench_campaign_throughput grid."""
    spec = CampaignSpec(
        sites=["gov.uk", "apache.org"], networks=["DSL", "LTE"],
        stacks=["TCP", "QUIC"], seeds=[3], runs=5, name="bench-hotpath",
    )
    campaign = Campaign(spec, cache_dir=tmp_dir / "cache")
    start = time.perf_counter()
    result = campaign.run(processes=2)
    elapsed = time.perf_counter() - start
    assert result.ok
    return {"conditions": len(result.results),
            "seconds": round(elapsed, 3),
            "conditions_per_s": round(len(result.results) / elapsed, 3)}


def _write_synthetic_campaign(tmp: Path, conditions: int = 1000):
    """A fake finished campaign: manifest + cached summaries on disk."""
    import json as json_mod
    import math

    from repro.testbed.harness import RecordingCache, RecordingSummary
    from repro.testbed.store import SummaryStore

    cache_dir = tmp / "cache"
    campaign_dir = cache_dir / "campaigns" / "synthetic"
    campaign_dir.mkdir(parents=True)
    cache = RecordingCache(cache_dir)
    networks = ("DSL", "LTE", "DA2GC", "MSS")
    stacks = ("TCP", "TCP+", "TCPBBR", "QUIC", "QUICBBR")
    sites = max(1, conditions // (len(networks) * len(stacks)))
    lines = []
    index = 0
    for site in range(sites):
        website = f"site{site:03d}.example"
        for n_index, network in enumerate(networks):
            for s_index, stack in enumerate(stacks):
                base = 0.5 + 0.8 * n_index - 0.05 * s_index
                metrics = [
                    {"FVC": base * 0.5 + 0.01 * run,
                     "SI": base + 0.02 * run,
                     "VC85": base * 1.2, "LVC": base * 2.0,
                     "PLT": base * 2.5 + 0.03 * run}
                    for run in range(5)
                ]
                curve = [(0.05 * point, min(1.0, 0.02 * point))
                         for point in range(60)]
                summary = RecordingSummary(
                    website=website, network=network, stack=stack,
                    runs=5, selection_metric="PLT",
                    selected_metrics=dict(metrics[0]),
                    selected_curve=curve, run_metrics=metrics,
                    mean_retransmissions=1.0 + math.sin(index),
                    mean_segments_sent=200.0,
                    completed_fraction=1.0,
                )
                label = f"{website}_{network}_{stack}_s0"
                fingerprint = f"synthetic{index:011d}"
                cache.store(label, fingerprint, summary)
                lines.append(json_mod.dumps({
                    "fingerprint": fingerprint, "label": label,
                    "website": website, "network": network,
                    "stack": stack, "seed": 0,
                    "status": "simulated", "attempts": 1,
                    "duration_s": 0.1, "error": None, "at": 0.0,
                }))
                index += 1
    (campaign_dir / "manifest.jsonl").write_text("\n".join(lines) + "\n")
    return SummaryStore.open(campaign_dir), index


def bench_report_path(tmp_dir: Path) -> dict:
    """Peak memory: whole-grid summary load vs streaming aggregation.

    Both variants pivot the same synthetic 1k-condition campaign into
    (network x stack) mean-CI cells; the batch variant materialises
    every summary into one list first (the pre-streaming results
    path, since removed from ``Campaign``), the streaming variant drains the ``SummaryStore``
    into a ``GridReport`` one summary at a time.
    """
    from repro.analysis.stats import mean_confidence_interval
    from repro.analysis.streaming import grid_report

    store, conditions = _write_synthetic_campaign(tmp_dir / "report")

    def batch() -> dict:
        summaries = [summary for _, summary in store]  # whole grid
        groups: dict = {}
        for summary in summaries:
            key = (summary.network, summary.stack)
            groups.setdefault(key, []).extend(
                summary.metric_samples("SI"))
        return {key: mean_confidence_interval(values)
                for key, values in groups.items()}

    def streaming():
        return grid_report(store, rows=("network",), cols="stack",
                           metric="SI")

    results = {}
    for name, variant in (("batch", batch), ("streaming", streaming)):
        tracemalloc.start()
        start = time.perf_counter()
        out = variant()
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert out  # both aggregations produced cells
        results[f"{name}_peak_kb"] = round(peak / 1024)
        results[f"{name}_seconds"] = round(elapsed, 3)
    results["conditions"] = conditions
    results["peak_ratio"] = round(
        results["batch_peak_kb"] / results["streaming_peak_kb"], 1)
    return results


#: Component name -> bench callable (takes the tmp dir, returns
#: metrics). The single source of truth for full runs and ``--only``.
COMPONENTS = {
    "event_loop": lambda tmp: bench_event_loop(),
    "link": lambda tmp: bench_link(),
    "tcp_transfer": lambda tmp: _tcp_transfer(fat_profile(), 16 * MB),
    "tcp_transfer_lossy":
        lambda tmp: _tcp_transfer(fat_profile(loss=0.02), 8 * MB),
    "quic_transfer": lambda tmp: _quic_transfer(fat_profile(), 16 * MB),
    "quic_transfer_lossy":
        lambda tmp: _quic_transfer(fat_profile(loss=0.02), 8 * MB),
    "tcp_scaling": lambda tmp: bench_tcp_scaling(),
    "pageload": lambda tmp: bench_pageload(),
    "multi_segment_overhead": lambda tmp: bench_multi_segment(),
    "alloc": lambda tmp: bench_alloc(),
    "campaign": bench_campaign,
    "report_path": bench_report_path,
}


def run_some(tmp_dir: Path, names) -> dict:
    out = {}
    for name in names:
        out[name] = COMPONENTS[name](tmp_dir)
        print(f"  {name}: {out[name]}", flush=True)
    return out


def run_all(tmp_dir: Path) -> dict:
    return run_some(tmp_dir, COMPONENTS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="after",
                        help="snapshot label merged into BENCH_hotpath.json")
    parser.add_argument("--output", default=str(BENCH_PATH))
    parser.add_argument("--only", default=None, metavar="NAMES",
                        help="comma-separated component subset, e.g. "
                             "report_path,campaign (default: all)")
    args = parser.parse_args(argv)

    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        names = list(COMPONENTS)
        if args.only:
            names = [n.strip() for n in args.only.split(",") if n.strip()]
            unknown = [n for n in names if n not in COMPONENTS]
            if unknown:
                parser.error(f"unknown components {unknown}; "
                             f"choose from {sorted(COMPONENTS)}")
        results = run_some(Path(tmp), names)

    path = Path(args.output)
    doc = {"schema": 1, "benchmarks": {}}
    if path.exists():
        doc = json.loads(path.read_text())
    for name, metrics in results.items():
        doc["benchmarks"].setdefault(name, {})[args.label] = metrics
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path} [{args.label}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
