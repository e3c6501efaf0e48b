"""The benchmark's four workloads, driven through public entry points.

Every workload runs the same loop:

* **Set-up**, done :data:`SETUPS` times (the median is ``setup_s``):
  record the *study grid* — the seed's two lightest sample sites × all
  four Table 2 networks × all five Table 1 stacks — into a fresh
  campaign directory. The post-hoc read path needs all four networks
  (the rating study's ``plane`` context shows DA2GC/MSS, ``work`` and
  ``free_time`` show DSL/LTE), so this grid is what every workload's
  study and serve metrics read.
* **Timed repetitions**, a closed loop until ``seconds`` have passed:
  record the workload's own grid into a fresh campaign directory
  (``posthoc`` records nothing here), then run the post-hoc read path
  over the study grid, then answer :data:`QUERIES_PER_REP` serve
  requests one at a time.

Campaigns run inline (``processes=1``); each repetition writes a fresh
cache directory, so nothing is served from the recording cache. The
seed picks the site sample, the campaign and study seeds and the query
mix; the program only receives the generated inputs.

Timings are kept in *reference seconds* (see :class:`Clock`): the CPU
of a shared machine changes speed for seconds to minutes at a time, and
a fixed pure-Python reference task timed right before and after each
piece of work tells how fast the machine ran meanwhile.
"""

from __future__ import annotations

import hashlib
import heapq
import io
import json
import random
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.streaming import grid_report
from repro.browser import load_page
from repro.cli import serve_study_queries
from repro.netem.profiles import network_by_name
from repro.study.pipeline import (
    ConditionIndex,
    StudyIndex,
    StudyPartial,
    build_partial,
    build_report,
    merge_partials,
)
from repro.testbed import Campaign, CampaignSpec, SummaryStore
from repro.transport import stack_by_name
from repro.web import build_site

from tracing import NullTracer

#: The five Table 1 stacks.
STACKS = ("TCP", "TCP+", "TCP+BBR", "QUIC", "QUIC+BBR")
#: All four Table 2 networks (the study grid).
STUDY_NETWORKS = ("DSL", "LTE", "DA2GC", "MSS")

#: Always in the sample: the lab group's study pool only admits the
#: five lab-study sites, and gov.uk is the lightest of them.
LAB_ANCHOR = "gov.uk"
#: The seed draws one site per stratum. Sites in a stratum cost about
#: the same host time on every workload's grid (measured per site on
#: each grid), so the seed changes which pages load without moving the
#: workload's cost. The strata span light (~250 KB, ~10 objects),
#: medium (~0.6-0.9 MB, 40 objects) and heavy (1.3-1.7 MB, 60-70
#: objects) pages. Heavier corpus pages are left out: one of them
#: alone costs 2-4 s of host time per grid, which would leave too few
#: repetitions in a run to time each condition steadily.
STRATA: Tuple[Tuple[str, ...], ...] = (
    ("site-02.example", "gravatar.com"),
    ("site-07.example", "spotify.com"),
    ("site-10.example", "site-12.example"),
)

RUNS = 1
SETUPS = 3
#: Participants relative to Table 3 in every study build.
PARTICIPANTS_SCALE = 10.0
STUDY_SHARDS = 2
QUERIES_PER_REP = 5000
QUERY_BATCH = 500
#: Shares of injected bad requests: malformed JSON and unknown keys.
MALFORMED_SHARE = 0.05
UNKNOWN_SHARE = 0.05
MIN_REPS = 2

#: Nominal seconds of one :func:`reference_task`, the unit timings are
#: scaled to: raw seconds times ``REFERENCE_TASK_S / measured task
#: time`` are reference seconds. A fixed number, near the task's
#: typical time on the box the benchmark was tuned on.
REFERENCE_TASK_S = 0.0015


@dataclass(frozen=True)
class Workload:
    """One workload's recorded grid; ``BENCHMARK.json`` says why."""

    name: str
    #: Networks of the timed recording; empty for ``posthoc``.
    networks: Tuple[str, ...] = ()
    stacks: Tuple[str, ...] = STACKS
    paths: Tuple[str, ...] = ("direct",)
    middleboxes: Tuple[str, ...] = ("none",)

    @property
    def records(self) -> bool:
        return bool(self.networks)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("ground", networks=("DSL", "LTE")),
    Workload("inflight", networks=("DA2GC", "MSS")),
    Workload("impaired", networks=("SAT+LAN",), stacks=("TCP+", "QUIC"),
             paths=("direct", "split"),
             middleboxes=("none", "adversarial")),
    Workload("posthoc"),
)}


def draw_sites(seed: int) -> List[str]:
    """The seed's site sample: the lab anchor plus one site per stratum."""
    rng = random.Random(f"sites-{seed}")
    return [LAB_ANCHOR] + [rng.choice(stratum) for stratum in STRATA]


def workload_spec(workload: Workload, seed: int) -> CampaignSpec:
    return CampaignSpec(
        sites=draw_sites(seed), networks=list(workload.networks),
        stacks=list(workload.stacks), seeds=(seed,), runs=RUNS,
        paths=list(workload.paths),
        middleboxes=list(workload.middleboxes),
        name=workload.name)


def study_spec(seed: int) -> CampaignSpec:
    return CampaignSpec(
        sites=draw_sites(seed)[:2], networks=list(STUDY_NETWORKS),
        stacks=list(STACKS), seeds=(seed,), runs=RUNS, name="study")


def reference_task() -> int:
    """A fixed pure-Python event-queue workload of about 1.5 ms.

    It exercises what the simulator spends its time on (heap
    operations, tuples, dict lookups, calls) without calling into the
    program, so no change to the program can move it.
    """
    heap: List[Tuple[float, int, Dict[str, int]]] = []
    for i in range(1200):
        heapq.heappush(heap, ((i * 7919) % 1000 / 1000.0, i, {"n": i}))
    total = 0
    while heap:
        _, _, payload = heapq.heappop(heap)
        total += payload["n"] & 3
    return total


class Clock:
    """Converts the raw seconds of a piece of work to reference seconds.

    :meth:`mark` times the reference task (median of three) and returns
    the scale for the piece since the previous mark: reference seconds
    per raw second, from the mean of the task times at both ends.
    """

    def __init__(self) -> None:
        self.overhead_s = 0.0
        self._task_s = self._time_task()

    def _time_task(self) -> float:
        start = time.perf_counter()
        times = []
        for _ in range(3):
            task_start = time.perf_counter()
            reference_task()
            times.append(time.perf_counter() - task_start)
        self.overhead_s += time.perf_counter() - start
        return statistics.median(times)

    def mark(self) -> float:
        before, self._task_s = self._task_s, self._time_task()
        return 2 * REFERENCE_TASK_S / (before + self._task_s)


# -- recording ---------------------------------------------------------------


@dataclass
class RecordStats:
    """One ``Campaign.run``: settled conditions and their host time."""

    #: ``Campaign.run`` wall time outside the conditions' own
    #: durations (orchestration, manifest, cache), reference seconds.
    outside_s: float
    conditions: int
    failed: int
    #: fingerprint -> (stack family, page loads, reference seconds) per
    #: simulated condition.
    settled: Dict[str, Tuple[str, int, float]] = field(
        default_factory=dict)
    digest: str = ""


def record(spec: CampaignSpec, cache_dir: Path, tracer,
           clock: Optional[Clock]) -> Tuple[RecordStats, Path]:
    """Record ``spec`` into a fresh cache directory.

    With a clock, the reference task runs between conditions (from the
    campaign's progress callback), so each condition's duration is
    scaled by the machine speed measured right around it.
    """
    campaign = Campaign(spec, cache_dir=cache_dir)
    scales: Dict[str, float] = {}
    progress = None
    if clock is not None:
        def progress(event) -> None:
            scales[event.result.condition.fingerprint()] = clock.mark()

        clock.mark()
        overhead = clock.overhead_s
    start = time.perf_counter()
    with tracer.span("testbed.campaign_run"):
        result = campaign.run(processes=1, failure_policy="skip",
                              progress=progress)
    outside = time.perf_counter() - start - sum(
        outcome.duration_s for outcome in result.results)
    if clock is not None:
        outside -= clock.overhead_s - overhead
    stats = RecordStats(outside_s=outside, conditions=len(result.results),
                        failed=0)
    for outcome in result.results:
        if outcome.status != "simulated":
            stats.failed += 1
            continue
        condition = outcome.condition
        fingerprint = condition.fingerprint()
        stats.settled[fingerprint] = (
            "quic" if condition.stack.is_quic else "tcp", condition.runs,
            outcome.duration_s * scales.get(fingerprint, 1.0))
    if scales:
        stats.outside_s *= statistics.median(scales.values())
    stats.digest = summaries_digest(campaign.campaign_dir)
    return stats, campaign.campaign_dir


def summaries_digest(campaign_dir: Path) -> str:
    """sha256 over a campaign's settled summaries, sorted by fingerprint."""
    pairs = sorted((key.fingerprint, summary.to_json())
                   for key, summary in SummaryStore.open(campaign_dir))
    return _digest(pairs)


def _digest(value: object) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- post-hoc read path ------------------------------------------------------


@dataclass
class ReadResult:
    #: Seconds per read-path stage (span name -> seconds).
    stage_s: Dict[str, float]
    participants: int
    index: ConditionIndex
    merged: StudyPartial
    study_index: StudyIndex
    digests: Dict[str, str]


class Stages:
    """Times the stages of one read path; each is also a tracer span."""

    def __init__(self, tracer, clock: Optional[Clock]) -> None:
        self.tracer = tracer
        self.clock = clock
        #: Stage name -> reference seconds (raw without a clock).
        self.seconds: Dict[str, float] = {}
        if clock is not None:
            clock.mark()

    @contextmanager
    def __call__(self, name: str, tag: Optional[str] = None):
        start = time.perf_counter()
        with self.tracer.span(name, tag):
            yield
        elapsed = time.perf_counter() - start
        if self.clock is not None:
            elapsed *= self.clock.mark()
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed


def read_path(campaign_dir: Path, seed: int, scratch: Path, tracer,
              clock: Optional[Clock]) -> ReadResult:
    """Store open -> grid report -> shards -> merge -> report -> index."""
    stage = Stages(tracer, clock)
    with stage("testbed.store_open"):
        store = SummaryStore.open(campaign_dir)
    with stage("analysis.grid_report"):
        grid = grid_report(store)
        grid_text = json.dumps(grid.to_json(), sort_keys=True)
    with stage("study.condition_index"):
        index = ConditionIndex.from_pairs(store)
    paths = []
    for shard in range(STUDY_SHARDS):
        with stage("study.build_partial", f"shard-{shard}"):
            partial = build_partial(
                index, seed=seed, participants_scale=PARTICIPANTS_SCALE,
                shard=(shard, STUDY_SHARDS))
        path = scratch / f"shard-{shard}.json"
        with stage("study.partial_io", f"shard-{shard}"):
            partial.write(path)
        paths.append(path)
    with stage("study.partial_io", "load"):
        loaded = [StudyPartial.load(path) for path in paths]
    with stage("study.merge"):
        merged = merge_partials(loaded)
    with stage("study.report"):
        report_text = build_report(merged, index).render()
    with stage("study.index_build"):
        study_index = StudyIndex(index, merged)
    return ReadResult(
        stage_s=stage.seconds, participants=participants(merged),
        index=index, merged=merged, study_index=study_index,
        digests={"grid_report": _digest(grid_text),
                 "partial": _digest(merged.to_state()),
                 "report": _digest(report_text)})


def participants(partial: StudyPartial) -> int:
    """Simulated participants: the funnels' initial counts, summed."""
    return sum(row[0] for _, row in partial.funnels.items())


# -- serve loop ----------------------------------------------------------------


def make_queries(seed: int, read: ReadResult,
                 count: int = QUERIES_PER_REP) -> List[Tuple[str, bool]]:
    """Seed-drawn ``(request line, expected ok)`` pairs.

    Well-formed requests ask about cells the study actually holds, so
    each must answer ``ok: true``; a fixed share are malformed JSON or
    name an unknown site and must answer ``ok: false``.
    """
    rng = random.Random(f"queries-{seed}")
    index = read.index
    conditions = [(w, n, s) for w in index.websites
                  for n in index.networks for s in index.stacks
                  if (w, n, s) in index]
    ratings = sorted(read.merged.rating)
    votes = sorted(key for key, _ in read.merged.ab_votes.items())
    queries: List[Tuple[str, bool]] = []
    for _ in range(count):
        draw = rng.random()
        if draw < MALFORMED_SHARE:
            queries.append(('{"op": "mos", "website": ', False))
            continue
        if draw < MALFORMED_SHARE + UNKNOWN_SHARE:
            website, network, stack = rng.choice(conditions)
            queries.append((json.dumps({
                "op": "condition", "website": "unknown.example",
                "network": network, "stack": stack}), False))
            continue
        kind = rng.random()
        if kind < 0.4:
            group, context, website, network, stack = \
                rng.choice(ratings).split("|")
            request = {"op": "mos", "group": group, "context": context,
                       "website": website, "network": network,
                       "stack": stack,
                       "which": rng.choice(("speed", "quality"))}
        elif kind < 0.75:
            group, website, network, stack_a, stack_b = \
                rng.choice(votes).split("|")
            request = {"op": "ab", "group": group, "network": network,
                       "stack_a": stack_a, "stack_b": stack_b}
            if rng.random() < 0.5:
                request["website"] = website
        else:
            website, network, stack = rng.choice(conditions)
            request = {"op": "condition", "website": website,
                       "network": network, "stack": stack}
        queries.append((json.dumps(request), True))
    return queries


@dataclass
class ServeResult:
    latencies_us: List[float]
    attempted: int = 0
    failed: int = 0
    #: Injected bad requests that were (correctly) refused.
    refused: int = 0
    #: Injected bad requests that were wrongly answered ``ok: true``.
    accepted_bad: int = 0


def serve(study_index: StudyIndex, queries: Sequence[Tuple[str, bool]],
          tracer, clock: Optional[Clock]) -> ServeResult:
    """Answer requests one at a time through the serve loop.

    With a clock, every :data:`QUERY_BATCH` requests are scaled by the
    machine speed measured around their batch.
    """
    out = io.StringIO()
    result = ServeResult(latencies_us=[])
    if clock is not None:
        clock.mark()
    batch: List[float] = []
    for number, (line, expect_ok) in enumerate(queries):
        with tracer.span("study.index_query", f"q{number}"):
            start = time.perf_counter()
            serve_study_queries(study_index, [line], out)
            elapsed = time.perf_counter() - start
        batch.append(elapsed * 1e6)
        ok = json.loads(out.getvalue())["ok"]
        out.seek(0)
        out.truncate()
        if expect_ok:
            result.attempted += 1
            result.failed += not ok
        elif ok:
            result.accepted_bad += 1
        else:
            result.refused += 1
        if len(batch) == QUERY_BATCH or number == len(queries) - 1:
            scale = clock.mark() if clock is not None else 1.0
            result.latencies_us.extend(x * scale for x in batch)
            batch = []
    return result


# -- checks ----------------------------------------------------------------


def one_shard_matches(read: ReadResult, seed: int) -> bool:
    """The two-shard merge equals a one-shard build of the same study.

    Counts must match exactly; Welford means and M2 are equal up to
    float merge order.
    """
    single = build_partial(read.index, seed=seed,
                           participants_scale=PARTICIPANTS_SCALE,
                           shard=(0, 1))
    merged = read.merged
    if single.config != merged.config:
        return False
    for name in ("funnels", "ab_votes", "histograms"):
        if getattr(single, name).to_json() != \
                getattr(merged, name).to_json():
            return False
    if sorted(single.rating) != sorted(merged.rating):
        return False
    for key, cell in single.rating.items():
        for which, moments in cell.items():
            other = merged.rating[key][which]
            if moments.count != other.count:
                return False
            for a, b in ((moments.mean, other.mean),
                         (moments.m2, other.m2)):
                if abs(a - b) > 1e-9 * max(1.0, abs(a), abs(b)):
                    return False
    return True


# -- one run ---------------------------------------------------------------


@dataclass
class Rep:
    #: Raw wall time, without the reference task's runs.
    wall_s: float
    record: Optional[RecordStats]
    read: ReadResult
    serve: ServeResult

    @property
    def digests(self) -> Dict[str, str]:
        digests = dict(self.read.digests)
        if self.record is not None:
            digests["grid"] = self.record.digest
        return digests


class Runner:
    """Set-up and repetitions of one workload in one work directory."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.clock = Clock()
        self._fresh = 0
        #: Set-up times, reference seconds.
        self.setup_times: List[float] = []
        self.setup_records: List[RecordStats] = []
        self.study_dir: Optional[Path] = None
        self.queries: List[Tuple[str, bool]] = []

    def fresh_dir(self) -> Path:
        self._fresh += 1
        path = self.workdir / f"d{self._fresh}"
        path.mkdir(parents=True)
        return path

    def setup(self) -> None:
        """Record the study grid :data:`SETUPS` times into fresh dirs."""
        spec = study_spec(self.seed)
        for _ in range(SETUPS):
            self.clock.mark()
            start = time.perf_counter()
            # The site pages and a warm-up load are part of set-up, so
            # lazy imports and first-call costs never land in a timed
            # repetition.
            for site in spec.sites:
                build_site(site)
            load_page(build_site(LAB_ANCHOR), network_by_name("DSL"),
                      stack_by_name("TCP"), seed=self.seed)
            warm_s = (time.perf_counter() - start) * self.clock.mark()
            stats, study_dir = record(spec, self.fresh_dir(),
                                      NullTracer(), self.clock)
            self.setup_times.append(warm_s + stats.outside_s + sum(
                seconds for _, _, seconds in stats.settled.values()))
            self.setup_records.append(stats)
            if self.study_dir is not None:
                shutil.rmtree(self.study_dir.parent.parent)
            self.study_dir = study_dir

    def rep(self, tracer) -> Rep:
        """One repetition; traced ones skip the reference task."""
        clock = None if tracer.enabled else self.clock
        start = time.perf_counter()
        overhead = self.clock.overhead_s
        stats = None
        if self.workload.records:
            cache_dir = self.fresh_dir()
            stats, _ = record(workload_spec(self.workload, self.seed),
                              cache_dir, tracer, clock)
        scratch = self.fresh_dir()
        read = read_path(self.study_dir, self.seed, scratch, tracer, clock)
        if not self.queries:
            self.queries = make_queries(self.seed, read)
        served = serve(read.study_index, self.queries, tracer, clock)
        wall = time.perf_counter() - start - (
            self.clock.overhead_s - overhead)
        shutil.rmtree(scratch)
        if stats is not None:
            shutil.rmtree(cache_dir)
        return Rep(wall_s=wall, record=stats, read=read, serve=served)
