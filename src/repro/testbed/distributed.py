"""Cooperative multi-host execution of one campaign over a shared dir.

The PR-1 manifest and content-addressed recording cache are share-safe
on a common filesystem (atomic renames, per-writer unique tmp files,
append-only manifest), and the streaming accumulators' exact ``merge()``
makes per-worker partial aggregation safe. This module adds the missing
piece: a **lease-based claim protocol** so any number of worker
processes — on one machine or many hosts mounting the same directory —
can pull conditions from one :class:`~repro.testbed.campaign.CampaignSpec`
grid without ever simulating the same condition twice.

Protocol
--------
Each condition is claimed through a file ``claims/<fingerprint>.lease``
inside the campaign directory:

* **acquire** — ``open(..., O_CREAT | O_EXCL)``: exactly one worker
  wins; the file body records holder id, pid, host and acquire time.
* **heartbeat** — the holder touches the file's mtime every
  ``heartbeat_s`` (a daemon thread, so long simulations keep beating).
* **release** — the holder unlinks the file after the condition's
  manifest line has landed (success or terminal failure).
* **stale reclaim** — a lease whose mtime is older than ``ttl_s``
  belongs to a crashed worker. A reclaimer *renames* it to a unique
  tombstone first (atomic: exactly one reclaimer wins) and then races
  for a fresh ``O_EXCL`` acquire, so a crashed worker's condition is
  re-simulated exactly once.

Workers run the existing claim-aware
:meth:`~repro.testbed.campaign.Campaign.run` work queue: batched page
loads on the per-worker process pool, manifest lines appended exactly as
today. Conditions another live worker holds are polled and settle as
``"shared"`` (the holder wrote the manifest line); everything else about
resume/cache semantics is unchanged. That includes failures: a
condition a peer terminally *failed* (manifest line, no recording)
looks like reclaimable work to the next worker, which applies its own
``failure_policy`` budget — the same "relaunching retries failed
conditions" semantics a single-host re-run has, bounded at one retry
budget per worker.

Each worker also periodically flushes a **partial aggregate** —
``partials/<worker>.json``, the serialized
:class:`~repro.analysis.streaming.GridReport` state over the conditions
*it* simulated — so a leader (or a post-hoc
``repro campaign --report --campaign-dir DIR --from-partials``) can
:func:`merge_partial_reports` the shards into one report without
re-reading every summary. Conditions covered by no partial (resumed or
cached before any worker started, or recorded by a worker that crashed
before flushing) are completed from the
:class:`~repro.testbed.store.SummaryStore`.

Clock caveat: staleness compares the shared filesystem's mtime against
the local clock, so keep ``ttl_s`` comfortably above both the heartbeat
interval and any host clock skew (the 60 s default is fine for NTP-sane
fleets).
"""

from __future__ import annotations

import json
import logging
import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.streaming import GridReport
from repro.testbed import faults, harness
from repro.testbed.campaign import (
    Campaign,
    CampaignResult,
    Condition,
    ProgressCallback,
    SummarySink,
    default_processes,
    spec_from_json,
)
from repro.testbed.store import (
    CLAIMS_DIRNAME,
    OK_STATUSES,
    PARTIALS_DIRNAME,
    QUARANTINE_DIRNAME,
    StaleCampaignError,
    SummaryStore,
    atomic_write_text,
    seal_record,
)

logger = logging.getLogger(__name__)


def default_worker_id() -> str:
    """``<host>-<pid>``: unique per worker process on a shared mount."""
    return sanitize_worker_id(f"{socket.gethostname()}-{os.getpid()}")


def sanitize_worker_id(worker_id: str) -> str:
    """Make a worker id safe to embed in lease/partial file names.

    Ids become path components (``claims/<fp>.lease.stale-<id>-...``,
    ``partials/<id>.json``); a ``/`` or other special character would
    break tombstone renames and hide partials from discovery.
    """
    safe = "".join(c if c.isalnum() or c in "._-" else "-"
                   for c in worker_id)
    return safe or "worker"


@dataclass(frozen=True)
class LeaseConfig:
    """Tuning for the claim protocol (CLI: ``--lease-ttl`` etc.)."""

    #: Seconds without a heartbeat before a lease counts as stale and
    #: its condition may be reclaimed by another worker.
    ttl_s: float = 60.0
    #: Seconds between mtime touches on held leases.
    heartbeat_s: float = 15.0
    #: Seconds between polls of conditions other workers hold.
    poll_s: float = 1.0

    def __post_init__(self) -> None:
        if self.ttl_s <= 0 or self.heartbeat_s <= 0 or self.poll_s <= 0:
            raise ValueError("lease timings must be positive")
        if self.heartbeat_s >= self.ttl_s:
            raise ValueError(
                f"heartbeat_s ({self.heartbeat_s:g}) must be shorter "
                f"than ttl_s ({self.ttl_s:g}), or every long simulation "
                f"looks crashed")


class LeaseManager:
    """Per-condition claim files with O_EXCL acquire and mtime leases."""

    def __init__(self, campaign_dir: Union[str, Path], worker_id: str,
                 config: Optional[LeaseConfig] = None):
        self.claims_dir = Path(campaign_dir) / CLAIMS_DIRNAME
        self.worker_id = sanitize_worker_id(worker_id)
        self.config = config if config is not None else LeaseConfig()
        self._held: Dict[str, Path] = {}
        self._lock = threading.Lock()

    def path(self, fingerprint: str) -> Path:
        return self.claims_dir / f"{fingerprint}.lease"

    def holds(self, fingerprint: str) -> bool:
        with self._lock:
            return fingerprint in self._held

    def held_count(self) -> int:
        with self._lock:
            return len(self._held)

    def acquire(self, fingerprint: str) -> bool:
        """Try to claim one condition; idempotent for held leases.

        The lease body is written to a private temp file first and
        published with :func:`os.link` — atomic and exclusive, like
        ``O_CREAT | O_EXCL``, but the lease appears fully formed with a
        fresh mtime. That link *is* the initial heartbeat: a worker
        killed at any point in acquire leaves either no lease at all or
        a complete, attributable one, never an empty husk that blocks
        the condition for a TTL with no holder recorded.
        """
        if self.holds(fingerprint):
            return True
        self.claims_dir.mkdir(parents=True, exist_ok=True)
        path = self.path(fingerprint)
        # Storm fault point: chaos tests plant a ghost stale lease here
        # to force the break_stale/re-acquire path under contention.
        faults.fire("acquire", fingerprint=fingerprint,
                    claims_dir=str(self.claims_dir),
                    ttl_s=self.config.ttl_s)
        tmp = path.with_name(
            f".{path.name}.acquire-{self.worker_id}-"
            # simlint: allow[no-ambient-rng] -- per-writer unique temp name for the atomic publish; never feeds simulation bytes
            f"{uuid.uuid4().hex[:8]}.tmp")
        tmp.write_text(json.dumps({
            "worker": self.worker_id,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            # simlint: allow[no-wallclock] -- lease provenance stamp; staleness is judged by file mtime, humans read this field
            "acquired_at": time.time(),
        }))
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        finally:
            try:
                tmp.unlink()
            except FileNotFoundError:
                pass
        with self._lock:
            self._held[fingerprint] = path
        return True

    def release(self, fingerprint: str) -> None:
        """Drop a held lease without ever deleting someone else's.

        If our heartbeat stalled past ``ttl_s``, a peer may have broken
        the stale lease and re-acquired the same path — a bare unlink
        here would delete *their* live lease and let a third worker
        claim the condition again. Rename-first makes the ownership
        check atomic: we inspect the exact file we took, and restore a
        peer's lease with a no-clobber hard link if one was taken by
        mistake.
        """
        with self._lock:
            path = self._held.pop(fingerprint, None)
        if path is None:
            return
        tombstone = path.with_name(
            f"{path.name}.release-{self.worker_id}-"
            # simlint: allow[no-ambient-rng] -- tombstone names must be unique across racing workers; never feeds simulation bytes
            f"{uuid.uuid4().hex[:8]}")
        try:
            os.rename(path, tombstone)
        except FileNotFoundError:
            return  # reclaimed and already broken; nothing to drop
        try:
            holder = json.loads(tombstone.read_text()).get("worker")
        except (OSError, json.JSONDecodeError):
            # Torn body: our own leases are fully written before being
            # tracked, so this is a peer's in-flight acquire — restore
            # it, never delete it.
            holder = None
        if holder != self.worker_id:
            # A reclaimer's live lease: put it back. link() refuses to
            # clobber, so a lease acquired meanwhile wins instead.
            try:
                os.link(tombstone, path)
            except OSError:
                pass
        try:
            tombstone.unlink()
        except FileNotFoundError:
            pass

    def release_all(self) -> None:
        with self._lock:
            held = list(self._held)
        for fingerprint in held:
            self.release(fingerprint)

    def holder(self, fingerprint: str) -> Optional[Dict[str, object]]:
        """The claim file's metadata, or None when unclaimed/torn."""
        try:
            return json.loads(self.path(fingerprint).read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return None

    def age_s(self, fingerprint: str) -> Optional[float]:
        """Seconds since the lease's last heartbeat (None: no lease)."""
        try:
            # simlint: allow[no-wallclock] -- lease staleness is real elapsed time since the holder's last heartbeat
            return time.time() - self.path(fingerprint).stat().st_mtime
        except FileNotFoundError:
            return None

    def is_stale(self, fingerprint: str) -> bool:
        age = self.age_s(fingerprint)
        return age is not None and age > self.config.ttl_s

    def break_stale(self, fingerprint: str) -> bool:
        """Remove a stale lease so the condition can be re-claimed.

        Rename-first makes the break atomic: of N workers that all saw
        the lease go stale, exactly one wins the rename (the rest get
        FileNotFoundError) — and the winner still has to race everyone
        through :meth:`acquire` afterwards. Returns True when a stale
        lease was actually broken.
        """
        if not self.is_stale(fingerprint):
            return False
        path = self.path(fingerprint)
        tombstone = path.with_name(
            # simlint: allow[no-ambient-rng] -- tombstone names must be unique across racing workers; never feeds simulation bytes
            f"{path.name}.stale-{self.worker_id}-{uuid.uuid4().hex[:8]}")
        try:
            os.rename(path, tombstone)
        except FileNotFoundError:
            return False  # released, or another worker broke it first
        tombstone.unlink()
        return True

    def heartbeat(self) -> None:
        """Touch every held lease's mtime (called by the beat thread)."""
        # Stall fault point: a True return suppresses this beat, so the
        # held leases age past ttl_s and peers exercise stale reclaim.
        if faults.fire("heartbeat", worker=self.worker_id):
            return
        with self._lock:
            paths = list(self._held.values())
        for path in paths:
            try:
                os.utime(path)
            except FileNotFoundError:
                pass  # lease was force-reclaimed; acquire() wins races


class _HeartbeatThread(threading.Thread):
    """Daemon touching held leases so long simulations keep their claims."""

    def __init__(self, leases: LeaseManager):
        super().__init__(name=f"lease-heartbeat-{leases.worker_id}",
                         daemon=True)
        self._leases = leases
        self._stop = threading.Event()

    def run(self) -> None:
        interval = self._leases.config.heartbeat_s
        while not self._stop.wait(interval):
            self._leases.heartbeat()

    def stop(self) -> None:
        self._stop.set()


class ClaimQueue:
    """The cooperative :class:`~repro.testbed.campaign.ClaimProtocol`.

    Bridges the campaign's work queue to a :class:`LeaseManager` and an
    optional :class:`PartialAggregator`: ``select`` acquires leases
    (breaking stale ones), ``wait`` is one bounded poll over deferred
    conditions, ``recorded`` feeds the partial aggregate.

    ``claim_chunk`` bounds how many leases one ``select`` pass takes, so
    a fast worker cannot lock the whole remaining grid the moment it
    starts — unclaimed leftovers stay up for grabs and flow back
    through ``wait`` (which returns immediately while anything is
    actionable; it only sleeps ``poll_s`` when every deferred condition
    is genuinely held by a live peer).
    """

    def __init__(self, campaign: Campaign, leases: LeaseManager,
                 partial: Optional["PartialAggregator"] = None,
                 claim_chunk: Optional[int] = None):
        if claim_chunk is not None and claim_chunk < 1:
            raise ValueError(
                f"claim_chunk must be at least 1, got {claim_chunk}")
        self._campaign = campaign
        self._leases = leases
        self._partial = partial
        self.claim_chunk = claim_chunk
        # Incremental tail over the append-only manifest: fingerprints
        # peers have *committed* (recording stored AND manifest line
        # landed) since this queue was created. Settling on this — not
        # on cache-file existence — means a peer killed between its
        # cache store and its manifest append leaves the condition
        # reclaimable instead of silently settled with no manifest
        # line; the reclaimer's simulate is a cache hit, so nothing is
        # computed twice either way. The tail starts at the current end
        # of the manifest: *historical* ok lines must not count as
        # commits, or a manifest-ok-but-cache-pruned condition would
        # never be re-simulated (the startup scan handles history).
        self._committed: set = set()
        try:
            # Align to the last complete line: a torn final line from a
            # killed writer would otherwise glue itself onto the first
            # commit we tail.
            self._manifest_offset = \
                campaign.manifest_path.read_bytes().rfind(b"\n") + 1
        except FileNotFoundError:
            self._manifest_offset = 0

    def _refresh_committed(self) -> None:
        """Read manifest lines appended since the last poll (cheap:
        the file is append-only, so one seek+read of the new suffix;
        binary mode keeps the offset in bytes)."""
        try:
            with open(self._campaign.manifest_path, "rb") as handle:
                handle.seek(self._manifest_offset)
                chunk = handle.read()
        except FileNotFoundError:
            return
        end = chunk.rfind(b"\n")
        if end < 0:
            return  # nothing new, or a torn line still being written
        self._manifest_offset += end + 1
        for line in chunk[:end].decode("utf-8", "replace").splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if record.get("status") in OK_STATUSES:
                self._committed.add(str(record.get("fingerprint")))

    def committed(self, fingerprint: str) -> bool:
        """Has any worker committed this condition (manifest line)?

        Refreshes the incremental manifest tail on a miss, so a
        just-landed peer commit is seen.
        """
        if fingerprint not in self._committed:
            self._refresh_committed()
        return fingerprint in self._committed

    def poisoned(self, fingerprint: str) -> bool:
        """Has a supervisor quarantined this condition?

        A ``quarantine/<fingerprint>`` marker means the condition
        repeatedly killed workers and exhausted its retry budget (see
        :mod:`repro.testbed.supervisor`). :meth:`Campaign.run` settles
        such conditions as ``poisoned`` instead of simulating them.
        """
        return (self._campaign.campaign_dir / QUARANTINE_DIRNAME /
                fingerprint).exists()

    def _acquire(self, fingerprint: str) -> bool:
        """Win the condition's lease, breaking a stale one first."""
        if self._leases.acquire(fingerprint):
            return True
        self._leases.break_stale(fingerprint)
        return self._leases.acquire(fingerprint)

    def adopt(self, condition: Condition) -> bool:
        """Claim an orphaned recording (cache hit, no manifest line).

        The startup scan uses this so that of N joiners that all find
        the same unmanifested recording, exactly one appends the
        "cached" manifest line; the rest see False and settle the
        condition as resumed. Release after appending, like any lease.
        """
        return self._acquire(condition.fingerprint())

    def select(
        self, conditions: Sequence[Condition],
    ) -> Tuple[List[Condition], List[Condition]]:
        self._refresh_committed()
        mine: List[Condition] = []
        deferred: List[Condition] = []
        for condition in conditions:
            if self.claim_chunk is not None and \
                    len(mine) >= self.claim_chunk:
                deferred.append(condition)  # not attempted this pass
                continue
            fingerprint = condition.fingerprint()
            if fingerprint in self._committed:
                # A peer committed it since our last look (its lease is
                # already released, so acquire() would "win" and append
                # a duplicate manifest line for a cache hit). Defer:
                # the next wait() settles it as shared.
                deferred.append(condition)
                continue
            if not self._acquire(fingerprint):
                deferred.append(condition)
                continue
            if self.committed(fingerprint):
                # A peer appended its line and released its lease
                # between the snapshot above and our winning that lease.
                # Peers append before releasing, so this re-check while
                # *holding* the lease decides for real.
                self._leases.release(fingerprint)
                deferred.append(condition)
                continue
            mine.append(condition)
        return mine, deferred

    def release(self, condition: Condition) -> None:
        self._leases.release(condition.fingerprint())

    def recorded(self, condition: Condition, summary=None) -> None:
        if self._partial is not None:
            self._partial.add(condition, summary)

    def _partition(
        self, deferred: Sequence[Condition],
    ) -> Tuple[List[Condition], List[Condition], List[Condition]]:
        self._refresh_committed()
        ttl = self._leases.config.ttl_s
        settled: List[Condition] = []
        reclaimed: List[Condition] = []
        still: List[Condition] = []
        for condition in deferred:
            fingerprint = condition.fingerprint()
            if fingerprint in self._committed:
                settled.append(condition)
                continue
            # One stat per uncommitted condition: a missing lease
            # (beyond someone's chunk, or the holder failed/released
            # without committing) and a stale one are both ours to
            # try; select() races for the actual lease.
            age = self._leases.age_s(fingerprint)
            if age is None or age > ttl:
                reclaimed.append(condition)
            else:
                still.append(condition)
        if reclaimed:
            # Close the snapshot race: a peer that committed *after*
            # our manifest read and released *before* our lease stat
            # looks reclaimable on stale data. Peers always append
            # before releasing, so one fresh read decides for real —
            # anything still uncommitted now is genuinely ours.
            self._refresh_committed()
            confirmed = []
            for condition in reclaimed:
                if condition.fingerprint() in self._committed:
                    settled.append(condition)
                else:
                    confirmed.append(condition)
            reclaimed = confirmed
        return settled, reclaimed, still

    def wait(
        self, deferred: Sequence[Condition],
    ) -> Tuple[List[Condition], List[Condition], List[Condition]]:
        settled, reclaimed, still = self._partition(deferred)
        if settled or reclaimed:
            return settled, reclaimed, still
        time.sleep(self._leases.config.poll_s)
        return self._partition(deferred)


class PartialAggregator:
    """This worker's shard of the grid report, flushed to ``partials/``.

    Accumulates the per-run samples of every condition the worker
    simulated into a :class:`GridReport` and atomically rewrites
    ``partials/<worker>.json`` every ``flush_every`` additions (and on
    :meth:`close`). The file carries the covered fingerprints and the
    ``sim_behaviour`` stamp so :func:`merge_partial_reports` can combine
    shards exactly and refuse stale ones.
    """

    def __init__(self, campaign: Campaign, worker_id: str,
                 report: Optional[GridReport] = None,
                 flush_every: int = 10):
        self._campaign = campaign
        self.worker_id = sanitize_worker_id(worker_id)
        worker_id = self.worker_id
        self.report = report if report is not None else GridReport()
        self.flush_every = max(1, flush_every)
        self.fingerprints: List[str] = []
        self._unflushed = 0
        self.path = campaign.campaign_dir / PARTIALS_DIRNAME / \
            f"{worker_id}.json"

    def add(self, condition: Condition, summary=None) -> None:
        if summary is None:  # caller didn't have the recording in hand
            summary = self._campaign.cache.load(condition.label,
                                                condition.fingerprint())
        if summary is None:
            return
        self.report.add(condition.key, summary)
        self.fingerprints.append(condition.fingerprint())
        self._unflushed += 1
        if self._unflushed >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        self._unflushed = 0
        atomic_write_text(self.path, json.dumps(seal_record({
            "worker": self.worker_id,
            "sim_behaviour": harness.SIM_BEHAVIOUR_VERSION,
            "campaign_fingerprint": self._campaign.spec.fingerprint(),
            "fingerprints": self.fingerprints,
            "report": self.report.to_state(),
            # simlint: allow[no-wallclock] -- partial-aggregate provenance stamp for humans, not simulation input
            "at": time.time(),
        }), indent=1))

    def close(self) -> None:
        """Final flush — but only if this worker recorded anything."""
        if self.fingerprints:
            self.flush()


def join_campaign(
    campaign_dir: Union[str, Path],
    cache_dir: Optional[Union[str, Path]] = None,
    worker: Optional[str] = None,
) -> Campaign:
    """Rebuild a :class:`Campaign` from a campaign directory on disk.

    Reads ``spec.json`` (full axis payloads, see
    :meth:`CampaignSpec.describe`), refuses directories recorded under a
    different ``SIM_BEHAVIOUR_VERSION``, and cross-checks the rebuilt
    spec's fingerprint against the recorded one so a joiner can never
    silently simulate a *different* grid into someone else's manifest.

    ``cache_dir`` defaults to the layout ``Campaign`` creates (two
    levels up from the campaign directory), exactly like
    :meth:`SummaryStore.open`.
    """
    campaign_dir = Path(campaign_dir)
    spec_path = campaign_dir / "spec.json"
    if not spec_path.exists():
        raise FileNotFoundError(
            f"no campaign spec at {spec_path}; create the directory "
            f"first (run the campaign once anywhere with a shared "
            f"--cache-dir, or Campaign.write_spec())")
    data = json.loads(spec_path.read_text())
    recorded_version = data.get("sim_behaviour")
    if recorded_version is not None and \
            int(recorded_version) != harness.SIM_BEHAVIOUR_VERSION:
        raise StaleCampaignError(
            f"campaign dir {campaign_dir} was recorded under "
            f"SIM_BEHAVIOUR_VERSION={recorded_version}, but this "
            f"worker simulates version {harness.SIM_BEHAVIOUR_VERSION}; "
            f"joining would mix incomparable recordings")
    spec = spec_from_json(data)
    recorded_fingerprint = data.get("fingerprint")
    if recorded_fingerprint is not None and \
            spec.fingerprint() != recorded_fingerprint:
        raise ValueError(
            f"rebuilt spec fingerprint {spec.fingerprint()} does not "
            f"match the one recorded in {spec_path} "
            f"({recorded_fingerprint}); the directory was written by an "
            f"incompatible simulator or the spec file was edited")
    if cache_dir is None:
        cache_dir = campaign_dir.parent.parent
    return Campaign(spec, cache_dir=cache_dir, campaign_dir=campaign_dir,
                    worker=worker)


def run_worker(
    campaign: Campaign,
    worker_id: Optional[str] = None,
    lease: Optional[LeaseConfig] = None,
    report: Optional[GridReport] = None,
    flush_every: int = 10,
    claim_chunk: Optional[int] = None,
    processes: Optional[int] = None,
    batch_size: Optional[int] = None,
    failure_policy: str = "retry",
    max_retries: int = 2,
    progress: Optional[ProgressCallback] = None,
    sink: Optional[SummarySink] = None,
) -> CampaignResult:
    """Run one cooperative worker over a (possibly shared) campaign.

    The worker claims conditions through the lease protocol — at most
    ``claim_chunk`` at a time (default: two rounds of its own pool), so
    late joiners still find work — simulates them on its own process
    pool (``processes`` / ``batch_size`` as in :meth:`Campaign.run`),
    appends manifest lines stamped with its worker id, and flushes its
    partial aggregate to ``partials/<worker_id>.json``. Returns this
    worker's view of the run: conditions it simulated plus ``shared``
    results other workers recorded while it waited.

    Use :func:`join_campaign` to build ``campaign`` from a directory on
    disk (the ``repro campaign --join DIR`` path), or pass a live
    :class:`Campaign` sharing cache and campaign dirs with its peers.
    """
    # Chaos runs hand the fault plan to worker subprocesses through the
    # environment; a no-op unless REPRO_FAULT_PLAN is set, and never
    # replaces an injector a test installed explicitly.
    faults.install_from_env()
    if worker_id is None:
        worker_id = campaign.worker or default_worker_id()
    worker_id = sanitize_worker_id(worker_id)
    campaign.worker = worker_id
    campaign.write_spec()
    if claim_chunk is None:
        claim_chunk = 2 * max(1, default_processes()
                              if processes is None else processes)
    leases = LeaseManager(campaign.campaign_dir, worker_id, lease)
    partial = PartialAggregator(campaign, worker_id, report=report,
                                flush_every=flush_every)
    claims = ClaimQueue(campaign, leases, partial,
                        claim_chunk=claim_chunk)
    beat = _HeartbeatThread(leases)
    beat.start()
    try:
        result = campaign.run(
            processes=processes,
            failure_policy=failure_policy,
            max_retries=max_retries,
            progress=progress,
            batch_size=batch_size,
            sink=sink,
            claims=claims,
        )
    finally:
        beat.stop()
        partial.close()
        leases.release_all()
    return result


def merge_partial_reports(
    campaign_dir: Union[str, Path],
    report: Optional[GridReport] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    check_behaviour: bool = True,
) -> GridReport:
    """Merge every worker's ``partials/<worker>.json`` into one report.

    Shards merge through :meth:`GridReport.merge` (exact, order-safe
    Chan et al. moment combination). Conditions no shard covers —
    resumed/cached before the workers started, or simulated by a worker
    that crashed before its final flush — are streamed from the
    :class:`SummaryStore` so the merged report always covers the whole
    recorded grid exactly once.

    ``report`` fixes the expected pivot configuration (axes, metric,
    confidence); shards written under a different configuration raise
    ``ValueError`` rather than silently merging apples into oranges.

    Degraded mode: a shard a crashed worker left torn (invalid JSON or
    checksum mismatch) is skipped with a warning — its conditions are
    topped up from the store like any uncovered condition. Conditions
    the spec expects but *nothing* recorded (crashed before storing,
    or quarantined as poisoned) are marked on the report via
    :meth:`GridReport.mark_coverage`, so renders carry an explicit
    DEGRADED note instead of silently presenting a partial grid.
    """
    campaign_dir = Path(campaign_dir)
    store = SummaryStore.open(campaign_dir, cache_dir=cache_dir,
                              check_behaviour=check_behaviour)
    if report is None:
        report = GridReport()
    covered = set()
    for path in store.partial_paths():
        try:
            state = store.load_partial_state(
                path, check_behaviour=check_behaviour)
        except (ValueError, OSError) as error:
            if isinstance(error, StaleCampaignError):
                raise  # wrong behaviour version is never survivable
            # Torn shard from a crashed worker: its conditions are
            # recovered exactly from the store below.
            logger.warning("skipping unreadable partial %s: %s",
                           path.name, error)
            continue
        shard = GridReport.from_state(state["report"])
        if shard.config() != report.config():
            raise ValueError(
                f"partial {path.name} was aggregated with pivot config "
                f"{shard.config()}, expected {report.config()}; re-run "
                f"the workers with matching report flags or report "
                f"directly from the summaries (drop --from-partials)")
        fingerprints = set(state.get("fingerprints", ()))
        if fingerprints & covered:
            # Two shards claim the same condition (e.g. the cache was
            # pruned and a later worker re-simulated what an earlier
            # partial already aggregated). Merging both would count its
            # samples twice, so the whole shard is skipped — every one
            # of its conditions is topped up from the store below,
            # which is exact.
            continue
        report.merge(shard)
        covered |= fingerprints
    # Only uncovered conditions pay a summary read — on a grid fully
    # covered by shards this loop loads nothing, which is the whole
    # point of --from-partials (O(workers), not O(grid), reads).
    for key in store.keys():
        if key.fingerprint in covered:
            continue
        summary = store.load(key)
        if summary is not None:
            report.add(key, summary)
        covered.add(key.fingerprint)
    # Coverage check against the spec: anything still missing has no
    # recording at all — mark it so the render says so.
    spec_path = campaign_dir / "spec.json"
    if spec_path.exists():
        try:
            spec = spec_from_json(json.loads(spec_path.read_text()))
        except (ValueError, KeyError, TypeError, json.JSONDecodeError):
            spec = None
        if spec is not None:
            conditions = spec.conditions()
            expected = {condition.fingerprint(): condition.label
                        for condition in conditions}
            missing = sorted(
                label for fingerprint, label in expected.items()
                if fingerprint not in covered)
            report.mark_coverage(len(expected), missing)
            # Shard merge order follows worker timing; the render must
            # not (a recovered chaos run has to be byte-identical to a
            # fault-free one). Sweep order is the campaign's canon.
            report.reorder([condition.key for condition in conditions])
    return report
