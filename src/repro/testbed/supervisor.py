"""Worker supervision for chaos-hardened campaigns.

:func:`run_worker` survives peer crashes passively — stale leases get
reclaimed after a TTL — but nothing *respawns* a dead worker, a hung
host ties up its claims for a full TTL with no operator signal, and a
condition that reliably kills whoever touches it would be retried
forever. The :class:`Supervisor` closes those gaps for the single-host
many-process case (``repro campaign --workers N``):

* spawns N joiner subprocesses over one campaign directory, each a
  full :func:`~repro.testbed.distributed.run_worker` with its own
  lease heartbeat and an even share of the CPUs;
* watches exit codes and lease heartbeats: a clean exit (0/2) retires
  the slot, anything else — including the fault injector's
  :data:`~repro.testbed.faults.CRASH_EXIT_CODE` and a live-but-stalled
  worker whose own leases went stale under it — counts as a crash;
* on a crash, breaks the dead incarnation's leases immediately
  (peers stop waiting out the TTL) and **blames** each fingerprint the
  worker died holding;
* respawns the slot with capped exponential backoff, as incarnation
  ``w0.r1``, ``w0.r2``, ... — fault plans address incarnations, so an
  injected ``crash:w0@1`` fires once rather than crash-looping. On
  disk (leases, manifest lines, partials) a worker is
  ``<base>-<incarnation>``, where the base is ``--worker-id`` or
  ``<host>-<pid>`` of the supervisor, so fleets on different hosts
  sharing one directory never collide;
* a fingerprint blamed ``retry_budget`` times is **quarantined**: a
  ``quarantine/<fingerprint>`` marker makes every worker settle it as
  ``poisoned`` (see :meth:`ClaimQueue.poisoned`) instead of letting a
  killer condition eat the whole fleet.

The supervisor is orchestration only: it never reads or writes
simulation state, and a supervised fault-free run leaves a campaign
directory byte-identical to plain ``--join`` workers.

:func:`campaign_status` is the read-only sibling (``repro campaign
--status DIR``): one-shot health report over the same on-disk state —
manifest statuses, lease liveness, quarantine markers, torn-line
warnings — for operators of long multi-host runs.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.testbed import faults
from repro.testbed.campaign import (
    CampaignError,
    default_processes,
    pool_context,
)
from repro.testbed.distributed import (
    LeaseConfig,
    default_worker_id,
    join_campaign,
    run_worker,
    sanitize_worker_id,
)
from repro.testbed.store import (
    CLAIMS_DIRNAME,
    OK_STATUSES,
    QUARANTINE_DIRNAME,
    read_jsonl,
)

#: Child exit statuses the supervisor retires (vs respawns).
_CLEAN_EXITS = (0, 2)


def quarantine_dir(campaign_dir: Union[str, Path]) -> Path:
    return Path(campaign_dir) / QUARANTINE_DIRNAME


def quarantined_fingerprints(
        campaign_dir: Union[str, Path]) -> List[str]:
    """Fingerprints with a quarantine marker, sorted."""
    directory = quarantine_dir(campaign_dir)
    if not directory.is_dir():
        return []
    return sorted(p.name for p in directory.iterdir()
                  if not p.name.startswith("."))


def _supervised_entry(
    campaign_dir: str,
    cache_dir: Optional[str],
    worker_id: str,
    incarnation: str,
    plan_text: Optional[str],
    lease_kwargs: Dict[str, float],
    run_kwargs: Dict[str, object],
) -> None:
    """Child-process body of one supervised worker incarnation.

    Installs the fault plan addressed to this ``incarnation`` *before*
    any campaign I/O, joins the shared directory and runs one
    cooperative worker as ``worker_id``. Exit status is the
    supervisor's liveness protocol: 0 all conditions ok, 2 finished
    with failed/poisoned conditions or stopped by ``failure_policy=
    "abort"``, 3 the worker itself errored; an injected kill exits
    :data:`~repro.testbed.faults.CRASH_EXIT_CODE` via ``os._exit``.
    """
    try:
        if plan_text:
            faults.install(faults.FaultPlan.parse(plan_text),
                           worker=incarnation)
        campaign = join_campaign(campaign_dir, cache_dir=cache_dir,
                                 worker=worker_id)
        result = run_worker(
            campaign,
            worker_id=worker_id,
            lease=LeaseConfig(**lease_kwargs),
            **run_kwargs,
        )
    except CampaignError as error:
        # A deliberate stop: the failure is in the manifest, and a
        # respawn would only run the failing condition again.
        print(f"worker {worker_id}: {error}", file=sys.stderr)
        sys.exit(2)
    except Exception:
        traceback.print_exc()
        sys.exit(3)
    sys.exit(0 if result.ok else 2)


@dataclass
class WorkerExit:
    """One terminal child event, as the supervisor classified it."""

    slot: str          # base slot, e.g. "w0"
    worker_id: str     # incarnation, e.g. "w0.r1"
    exit_code: Optional[int]
    stalled: bool = False
    blamed: Tuple[str, ...] = ()

    @property
    def crashed(self) -> bool:
        return self.stalled or self.exit_code not in _CLEAN_EXITS


@dataclass
class SupervisorReport:
    """Structured summary of one supervised campaign run."""

    workers: int
    exits: List[WorkerExit] = field(default_factory=list)
    respawns: int = 0
    quarantined: List[str] = field(default_factory=list)
    gave_up: List[str] = field(default_factory=list)

    @property
    def crashes(self) -> int:
        return sum(1 for e in self.exits if e.crashed)

    @property
    def stalls(self) -> int:
        return sum(1 for e in self.exits if e.stalled)

    @property
    def ok(self) -> bool:
        """All slots retired cleanly and nothing was quarantined."""
        return not self.gave_up and not self.quarantined and all(
            e.exit_code == 0 for e in self.exits if not e.crashed)

    def describe(self) -> str:
        lines = [
            f"supervised {self.workers} worker(s): "
            f"{self.crashes} crash(es) ({self.stalls} stalled), "
            f"{self.respawns} respawn(s), "
            f"{len(self.quarantined)} quarantined condition(s)"]
        for exit_ in self.exits:
            what = "stalled" if exit_.stalled else \
                f"exit {exit_.exit_code}"
            blamed = f", blamed {len(exit_.blamed)} lease(s)" \
                if exit_.blamed else ""
            lines.append(f"  {exit_.worker_id}: {what}{blamed}")
        if self.quarantined:
            lines.append("  poisoned: " + ", ".join(self.quarantined))
        if self.gave_up:
            lines.append("  gave up on slot(s): "
                         + ", ".join(self.gave_up))
        return "\n".join(lines)


class Supervisor:
    """Spawn, watch and respawn N workers over one campaign directory.

    ``retry_budget`` is the per-condition death toll before quarantine;
    ``max_respawns`` caps respawns *per slot* (a backstop against
    pathological crash loops the budget cannot attribute);
    ``backoff_base``/``backoff_max`` shape the respawn delay
    ``min(backoff_max, backoff_base * 2**respawns_so_far)``.
    ``worker_id`` is the base of every worker id this fleet stamps on
    disk (default :func:`~repro.testbed.distributed.default_worker_id`
    of the supervisor). ``run_kwargs`` go to each worker's
    :func:`~repro.testbed.distributed.run_worker`; without
    ``processes`` the workers split the CPUs evenly.
    """

    def __init__(
        self,
        campaign_dir: Union[str, Path],
        workers: int = 2,
        cache_dir: Optional[Union[str, Path]] = None,
        plan: Optional[faults.FaultPlan] = None,
        lease: Optional[LeaseConfig] = None,
        retry_budget: int = 3,
        max_respawns: int = 8,
        backoff_base: float = 0.25,
        backoff_max: float = 5.0,
        run_kwargs: Optional[Dict[str, object]] = None,
        worker_id: Optional[str] = None,
    ):
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        if retry_budget < 1:
            raise ValueError(
                f"retry_budget must be >= 1, got {retry_budget}")
        self.campaign_dir = Path(campaign_dir)
        self.workers = workers
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.plan = plan if plan is not None else faults.FaultPlan()
        self.lease = lease if lease is not None else LeaseConfig()
        self.retry_budget = retry_budget
        self.max_respawns = max_respawns
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.run_kwargs = dict(run_kwargs or {})
        if self.run_kwargs.get("processes") is None:
            self.run_kwargs["processes"] = default_processes(workers)
        self.worker_id = sanitize_worker_id(
            worker_id if worker_id is not None else default_worker_id())
        self._blame: Dict[str, int] = {}

    # -- lease forensics -----------------------------------------------------

    def _claims_dir(self) -> Path:
        return self.campaign_dir / CLAIMS_DIRNAME

    def _blame_leases(self, worker_id: str,
                      pid: Optional[int]) -> List[str]:
        """Break every lease a dead incarnation still holds.

        Matching is on the lease *body* (worker id + pid), never the
        path: a lease the dead worker lost to a reclaimer must not be
        touched. Rename-first keeps the inspect-then-delete atomic —
        the same discipline as ``LeaseManager.release`` — and a lease
        that turns out to belong to someone else is restored with a
        no-clobber link. Returns the blamed fingerprints.
        """
        claims = self._claims_dir()
        if not claims.is_dir():
            return []
        blamed: List[str] = []
        for path in sorted(claims.glob("*.lease")):
            tombstone = path.with_name(
                f"{path.name}.blame-{worker_id}-{os.getpid()}")
            try:
                os.rename(path, tombstone)
            except FileNotFoundError:
                continue  # released or reclaimed meanwhile
            try:
                body = json.loads(tombstone.read_text())
            except (OSError, json.JSONDecodeError):
                body = {}
            ours = body.get("worker") == worker_id and (
                pid is None or body.get("pid") == pid)
            if ours:
                fingerprint = path.name[:-len(".lease")]
                blamed.append(fingerprint)
                self._blame[fingerprint] = \
                    self._blame.get(fingerprint, 0) + 1
                try:
                    tombstone.unlink()
                except FileNotFoundError:
                    pass
            else:
                try:
                    os.link(tombstone, path)
                except OSError:
                    pass
                try:
                    tombstone.unlink()
                except FileNotFoundError:
                    pass
        return blamed

    def _quarantine_over_budget(self) -> List[str]:
        """Write markers for fingerprints whose blame hit the budget."""
        fresh: List[str] = []
        directory = quarantine_dir(self.campaign_dir)
        for fingerprint, deaths in sorted(self._blame.items()):
            if deaths < self.retry_budget:
                continue
            directory.mkdir(parents=True, exist_ok=True)
            marker = directory / fingerprint
            if marker.exists():
                continue
            marker.write_text(json.dumps({
                "fingerprint": fingerprint,
                "deaths": deaths,
                "retry_budget": self.retry_budget,
            }, indent=1))
            fresh.append(fingerprint)
        return fresh

    def _worker_stalled(self, worker_id: str) -> bool:
        """Is a live child's own lease older than the TTL?

        A running process whose heartbeats stopped (hung host, stalled
        I/O, an injected ``stall`` fault) looks exactly like a crash to
        its peers; the supervisor kills it so the slot can respawn
        instead of squatting forever.
        """
        claims = self._claims_dir()
        if not claims.is_dir():
            return False
        for path in claims.glob("*.lease"):
            try:
                body = json.loads(path.read_text())
                # simlint: allow[no-wallclock] -- lease staleness is real elapsed time since the holder's last heartbeat
                age = time.time() - path.stat().st_mtime
            except (OSError, json.JSONDecodeError):
                continue
            if body.get("worker") == worker_id and \
                    age > self.lease.ttl_s:
                return True
        return False

    # -- the supervision loop ------------------------------------------------

    def _spawn(self, slot: str, respawns: int):
        incarnation = slot if respawns == 0 else f"{slot}.r{respawns}"
        worker_id = sanitize_worker_id(f"{self.worker_id}-{incarnation}")
        plan_text = self.plan.describe() if self.plan else None
        process = pool_context().Process(
            target=_supervised_entry,
            name=f"repro-worker-{worker_id}",
            args=(str(self.campaign_dir), self.cache_dir, worker_id,
                  incarnation, plan_text,
                  {"ttl_s": self.lease.ttl_s,
                   "heartbeat_s": self.lease.heartbeat_s,
                   "poll_s": self.lease.poll_s},
                  self.run_kwargs),
        )
        process.start()
        return incarnation, worker_id, process

    def run(self) -> SupervisorReport:
        """Supervise until every slot retires (or is given up on).

        If the supervisor itself is interrupted, it stops its live
        workers before returning the exception: SIGINT first, so each
        unwinds through its own pool and lease cleanup, then a
        terminate for any that do not exit in time.
        """
        report = SupervisorReport(workers=self.workers)
        # slot -> (incarnation, worker_id, process, respawns so far)
        live: Dict[str, Tuple[str, str, object, int]] = {}
        try:
            for index in range(self.workers):
                slot = f"w{index}"
                live[slot] = (*self._spawn(slot, 0), 0)
            while live:
                time.sleep(self.lease.poll_s)
                for slot in list(live):
                    self._check(slot, live, report)
        finally:
            children = [process for _, _, process, _ in live.values()]
            for process in children:
                if process.is_alive():
                    os.kill(process.pid, signal.SIGINT)
            for process in children:
                process.join(timeout=10)
                if process.is_alive():
                    process.terminate()
                    process.join()
        report.quarantined = sorted(set(report.quarantined))
        return report

    def _check(self, slot: str, live: Dict[str, Tuple[str, str, object, int]],
               report: SupervisorReport) -> None:
        """Classify one slot's child; retire or respawn it once it ended."""
        incarnation, worker_id, process, respawns = live[slot]
        stalled = False
        if process.is_alive():
            if not self._worker_stalled(worker_id):
                return
            stalled = True
            process.terminate()
            process.join(timeout=self.lease.ttl_s)
            if process.is_alive():
                process.kill()
                process.join()
        else:
            process.join()
        del live[slot]
        exit_ = WorkerExit(slot=slot, worker_id=incarnation,
                           exit_code=process.exitcode, stalled=stalled)
        report.exits.append(exit_)
        if not exit_.crashed:
            return
        exit_.blamed = tuple(self._blame_leases(worker_id, process.pid))
        report.quarantined.extend(self._quarantine_over_budget())
        if respawns >= self.max_respawns:
            report.gave_up.append(slot)
            return
        time.sleep(min(self.backoff_max,
                       self.backoff_base * (2 ** respawns)))
        report.respawns += 1
        live[slot] = (*self._spawn(slot, respawns + 1), respawns + 1)


# -- one-shot health report ---------------------------------------------------


def campaign_status(
    campaign_dir: Union[str, Path],
    ttl_s: float = 60.0,
) -> Dict[str, object]:
    """One-shot health report over a campaign directory.

    Read-only: suitable against a live multi-host run. Returns a JSON-
    friendly document with condition counts (done / failed / poisoned /
    pending against the spec), lease state (held / stale), per-worker
    liveness inferred from lease heartbeats, quarantine markers and the
    number of torn manifest lines skipped.
    """
    campaign_dir = Path(campaign_dir)
    status: Dict[str, object] = {"campaign_dir": str(campaign_dir)}

    expected: Optional[int] = None
    spec_path = campaign_dir / "spec.json"
    if spec_path.exists():
        try:
            # spec.json records its grid size (CampaignSpec.describe).
            expected = int(
                json.loads(spec_path.read_text())["conditions"])
        except (KeyError, ValueError, TypeError, json.JSONDecodeError):
            expected = None

    torn: List[int] = []
    latest: Dict[str, str] = {}
    manifest = campaign_dir / "manifest.jsonl"
    if manifest.exists():
        for record in read_jsonl(
                manifest,
                on_skip=lambda number, reason: torn.append(number)):
            fingerprint = record.get("fingerprint")
            if fingerprint is not None:
                latest[str(fingerprint)] = str(record.get("status"))

    counts: Dict[str, int] = {}
    for value in latest.values():
        counts[value] = counts.get(value, 0) + 1
    done = sum(count for key, count in counts.items()
               if key in OK_STATUSES)
    status["conditions"] = {
        "expected": expected,
        "done": done,
        "statuses": counts,
        "pending": None if expected is None else max(
            0, expected - len(latest)),
    }
    status["torn_manifest_lines"] = len(torn)

    leases: List[Dict[str, object]] = []
    workers: Dict[str, Dict[str, object]] = {}
    claims = campaign_dir / CLAIMS_DIRNAME
    if claims.is_dir():
        for path in sorted(claims.glob("*.lease")):
            try:
                body = json.loads(path.read_text())
                # simlint: allow[no-wallclock] -- lease staleness is real elapsed time since the holder's last heartbeat
                age = time.time() - path.stat().st_mtime
            except (OSError, json.JSONDecodeError):
                continue
            worker = str(body.get("worker", "?"))
            stale = age > ttl_s
            leases.append({
                "fingerprint": path.name[:-len(".lease")],
                "worker": worker,
                "age_s": round(age, 3),
                "stale": stale,
            })
            seen = workers.get(worker)
            if seen is None or age < float(seen["freshest_age_s"]):
                workers[worker] = {
                    "freshest_age_s": round(age, 3),
                    "live": not stale,
                    "pid": body.get("pid"),
                    "host": body.get("host"),
                }
    status["leases"] = {
        "held": sum(1 for entry in leases if not entry["stale"]),
        "stale": sum(1 for entry in leases if entry["stale"]),
        "entries": leases,
    }
    status["workers"] = workers
    status["quarantined"] = quarantined_fingerprints(campaign_dir)
    return status


def render_status(status: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`campaign_status` output."""
    conditions = status.get("conditions", {})
    leases = status.get("leases", {})
    lines = [f"campaign {status.get('campaign_dir')}"]
    expected = conditions.get("expected")
    done = conditions.get("done", 0)
    of = f"/{expected}" if expected is not None else ""
    lines.append(f"  conditions: {done}{of} done")
    statuses = conditions.get("statuses") or {}
    for key in sorted(statuses):
        lines.append(f"    {key}: {statuses[key]}")
    pending = conditions.get("pending")
    if pending:
        lines.append(f"    (pending: {pending})")
    lines.append(f"  leases: {leases.get('held', 0)} held, "
                 f"{leases.get('stale', 0)} stale")
    workers = status.get("workers") or {}
    for worker in sorted(workers):
        entry = workers[worker]
        state = "live" if entry.get("live") else "STALE"
        lines.append(
            f"    {worker}: {state} "
            f"(last heartbeat {entry.get('freshest_age_s')}s ago, "
            f"pid {entry.get('pid')}, host {entry.get('host')})")
    quarantined = status.get("quarantined") or []
    if quarantined:
        lines.append(f"  quarantined ({len(quarantined)}): "
                     + ", ".join(quarantined))
    torn = status.get("torn_manifest_lines", 0)
    if torn:
        lines.append(f"  WARNING: {torn} torn manifest line(s) skipped")
    return "\n".join(lines)
