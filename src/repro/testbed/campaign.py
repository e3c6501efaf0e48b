"""Declarative, resumable measurement campaigns.

The paper's campaign is a fixed 36 × 4 × 5 grid; this module generalises
it to an arbitrary axis product and makes running it at scale boring:

* :class:`CampaignSpec` — a declarative description of the sweep:
  sites × networks × stacks × seeds, each axis accepting names or
  arbitrary profile/stack objects (loss sweeps via
  :func:`~repro.netem.profiles.with_loss`, trace-driven profiles via
  :func:`~repro.netem.profiles.trace_profile`, custom stacks, ...).
* :class:`Condition` — one fully-parameterised cell of that product,
  identified by a content-hash fingerprint (see
  :func:`~repro.testbed.harness.condition_fingerprint`).
* :class:`Campaign` — executes a spec over a work-queue process pool,
  appending one line per finished condition to a ``manifest.jsonl``.
  A killed campaign relaunched with the same spec resumes exactly where
  it stopped: manifest- and cache-hits are never re-simulated. Worker
  failures follow a policy (``retry`` / ``skip`` / ``abort``) instead of
  killing the whole sweep, and every completed condition is reported to
  a progress callback as it lands.

Results are byte-identical to a sequential :meth:`Testbed.sweep` over
the same parameters: both funnel through
:func:`~repro.testbed.harness.produce_summary` and share the
content-addressed disk cache.

Results stream out rather than batch-load: :meth:`Campaign.run` feeds an
optional ``sink`` with ``(condition, summary)`` pairs as conditions
settle, and :meth:`Campaign.iter_summaries` /
:meth:`Campaign.summary_store` iterate recordings lazily (the store also
reopens a finished campaign directory post-hoc — see
:mod:`repro.testbed.store`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro import axes
from repro.netem.middlebox import (
    NO_MIDDLEBOXES,
    MiddleboxChainSpec,
    MiddleboxesLike,
)
from repro.netem.profiles import (
    NETWORKS,
    NetworkProfile,
    SegmentedProfile,
    TraceNetworkProfile,
)
from repro.testbed import faults, harness
from repro.testbed.harness import (
    NetworkLike,
    RecordingCache,
    RecordingSummary,
    StackLike,
    condition_fingerprint,
    condition_label,
    default_cache_dir,
    produce_summary,
    resolve_network,
    resolve_stack,
)
from repro.testbed.store import (
    OK_STATUSES,
    ConditionKey,
    SummaryStore,
    append_record,
    atomic_write_text,
    read_jsonl,
)
from repro.transport.config import STACKS, StackConfig
from repro.web.corpus import CORPUS_SITE_NAMES

#: Worker failure policies.
FAILURE_POLICIES = ("retry", "skip", "abort")

# OK_STATUSES (statuses that count as successfully recorded) is owned
# by repro.testbed.store, which reads them back out of manifests.


class CampaignError(RuntimeError):
    """A condition failed under the ``abort`` failure policy."""


@dataclass(frozen=True)
class Condition:
    """One fully-parameterised cell of a campaign's axis product."""

    website: str
    profile: NetworkProfile
    stack: StackConfig
    seed: int
    runs: int
    corpus_seed: int
    timeout: float
    selection_metric: str
    path: str = "direct"
    middleboxes: MiddleboxChainSpec = NO_MIDDLEBOXES

    def _optional(self) -> Dict[str, object]:
        return {axis.name: getattr(self, axis.name)
                for axis in axes.OPTIONAL_AXES}

    @property
    def label(self) -> str:
        """Filesystem-safe human-readable identifier."""
        return condition_label(**axes.condition_tokens(self))

    def fingerprint(self) -> str:
        """Content hash over every output-determining parameter."""
        return condition_fingerprint(
            self.website, self.profile, self.stack,
            corpus_seed=self.corpus_seed, seed=self.seed, runs=self.runs,
            timeout=self.timeout, selection_metric=self.selection_metric,
            **self._optional(),
        )

    @property
    def key(self) -> ConditionKey:
        """Light axis/identity key used by the streaming results path."""
        return ConditionKey(label=self.label, fingerprint=self.fingerprint(),
                            **axes.condition_tokens(self))

    def produce(self) -> RecordingSummary:
        """Simulate this condition (no caching)."""
        return produce_summary(
            self.website, self.profile, self.stack,
            corpus_seed=self.corpus_seed, seed=self.seed, runs=self.runs,
            timeout=self.timeout, selection_metric=self.selection_metric,
            **self._optional(),
        )


@dataclass
class CampaignSpec:
    """Declarative description of a sweep: an arbitrary axis product.

    ``networks`` and ``stacks`` accept Table 1/2 names or arbitrary
    :class:`NetworkProfile` / :class:`StackConfig` objects; ``seeds``
    adds a repetition axis beyond the paper grid. Defaults reproduce the
    paper's 36 × 4 × 5 grid with one seed.
    """

    sites: Optional[Sequence[str]] = None
    networks: Optional[Sequence[NetworkLike]] = None
    stacks: Optional[Sequence[StackLike]] = None
    seeds: Sequence[int] = (0,)
    runs: int = 7
    corpus_seed: int = 0
    timeout: float = 180.0
    selection_metric: str = "PLT"
    name: str = "campaign"
    paths: Sequence[str] = ("direct",)
    middleboxes: Sequence[MiddleboxesLike] = ("none",)

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if not self.seeds:
            raise ValueError("need at least one seed")
        for axis in axes.OPTIONAL_AXES:
            values = getattr(self, axis.plural)
            if not values:
                raise ValueError(f"need at least one {axis.name} value "
                                 f"(use {axis.default_token!r})")
            setattr(self, axis.plural, [axis.resolve(v) for v in values])
        self.sites = list(self.sites) if self.sites is not None \
            else list(CORPUS_SITE_NAMES)
        self.networks = [resolve_network(n) for n in self.networks] \
            if self.networks is not None else list(NETWORKS)
        self.stacks = [resolve_stack(s) for s in self.stacks] \
            if self.stacks is not None else list(STACKS)
        self.seeds = list(self.seeds)
        for axis in axes.OPTIONAL_AXES:
            for value in getattr(self, axis.plural):
                if not any(axis.applies(value, p) for p in self.networks):
                    raise ValueError(f"{axis.name}={axis.token(value)} "
                                     f"needs {axis.requires}")

    def conditions(self) -> List[Condition]:
        """The axis product, in deterministic sweep order.

        Optional-axis values apply only to the networks that can host
        them (see :mod:`repro.axes`): ``path=split`` needs a
        multi-segment profile, so e.g. ``networks=[DSL, SAT_LAN],
        paths=["direct", "split"]`` yields three path/network combos,
        not four.
        """
        optional = [getattr(self, axis.plural) for axis in axes.OPTIONAL_AXES]
        return [
            Condition(
                website=site, profile=profile, stack=stack, seed=seed,
                runs=self.runs, corpus_seed=self.corpus_seed,
                timeout=self.timeout,
                selection_metric=self.selection_metric,
                **{axis.name: value
                   for axis, value in zip(axes.OPTIONAL_AXES, combo)},
            )
            for site in self.sites
            for profile in self.networks
            for stack in self.stacks
            for combo in itertools.product(*optional)
            if all(axis.applies(value, profile)
                   for axis, value in zip(axes.OPTIONAL_AXES, combo))
            for seed in self.seeds
        ]

    def fingerprint(self) -> str:
        """Content hash of the whole grid (identifies a resumable run)."""
        digest = hashlib.sha256()
        for condition in self.conditions():
            digest.update(condition.fingerprint().encode("ascii"))
        return digest.hexdigest()[:16]

    def describe(self) -> Dict[str, object]:
        """JSON-serialisable summary written next to the manifest.

        The ``axes`` section carries the *full* network/stack payloads
        (every dataclass field, incl. derived loss-sweep and
        trace-driven profiles), so a worker on another host can rebuild
        the exact spec from ``spec.json`` alone — see
        :func:`spec_from_json` and ``repro campaign --join``.
        """
        return {
            "name": self.name,
            **{axis.plural: [axis.token(v) for v in getattr(self, axis.plural)]
               for axis in axes.AXES},
            "runs": self.runs,
            "corpus_seed": self.corpus_seed,
            "timeout": self.timeout,
            "selection_metric": self.selection_metric,
            "conditions": len(self.conditions()),
            "fingerprint": self.fingerprint(),
            # Recorded so a dir from an older simulator can be told
            # apart post-hoc (SummaryStore.open refuses stale dirs).
            "sim_behaviour": harness.SIM_BEHAVIOUR_VERSION,
            "axes": {
                "networks": [
                    dict(dataclasses.asdict(profile),
                         type=type(profile).__name__)
                    for profile in self.networks
                ],
                "stacks": [dataclasses.asdict(stack)
                           for stack in self.stacks],
                **{axis.plural: [axis.to_json(v)
                                 for v in getattr(self, axis.plural)]
                   for axis in axes.OPTIONAL_AXES if axis.to_json},
            },
        }


def _profile_from_json(data: Dict[str, object]) -> NetworkProfile:
    fields = {k: v for k, v in data.items() if k != "type"}
    if data.get("type") == "SegmentedProfile":
        # Nested segment payloads carry no "type" marker
        # (dataclasses.asdict flattens them); a trace-driven segment is
        # identified by its non-empty downlink trace.
        fields["segments"] = tuple(
            _profile_from_json(dict(
                entry,
                type="TraceNetworkProfile"
                if entry.get("downlink_trace_ms") else "NetworkProfile"))
            for entry in fields["segments"])
        return SegmentedProfile(**fields)  # type: ignore[arg-type]
    fields.pop("segments", None)
    if data.get("type") == "TraceNetworkProfile":
        fields["downlink_trace_ms"] = tuple(fields["downlink_trace_ms"])
        return TraceNetworkProfile(**fields)  # type: ignore[arg-type]
    fields.pop("downlink_trace_ms", None)
    return NetworkProfile(**fields)  # type: ignore[arg-type]


def spec_from_json(data: Dict[str, object]) -> CampaignSpec:
    """Rebuild a :class:`CampaignSpec` from ``describe()`` output.

    Prefers the full ``axes`` payloads (exact reconstruction of derived
    loss-sweep and trace-driven profiles); ``spec.json`` files written
    before the payloads existed fall back to resolving the recorded
    Table 1/2 names, and raise if an axis entry was a derived object
    whose name cannot be resolved. Optional axes missing from the file
    (it predates them) read as their default.
    """
    optional: Dict[str, List[object]] = {
        axis.plural: [str(token) for token in
                      data.get(axis.plural, [axis.default_token])]
        for axis in axes.OPTIONAL_AXES}
    payloads = data.get("axes")
    if payloads:
        networks: List[NetworkLike] = [
            _profile_from_json(entry) for entry in payloads["networks"]]
        stacks: List[StackLike] = [
            StackConfig(**entry) for entry in payloads["stacks"]]
        for axis in axes.OPTIONAL_AXES:
            # Full payloads rebuild custom (non-preset) values exactly;
            # files that predate them fall back to the tokens above.
            if axis.from_json and axis.plural in payloads:
                optional[axis.plural] = [axis.from_json(entry)
                                         for entry in payloads[axis.plural]]
    else:
        try:
            networks = [resolve_network(name)
                        for name in data["networks"]]
            stacks = [resolve_stack(name) for name in data["stacks"]]
        except KeyError as error:
            raise ValueError(
                f"spec.json predates full axis payloads and names a "
                f"derived axis value that cannot be resolved: "
                f"{error.args[0]}") from None
    return CampaignSpec(
        sites=list(data["sites"]),
        networks=networks,
        stacks=stacks,
        seeds=[int(seed) for seed in data["seeds"]],
        runs=int(data["runs"]),
        corpus_seed=int(data["corpus_seed"]),
        timeout=float(data["timeout"]),
        selection_metric=str(data["selection_metric"]),
        name=str(data["name"]),
        **optional,
    )


@dataclass
class ConditionResult:
    """Outcome of one condition within a campaign run.

    ``status`` is one of ``simulated`` (this worker ran it), ``cached``
    (found in the shared recording cache), ``resumed`` (manifest said it
    was already done), ``shared`` (a cooperating distributed worker
    recorded it while this run waited — see
    :mod:`repro.testbed.distributed`), ``failed``, or ``poisoned``
    (quarantined by a supervisor after repeatedly killing workers —
    see :mod:`repro.testbed.supervisor`; never retried, never ``ok``).
    """

    condition: Condition
    status: str  # simulated | cached | resumed | shared | failed | poisoned
    attempts: int = 1
    duration_s: float = 0.0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status in OK_STATUSES


@dataclass
class Progress:
    """One progress tick, delivered as each condition settles."""

    done: int
    total: int
    result: ConditionResult
    elapsed_s: float

    @property
    def eta_s(self) -> float:
        """Crude remaining-time estimate from the mean pace so far."""
        if self.done == 0:
            return float("inf")
        return self.elapsed_s / self.done * (self.total - self.done)


ProgressCallback = Callable[[Progress], None]

#: Streaming results consumer: called with each successfully recorded
#: condition and its summary as the condition settles.
SummarySink = Callable[["Condition", RecordingSummary], None]


@dataclass
class CampaignResult:
    """Everything a finished (or aborted) campaign run produced."""

    spec: CampaignSpec
    results: List[ConditionResult]
    manifest_path: Path
    duration_s: float

    @property
    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for result in self.results:
            out[result.status] = out.get(result.status, 0) + 1
        return out

    @property
    def failed(self) -> List[ConditionResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failed


# -- worker plumbing ---------------------------------------------------------

_WORKER_CACHE: Optional[RecordingCache] = None


def _init_worker(cache_dir: str) -> None:
    global _WORKER_CACHE
    _WORKER_CACHE = RecordingCache(cache_dir)


def _run_condition(
    payload: Tuple[int, Condition],
) -> Tuple[int, Optional[str], float]:
    """Record one condition into the shared cache (worker side).

    Returns ``(index, error_traceback_or_None, duration_s)``; failures
    are reported as data, not raised, so one bad condition cannot kill
    the pool.
    """
    index, condition = payload
    assert _WORKER_CACHE is not None
    # simlint: allow[no-wallclock] -- wall-clock duration of the worker task, reported as orchestration telemetry only
    start = time.perf_counter()
    try:
        fingerprint = condition.fingerprint()
        if _WORKER_CACHE.load(condition.label, fingerprint) is None:
            summary = condition.produce()
            _WORKER_CACHE.store(condition.label, fingerprint, summary)
        # simlint: allow[no-wallclock] -- task duration telemetry, never feeds simulation state
        return index, None, time.perf_counter() - start
    except Exception:
        # simlint: allow[no-wallclock] -- task duration telemetry, never feeds simulation state
        return index, traceback.format_exc(), time.perf_counter() - start


def _run_condition_batch(
    batch: List[Tuple[int, Condition]],
) -> List[Tuple[int, Optional[str], float]]:
    """Record a batch of conditions in one worker task.

    Batching amortises task dispatch and lets one long-lived worker
    process churn through many conditions without interpreter or import
    startup in between; each condition still settles (and fails)
    independently.
    """
    return [_run_condition(payload) for payload in batch]


def default_processes(workers: int = 1) -> int:
    """Pool size for each of ``workers`` local workers: all-but-one CPU,
    split evenly. Workers beyond the core count only add scheduling
    overhead for CPU-bound simulation; an explicit request is honoured
    wherever this default applies."""
    return max(1, ((os.cpu_count() or 2) - 1) // workers)


class ClaimProtocol(Protocol):
    """Which conditions a :meth:`Campaign.run` owns, and when.

    :class:`LocalClaims` owns the whole grid; the cooperative
    :class:`~repro.testbed.distributed.ClaimQueue` leases conditions
    from a campaign directory shared with other workers.
    """

    def select(
        self, conditions: Sequence[Condition],
    ) -> Tuple[List[Condition], List[Condition]]:
        """Partition pending conditions into ``(mine, theirs)``: leases
        acquired now, and conditions held elsewhere (deferred)."""

    def adopt(self, condition: Condition) -> bool:
        """Claim the right to append the manifest line of a recording
        nobody has manifested (or of a poisoned condition)."""

    def committed(self, fingerprint: str) -> bool:
        """Has another worker committed this condition since the run
        read its manifest?"""

    def poisoned(self, fingerprint: str) -> bool:
        """Has a supervisor quarantined this condition?"""

    def release(self, condition: Condition) -> None:
        """Drop a lease after the condition's manifest line landed."""

    def recorded(self, condition: Condition,
                 summary: Optional[RecordingSummary] = None) -> None:
        """This worker simulated and stored the condition (``summary``
        is ``None`` when the run did not load it)."""

    def wait(
        self, deferred: Sequence[Condition],
    ) -> Tuple[List[Condition], List[Condition], List[Condition]]:
        """One bounded poll over deferred conditions: ``(settled
        elsewhere, reclaimed for us, still deferred)``."""


class LocalClaims:
    """The claims of a plain run: every condition is ours, and nothing
    touches disk."""

    def select(
        self, conditions: Sequence[Condition],
    ) -> Tuple[List[Condition], List[Condition]]:
        return list(conditions), []

    def adopt(self, condition: Condition) -> bool:
        return True

    def committed(self, fingerprint: str) -> bool:
        return False

    def poisoned(self, fingerprint: str) -> bool:
        return False

    def release(self, condition: Condition) -> None:
        pass

    def recorded(self, condition: Condition,
                 summary: Optional[RecordingSummary] = None) -> None:
        pass

    def wait(
        self, deferred: Sequence[Condition],
    ) -> Tuple[List[Condition], List[Condition], List[Condition]]:
        return [], list(deferred), []


def pool_context() -> multiprocessing.context.BaseContext:
    """Fork where the platform supports it: workers start in
    milliseconds instead of re-importing the interpreter + library
    (spawn cost dominates small campaigns)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class Campaign:
    """Executes a :class:`CampaignSpec` resumably over a process pool.

    The campaign directory (derived from the spec's content fingerprint,
    so "same spec" means "same directory") holds ``spec.json`` plus an
    append-only ``manifest.jsonl`` with one line per settled condition.
    On start the manifest and the shared recording cache are consulted
    first; only genuinely missing conditions are simulated.
    """

    #: Not a pytest test class despite running campaigns.
    __test__ = False

    def __init__(
        self,
        spec: CampaignSpec,
        cache_dir: Optional[Union[str, Path]] = None,
        campaign_dir: Optional[Union[str, Path]] = None,
        worker: Optional[str] = None,
    ):
        self.spec = spec
        if cache_dir is None:
            cache_dir = default_cache_dir()
        self.cache = RecordingCache(cache_dir)
        if campaign_dir is None:
            safe_name = "".join(
                c if c.isalnum() or c in "._-" else "-" for c in spec.name)
            campaign_dir = Path(cache_dir) / "campaigns" / \
                f"{safe_name[:40]}-{spec.fingerprint()}"
        self.campaign_dir = Path(campaign_dir)
        self.manifest_path = self.campaign_dir / "manifest.jsonl"
        #: Cooperative-worker identity stamped on manifest lines this
        #: instance appends (None for ordinary single-host runs).
        self.worker = worker

    # -- manifest ------------------------------------------------------------

    def _load_manifest(self) -> Dict[str, Dict[str, object]]:
        """fingerprint → last manifest record (later lines win).

        Torn and checksum-failed lines are skipped with a warning (see
        :func:`repro.testbed.store.read_jsonl`); their conditions fall
        back to the cache check below, so a line a killed writer tore
        is re-settled on resume instead of crashing anything.
        """
        records: Dict[str, Dict[str, object]] = {}
        if not self.manifest_path.exists():
            return records
        for record in read_jsonl(self.manifest_path):
            records[str(record.get("fingerprint"))] = record
        return records

    def _append_manifest(self, result: ConditionResult) -> None:
        self.campaign_dir.mkdir(parents=True, exist_ok=True)
        condition = result.condition
        record = {
            "fingerprint": condition.fingerprint(),
            "label": condition.label,
            # Axis fields let SummaryStore.open() list a finished
            # campaign's keys without loading any summary.
            **axes.condition_tokens(condition),
            # The behaviour version the recording was simulated under;
            # SummaryStore.open checks it against the current simulator.
            "sim_behaviour": harness.SIM_BEHAVIOUR_VERSION,
            "status": result.status,
            "attempts": result.attempts,
            "duration_s": round(result.duration_s, 4),
            "error": result.error,
            # simlint: allow[no-wallclock] -- manifest lines are stamped with real time for human provenance, not simulation input
            "at": time.time(),
        }
        if self.worker is not None:
            record["worker"] = self.worker
        # Checksummed single-write append; also the torn-write fault
        # point (see repro.testbed.faults / repro.testbed.store).
        append_record(self.manifest_path, record)

    def write_spec(self) -> Path:
        """Materialise the campaign directory with its ``spec.json``.

        Called automatically by :meth:`run`; also useful standalone to
        create a directory other hosts can ``repro campaign --join``
        before any condition has settled. Never overwrites an existing
        spec (the fingerprint-derived directory name makes "same spec"
        mean "same directory").
        """
        spec_path = self.campaign_dir / "spec.json"
        if not spec_path.exists():
            # Atomic: spec.json is the --join entry point, and a
            # half-written file would brick the directory for every
            # joiner (the exists() guard means it is never rewritten).
            atomic_write_text(spec_path,
                              json.dumps(self.spec.describe(), indent=2))
        return spec_path

    # -- execution -----------------------------------------------------------

    def run(
        self,
        processes: Optional[int] = None,
        failure_policy: str = "retry",
        max_retries: int = 2,
        progress: Optional[ProgressCallback] = None,
        batch_size: Optional[int] = None,
        sink: Optional[SummarySink] = None,
        claims: Optional[ClaimProtocol] = None,
    ) -> CampaignResult:
        """Record every condition, resuming any earlier partial run.

        ``processes`` ≤ 1 executes inline (deterministic, debuggable);
        ``None`` uses :func:`default_processes`. ``failure_policy``:

        * ``retry`` — re-queue a failed condition up to ``max_retries``
          extra attempts, then record it as failed and continue;
        * ``skip`` — record the failure and continue immediately;
        * ``abort`` — raise :class:`CampaignError` on first failure
          (already-finished conditions stay in the manifest).

        ``batch_size`` controls how many conditions one worker task
        carries (``None`` picks a size spreading the queue over a few
        batches per worker). Batches are consecutive slices of the
        deterministic sweep order; results, manifest contents and the
        returned ordering are identical for every batch size.

        ``sink`` streams results into the analysis layer: it is called
        with ``(condition, summary)`` once per successfully recorded
        unique condition *as it settles* (resumed and cached conditions
        first, then simulated ones in completion order), so incremental
        aggregation can run concurrently with the sweep instead of
        loading the whole grid afterwards.

        ``claims`` decides which conditions this run owns (see
        :class:`ClaimProtocol`). The default :class:`LocalClaims` owns
        the whole grid; a :class:`~repro.testbed.distributed.ClaimQueue`
        shares one campaign directory with cooperating workers, which
        is how any number of them, on any number of hosts, record one
        grid without simulating a condition twice.
        """
        if failure_policy not in FAILURE_POLICIES:
            raise ValueError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {failure_policy!r}")
        if batch_size is not None and batch_size < 1:
            raise ValueError(
                f"batch_size must be at least 1, got {batch_size}")
        claims = claims or LocalClaims()
        if processes is None:
            processes = default_processes()
        # simlint: allow[no-wallclock] -- campaign wall-clock duration for progress/result reporting
        started = time.perf_counter()
        self.write_spec()
        conditions = self.spec.conditions()
        manifest = self._load_manifest()
        total = len({c.fingerprint() for c in conditions})
        settled: Dict[str, ConditionResult] = {}

        def settle(result: ConditionResult,
                   summary: Optional[RecordingSummary] = None) -> None:
            condition = result.condition
            settled[condition.fingerprint()] = result
            if progress is not None:
                progress(Progress(len(settled), total, result,
                                  # simlint: allow[no-wallclock] -- elapsed wall time shown in the progress line
                                  time.perf_counter() - started))
            if sink is not None and result.ok:
                if summary is None:
                    summary = self.cache.load(condition.label,
                                              condition.fingerprint())
                if summary is not None:
                    sink(condition, summary)

        todo: List[Condition] = []
        for condition in conditions:
            fingerprint = condition.fingerprint()
            if fingerprint in settled:
                continue  # duplicate axis entry: one recording serves both
            record = manifest.get(fingerprint, {})
            if record.get("status") == "poisoned" and \
                    claims.poisoned(fingerprint):
                # Already recorded as quarantined by an earlier worker
                # (or incarnation); settle without another line.
                settle(ConditionResult(
                    condition, "poisoned",
                    error=str(record.get("error") or "quarantined")))
                continue
            # The manifest says what happened; the cache is the truth.
            # A manifest "ok" whose recording was since pruned must be
            # re-simulated, not reported as resumed.
            summary = self.cache.load(condition.label, fingerprint)
            if summary is None:
                todo.append(condition)
            elif record.get("status") in OK_STATUSES:
                settle(ConditionResult(
                    condition, "resumed",
                    attempts=int(record.get("attempts", 1))), summary)
            elif claims.committed(fingerprint):
                # A peer committed this condition after our manifest
                # snapshot (late-joiner race); its line exists, so
                # appending a "cached" one would duplicate it.
                settle(ConditionResult(condition, "resumed"), summary)
            else:
                # Test-synchronisation fire point for the adoption race
                # regression (see tests/test_distributed.py).
                faults.fire("pre-adopt", fingerprint=fingerprint)
                adopted = claims.adopt(condition)
                # Not adopted: a peer is adopting this unmanifested
                # recording right now and appends its line. Adopted but
                # committed: a peer adopted, appended and released
                # between our committed() check and winning this lease.
                # Peers always append before releasing, so one re-check
                # while *holding* the lease decides for real.
                ours = adopted and not claims.committed(fingerprint)
                result = ConditionResult(
                    condition, "cached" if ours else "resumed")
                if ours:
                    self._append_manifest(result)
                if adopted:
                    claims.release(condition)
                settle(result, summary)

        attempts: Dict[str, int] = {}

        def quarantine(queue: List[Condition]) -> List[Condition]:
            """Settle the conditions a supervisor poisoned meanwhile
            (they repeatedly killed workers) as terminal failures;
            return the rest."""
            fresh = []
            for condition in queue:
                if not claims.poisoned(condition.fingerprint()):
                    fresh.append(condition)
                    continue
                result = ConditionResult(
                    condition, "poisoned",
                    attempts=attempts.get(condition.fingerprint(), 0),
                    error="quarantined: condition repeatedly killed "
                          "workers (supervisor retry budget exhausted)")
                # Exactly one worker appends the poisoned line: the
                # adoption lease arbitrates, like any other append.
                if claims.adopt(condition):
                    self._append_manifest(result)
                    claims.release(condition)
                settle(result)
            return fresh

        pending = todo
        deferred: List[Condition] = []
        # One worker pool for the whole run, created lazily on the
        # first multi-process batch and reused across claim cycles.
        worker_pool = None

        def shared_pool():
            nonlocal worker_pool
            if worker_pool is None:
                worker_pool = pool_context().Pool(
                    processes=processes,
                    initializer=_init_worker,
                    initargs=(str(self.cache.directory),),
                )
            return worker_pool

        try:
            while pending or deferred:
                pending, deferred = quarantine(pending), quarantine(deferred)
                pending, theirs = claims.select(pending)
                deferred.extend(theirs)
                failures: List[ConditionResult] = []
                for condition, error, duration in self._execute(
                        pending, processes, batch_size, shared_pool):
                    fingerprint = condition.fingerprint()
                    attempts[fingerprint] = attempts.get(fingerprint, 0) + 1
                    if error is not None:
                        result = ConditionResult(
                            condition, "failed",
                            attempts=attempts[fingerprint],
                            duration_s=duration, error=error)
                        if failure_policy == "abort":
                            self._append_manifest(result)
                            claims.release(condition)
                            raise CampaignError(
                                f"condition {condition.label} "
                                f"failed:\n{error}")
                        failures.append(result)
                        continue
                    # Crash fault point: the recording is stored, its
                    # manifest line has not landed — the adoption window
                    # chaos tests kill workers inside.
                    faults.fire("condition", fingerprint=fingerprint)
                    result = ConditionResult(
                        condition, "simulated",
                        attempts=attempts[fingerprint], duration_s=duration)
                    self._append_manifest(result)
                    claims.release(condition)
                    # One read serves the sink and the claims hook;
                    # without a sink the hook loads it only if it must.
                    summary = self.cache.load(condition.label,
                                              fingerprint) \
                        if sink is not None else None
                    claims.recorded(condition, summary)
                    settle(result, summary)

                pending = []
                for result in failures:
                    if failure_policy == "retry" and \
                            result.attempts <= max_retries:
                        pending.append(result.condition)
                        continue
                    self._append_manifest(result)
                    claims.release(result.condition)
                    settle(result)

                if deferred and not pending:
                    # Out of our own work: poll conditions other workers
                    # hold. Ones they recorded settle as "shared" (their
                    # manifest line, our sink feed); stale leases come
                    # back to us for re-simulation.
                    settled_elsewhere, reclaimed, deferred = \
                        claims.wait(deferred)
                    for condition in settled_elsewhere:
                        settle(ConditionResult(condition, "shared"))
                    pending.extend(reclaimed)
        finally:
            if worker_pool is not None:
                worker_pool.terminate()
                worker_pool.join()

        order = dict.fromkeys(c.fingerprint() for c in conditions)
        return CampaignResult(
            spec=self.spec, results=[settled[fp] for fp in order],
            manifest_path=self.manifest_path,
            # simlint: allow[no-wallclock] -- campaign duration reported to the user, not simulation input
            duration_s=time.perf_counter() - started,
        )

    def _execute(
        self,
        conditions: Sequence[Condition],
        processes: int,
        batch_size: Optional[int],
        pool: Callable[[], "multiprocessing.pool.Pool"],
    ) -> Iterator[Tuple[Condition, Optional[str], float]]:
        """Yield ``(condition, error, duration)`` as conditions settle.

        ``pool`` returns the run's shared worker pool (see :meth:`run`);
        it is only called when more than one process is used.
        """
        if not conditions:
            return  # claim-wait poll cycles pass empty batches
        processes = min(processes, len(conditions))
        if processes <= 1:
            _init_worker(str(self.cache.directory))
            for index, condition in enumerate(conditions):
                # Crash fault point ("pre" crashes): nothing is stored
                # yet, so a kill here leaves only a dangling lease.
                faults.fire(
                    "condition-start",
                    fingerprint=condition.fingerprint())
                _, error, duration = _run_condition((index, condition))
                yield condition, error, duration
            return

        payloads = list(enumerate(conditions))
        if batch_size is None:
            # A few batches per worker balances load without paying a
            # dispatch round-trip per condition.
            batch_size = max(1, -(-len(payloads) // (processes * 4)))
        batches = [payloads[i:i + batch_size]
                   for i in range(0, len(payloads), batch_size)]
        for results in pool().imap_unordered(_run_condition_batch, batches):
            for index, error, duration in results:
                yield conditions[index], error, duration

    # -- results -------------------------------------------------------------

    def iter_summaries(
        self,
    ) -> Iterator[Tuple[Condition, RecordingSummary]]:
        """Yield ``(condition, summary)`` lazily, in sweep order.

        One summary is in memory at a time. Raises :class:`KeyError` for a condition that has not been
        recorded yet — run the campaign first.
        """
        for condition in self.spec.conditions():
            summary = self.cache.load(condition.label,
                                      condition.fingerprint())
            if summary is None:
                raise KeyError(
                    f"condition {condition.label} not recorded yet")
            yield condition, summary

    def summary_store(self) -> SummaryStore:
        """A :class:`SummaryStore` over this campaign's recordings.

        Keys follow the spec's deterministic sweep order (duplicate
        fingerprints collapsed); the same store can be reopened post-hoc
        from :attr:`campaign_dir` with :meth:`SummaryStore.open`.
        """
        keys, seen = [], set()
        for condition in self.spec.conditions():
            key = condition.key
            if key.fingerprint not in seen:
                seen.add(key.fingerprint)
                keys.append(key)
        return SummaryStore(self.cache, keys=keys,
                            campaign_dir=self.campaign_dir)


def run_campaign_spec(
    spec: CampaignSpec,
    cache_dir: Optional[Union[str, Path]] = None,
    **run_kwargs: object,
) -> CampaignResult:
    """One-shot convenience: build a :class:`Campaign` and run it."""
    return Campaign(spec, cache_dir=cache_dir).run(**run_kwargs)  # type: ignore[arg-type]


class ProgressPrinter:
    """Default progress reporter: one line per settled condition.

    Suitable as the ``progress`` callback of :meth:`Campaign.run`; used
    by the CLI and the examples.
    """

    def __init__(self, stream=None, every: int = 1):
        self._stream = stream if stream is not None else sys.stdout
        self._every = max(1, every)

    def __call__(self, event: Progress) -> None:
        if event.done % self._every and event.done != event.total:
            return
        result = event.result
        eta = event.eta_s
        eta_text = f"{eta:6.1f}s" if eta != float("inf") else "      ?"
        line = (f"[{event.done:>4d}/{event.total}] "
                f"{result.status:9s} {result.condition.label:48s} "
                f"{result.duration_s:6.2f}s  eta {eta_text}")
        if result.error is not None:
            line += f"  ({result.error.strip().splitlines()[-1]})"
        print(line, file=self._stream, flush=True)
