"""Condition sweep harness with a content-addressed JSON disk cache.

Cache-key scheme
----------------
Every recording is stored under a name ending in a *condition
fingerprint*: a SHA-256 hash over the **full** set of parameters that
determine the simulation output — the website and corpus seed, every
field of the network profile and protocol stack (not just their names),
the simulation seed, repetition count, timeout and selection metric,
plus :data:`SIM_BEHAVIOUR_VERSION`.

Changing *any* parameter therefore changes the key, so a stale cache
entry can never be returned for a differently-parameterised condition —
there is no hand-maintained list of key components to forget to update.
The version constant only needs a bump when the simulator's *behaviour*
changes for identical parameters.

Writes go through a per-writer unique temporary file in the cache
directory followed by an atomic :func:`os.replace`, so any number of
concurrent processes may store the same (or different) conditions into
one cache directory without clobbering each other.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import axes
from repro.browser.metrics import VisualCurve
from repro.browser.recorder import record_website
from repro.netem.profiles import NETWORKS, NetworkProfile, network_by_name
from repro.transport.config import STACKS, StackConfig, stack_by_name
from repro.web.corpus import CORPUS_SITE_NAMES, build_site

#: Bump only when simulator behaviour changes for identical parameters.
#: Parameter changes (timeout, loss rate, ...) are captured automatically
#: by the content-hashed condition fingerprint.
#:
#: 13: per-load connection flow ids (handshake-retry jitter no longer
#: depends on process history; repeat runs within one recording now
#: restart the id space, changing lossy-network bytes).
SIM_BEHAVIOUR_VERSION = 13

#: A network axis value: a Table 2 name or any NetworkProfile instance.
NetworkLike = Union[str, NetworkProfile]
#: A stack axis value: a Table 1 name or any StackConfig instance.
StackLike = Union[str, StackConfig]


def resolve_network(network: NetworkLike) -> NetworkProfile:
    """Accept a Table 2 name or a (possibly derived) profile object."""
    if isinstance(network, NetworkProfile):
        return network
    return network_by_name(network)


def resolve_stack(stack: StackLike) -> StackConfig:
    """Accept a Table 1 name or a StackConfig object."""
    if isinstance(stack, StackConfig):
        return stack
    return stack_by_name(stack)


def condition_fingerprint(
    website: str,
    profile: NetworkProfile,
    stack: StackConfig,
    *,
    corpus_seed: int,
    seed: int,
    runs: int,
    timeout: float,
    selection_metric: str,
    **optional: object,
) -> str:
    """Content hash identifying one condition's simulation output.

    Hashes a canonical JSON encoding of every parameter the output
    depends on, including all profile fields (segments of a
    :class:`~repro.netem.profiles.SegmentedProfile` recurse) and all
    stack fields. ``optional`` takes the optional axes by name
    (``path=``, ``middleboxes=``; see :mod:`repro.axes`); each joins the
    hash only off its default, so every pre-existing fingerprint — and
    with it every cache entry and fixture — is untouched.
    """
    params = {
        "sim_behaviour": SIM_BEHAVIOUR_VERSION,
        "website": website,
        "corpus_seed": corpus_seed,
        "network": dataclasses.asdict(profile),
        "network_type": type(profile).__name__,
        "stack": dataclasses.asdict(stack),
        "seed": seed,
        "runs": runs,
        "timeout": timeout,
        "selection_metric": selection_metric,
    }
    params.update(axes.hash_params(optional))
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


def condition_label(website: str, network: str, stack: str,
                    seed: Optional[int] = None, **optional: str) -> str:
    """Human-readable, filesystem-safe prefix for cache/manifest entries.

    ``optional`` takes optional-axis tokens by name (``path="split"``);
    only tokens off their default appear.
    """
    parts = [website, network, stack, *axes.non_default(optional).values()]
    if seed is not None:
        parts.append(f"s{seed}")
    raw = "_".join(parts)
    safe = []
    for char in raw:
        if char.isalnum() or char in "._-":
            safe.append(char)
        elif char == "+":
            safe.append("p")
        else:
            safe.append("-")
    return "".join(safe)


@dataclass
class RecordingSummary:
    """Serializable essence of one condition's recording.

    Carries what the user studies and analyses need: the shown (typical)
    run's visual curve and metrics, per-run metric samples for averaging,
    and transport counters for the retransmission analysis (Section 4.3).
    """

    website: str
    network: str
    stack: str
    runs: int
    selection_metric: str
    selected_metrics: Dict[str, float]
    selected_curve: List[Tuple[float, float]]
    run_metrics: List[Dict[str, float]]
    mean_retransmissions: float
    mean_segments_sent: float
    completed_fraction: float
    #: Optional-axis tokens (see :mod:`repro.axes`); summaries recorded
    #: before an axis existed read back as its default.
    path: str = "direct"
    middleboxes: str = "none"

    @property
    def condition_key(self) -> Tuple[str, str, str]:
        return (self.website, self.network, self.stack)

    @property
    def video_duration(self) -> float:
        """Clip length: last visual change plus a one-second tail."""
        return self.selected_metrics["LVC"] + 1.0

    @property
    def fvc(self) -> float:
        return self.selected_metrics["FVC"]

    @property
    def si(self) -> float:
        return self.selected_metrics["SI"]

    def curve(self) -> VisualCurve:
        return VisualCurve(self.selected_curve)

    def mean_metric(self, name: str) -> float:
        return fmean(m[name] for m in self.run_metrics)

    def metric_samples(self, name: str) -> List[float]:
        """Per-run samples of one metric — the unit the streaming
        accumulators (:mod:`repro.analysis.streaming`) aggregate."""
        return [m[name] for m in self.run_metrics]

    def to_json(self) -> Dict[str, object]:
        payload = {
            "website": self.website,
            "network": self.network,
            "stack": self.stack,
            "runs": self.runs,
            "selection_metric": self.selection_metric,
            "selected_metrics": self.selected_metrics,
            "selected_curve": [[t, v] for t, v in self.selected_curve],
            "run_metrics": self.run_metrics,
            "mean_retransmissions": self.mean_retransmissions,
            "mean_segments_sent": self.mean_segments_sent,
            "completed_fraction": self.completed_fraction,
        }
        # Optional axes serialize only off their default, so default
        # summaries stay byte-identical to every pre-axis cache file.
        payload.update(axes.non_default(axes.tokens_of(self)))
        return payload

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "RecordingSummary":
        return cls(
            website=str(data["website"]),
            network=str(data["network"]),
            stack=str(data["stack"]),
            runs=int(data["runs"]),
            selection_metric=str(data["selection_metric"]),
            selected_metrics={k: float(v) for k, v in
                              dict(data["selected_metrics"]).items()},
            selected_curve=[(float(t), float(v))
                            for t, v in list(data["selected_curve"])],
            run_metrics=[{k: float(v) for k, v in m.items()}
                         for m in list(data["run_metrics"])],
            mean_retransmissions=float(data["mean_retransmissions"]),
            mean_segments_sent=float(data["mean_segments_sent"]),
            completed_fraction=float(data["completed_fraction"]),
            **{axis.name: axis.read(data) for axis in axes.OPTIONAL_AXES},
        )


def default_cache_dir() -> str:
    """Cache directory used when none is given (env-overridable)."""
    return os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


class RecordingCache:
    """Content-addressed, multi-process-safe store of recording summaries.

    Entries are named ``<label>_<fingerprint>.json``; the label is purely
    for humans, the fingerprint (see :func:`condition_fingerprint`) is
    the identity. Stores write a per-writer unique temp file and
    atomically replace, so concurrent writers — even of the *same*
    condition — never observe or produce a torn file.
    """

    def __init__(self, cache_dir: Union[str, Path]):
        self.directory = Path(cache_dir)

    def path_for(self, label: str, fingerprint: str) -> Path:
        return self.directory / f"{label}_{fingerprint}.json"

    def load(self, label: str, fingerprint: str) -> Optional[RecordingSummary]:
        path = self.path_for(label, fingerprint)
        if not path.exists():
            return None
        try:
            with open(path) as handle:
                return RecordingSummary.from_json(json.load(handle))
        except (json.JSONDecodeError, KeyError, ValueError, TypeError):
            return None

    def store(self, label: str, fingerprint: str,
              summary: RecordingSummary) -> Path:
        # Imported here: repro.testbed.store imports this module.
        from repro.testbed.store import atomic_write_text

        return atomic_write_text(self.path_for(label, fingerprint),
                                 json.dumps(summary.to_json()))


def produce_summary(
    website: str,
    profile: NetworkProfile,
    stack: StackConfig,
    *,
    corpus_seed: int,
    seed: int,
    runs: int,
    timeout: float,
    selection_metric: str,
    **optional: object,
) -> RecordingSummary:
    """Simulate one condition and summarise it (no caching).

    This is the single producer used by :class:`Testbed`, the parallel
    sweep and the campaign orchestrator, so all of them emit
    byte-identical summaries for identical parameters.

    With ``REPRO_SANITIZE=1`` in the environment, the whole simulation
    runs under the runtime nondeterminism sanitizer
    (:mod:`repro.lint.sanitizer`): any wall-clock read or ambient RNG
    draw reached from a sim-core frame raises instead of silently
    breaking the determinism contract.  The env flag propagates to
    campaign worker processes, so every entry point doubles as a
    sanitizer smoke test.

    ``optional`` takes the optional axes by name, as
    :func:`condition_fingerprint` does.
    """
    from repro.lint.sanitizer import maybe_sanitized

    values = axes.resolve_values(optional)
    with maybe_sanitized():
        site = build_site(website, seed=corpus_seed)
        recording = record_website(
            site, profile, stack,
            runs=runs, seed=seed,
            selection_metric=selection_metric,
            timeout=timeout,
            path_mode=values["path"],
            middleboxes=values["middleboxes"] or None,
        )
    selected = recording.selected
    return RecordingSummary(
        website=website,
        network=profile.name,
        stack=stack.name,
        runs=runs,
        selection_metric=selection_metric,
        **{axis.name: axis.token(values[axis.name])
           for axis in axes.OPTIONAL_AXES},
        selected_metrics=selected.metrics.as_dict(),
        selected_curve=selected.curve.points,
        run_metrics=[r.metrics.as_dict() for r in recording.runs],
        mean_retransmissions=fmean(
            r.transport.retransmissions for r in recording.runs
        ),
        mean_segments_sent=fmean(
            r.transport.packets_or_segments_sent for r in recording.runs
        ),
        completed_fraction=fmean(
            1.0 if r.completed else 0.0 for r in recording.runs
        ),
    )


class Testbed:
    """Produces and caches recordings for study conditions.

    ``network`` and ``stack`` arguments accept either the paper's Table
    1/2 names or arbitrary :class:`NetworkProfile` / :class:`StackConfig`
    objects (derived loss-sweep profiles, trace-driven profiles, custom
    stacks), so sweeps are not limited to the paper grid.
    """

    #: Not a pytest test class despite the name.
    __test__ = False

    def __init__(
        self,
        corpus_seed: int = 0,
        runs: int = 7,
        seed: int = 0,
        cache_dir: Optional[str] = None,
        timeout: float = 180.0,
        selection_metric: str = "PLT",
    ):
        if runs < 1:
            raise ValueError("runs must be at least 1")
        self.corpus_seed = corpus_seed
        self.runs = runs
        self.seed = seed
        self.timeout = timeout
        self.selection_metric = selection_metric
        if cache_dir is None:
            cache_dir = default_cache_dir()
        self.cache = RecordingCache(cache_dir)
        self._memory: Dict[str, RecordingSummary] = {}

    @property
    def cache_dir(self) -> Path:
        return self.cache.directory

    # Backwards-compatible alias (pre-campaign code accessed the private
    # attribute directly).
    @property
    def _cache_dir(self) -> Path:
        return self.cache.directory

    # -- cache plumbing ------------------------------------------------------

    def _fingerprint(self, website: str, profile: NetworkProfile,
                     stack: StackConfig) -> str:
        return condition_fingerprint(
            website, profile, stack,
            corpus_seed=self.corpus_seed, seed=self.seed, runs=self.runs,
            timeout=self.timeout, selection_metric=self.selection_metric,
        )

    def _label(self, website: str, network_name: str,
               stack_name: str) -> str:
        # The seed is part of the label so campaign workers and
        # sequential testbeds name identical conditions identically
        # (the fingerprint is the identity; the label must match too
        # for the layers to share cache files).
        return condition_label(website, network_name, stack_name,
                               seed=self.seed)

    def _cache_path(self, website: str, network: NetworkLike,
                    stack: StackLike) -> Path:
        profile = resolve_network(network)
        stack_cfg = resolve_stack(stack)
        return self.cache.path_for(
            self._label(website, profile.name, stack_cfg.name),
            self._fingerprint(website, profile, stack_cfg))

    # -- recording ----------------------------------------------------------------

    def recording(self, website: str, network: NetworkLike,
                  stack: StackLike) -> RecordingSummary:
        """Recording for one condition (memoised, then disk-cached)."""
        profile = resolve_network(network)
        stack_cfg = resolve_stack(stack)
        fingerprint = self._fingerprint(website, profile, stack_cfg)
        if fingerprint in self._memory:
            return self._memory[fingerprint]
        label = self._label(website, profile.name, stack_cfg.name)
        cached = self.cache.load(label, fingerprint)
        if cached is not None:
            self._memory[fingerprint] = cached
            return cached
        summary = produce_summary(
            website, profile, stack_cfg,
            corpus_seed=self.corpus_seed, seed=self.seed, runs=self.runs,
            timeout=self.timeout, selection_metric=self.selection_metric,
        )
        self.cache.store(label, fingerprint, summary)
        self._memory[fingerprint] = summary
        return summary

    # -- sweeps ---------------------------------------------------------------------

    def sweep(
        self,
        sites: Optional[Sequence[str]] = None,
        networks: Optional[Sequence[NetworkLike]] = None,
        stacks: Optional[Sequence[StackLike]] = None,
    ) -> List[RecordingSummary]:
        """Record every requested condition (defaults: full paper grid)."""
        sites = list(sites) if sites is not None else list(CORPUS_SITE_NAMES)
        networks = list(networks) if networks is not None else \
            [p.name for p in NETWORKS]
        stacks = list(stacks) if stacks is not None else \
            [s.name for s in STACKS]
        out: List[RecordingSummary] = []
        for site in sites:
            for network in networks:
                for stack in stacks:
                    out.append(self.recording(site, network, stack))
        return out

    def index(self) -> Dict[Tuple[str, str, str], RecordingSummary]:
        """All conditions recorded so far, keyed by (site, network, stack)."""
        return {s.condition_key: s for s in self._memory.values()}
