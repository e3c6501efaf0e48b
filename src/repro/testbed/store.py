"""Lazy access to a campaign's recorded summaries.

:class:`SummaryStore` is the streaming bridge between the testbed and
the analysis layer: it iterates ``(ConditionKey, RecordingSummary)``
pairs straight off the campaign manifest and the content-addressed
recording cache, one summary in memory at a time, instead of
materialising the whole grid.

Two ways to build one:

* live — :meth:`Campaign.summary_store` binds a store to a campaign
  object whose spec is in memory (keys come from the spec's axis
  product, in deterministic sweep order);
* post-hoc — :meth:`SummaryStore.open` points at a finished campaign
  directory on disk and recovers the keys from ``manifest.jsonl``
  without re-running (or even being able to re-run) any condition.

Either way iteration is lazy: nothing is loaded until the pair is
yielded, and nothing yielded is retained, so per-axis aggregation over
an N-condition grid needs O(axes) memory, not O(N).
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import axes
from repro.testbed import faults, harness
from repro.testbed.harness import RecordingCache, RecordingSummary

logger = logging.getLogger(__name__)


class StaleCampaignError(ValueError):
    """A campaign dir was recorded under a different SIM_BEHAVIOUR_VERSION.

    Its summaries are not comparable with anything the current simulator
    produces; re-run the campaign (the content-hashed cache keys embed
    the version, so nothing stale is reused) or pass
    ``check_behaviour=False`` to :meth:`SummaryStore.open` to analyse the
    old recordings anyway.
    """

#: Axis names a :class:`ConditionKey` can be pivoted/grouped on.
CONDITION_AXES = axes.AXIS_NAMES

#: Campaign-directory subdirectory holding per-condition lease files
#: (the distributed claim protocol — see ``repro.testbed.distributed``).
CLAIMS_DIRNAME = "claims"

#: Campaign-directory subdirectory holding per-worker partial
#: aggregates (``<worker>.json``, serialized ``GridReport`` state).
PARTIALS_DIRNAME = "partials"

#: Campaign-directory subdirectory holding per-worker *study* partials
#: (``<worker>.json``, serialized ``repro.study.pipeline.StudyPartial``
#: state): perception-study aggregations computed over the campaign's
#: recorded summaries, sharded by participant block.
STUDY_PARTIALS_DIRNAME = "study_partials"

#: Campaign-directory subdirectory holding per-condition quarantine
#: markers (``<fingerprint>``): conditions the supervisor poisoned
#: after they repeatedly killed workers (see
#: ``repro.testbed.supervisor``). Live workers settle marked
#: conditions as ``poisoned`` instead of retrying them forever.
QUARANTINE_DIRNAME = "quarantine"

#: Manifest statuses that mean "a recording exists for this condition".
#: Owned here (the manifest-reading layer); the campaign orchestrator
#: imports it, so the two can never drift apart. ``shared`` only ever
#: appears in in-memory ConditionResults (a cooperating distributed
#: worker recorded the condition — that worker wrote the manifest line),
#: but it means the same thing: the recording exists.
OK_STATUSES = ("simulated", "cached", "resumed", "shared")


# -- crash-safe record I/O ---------------------------------------------------
#
# Everything a campaign writes incrementally (manifest lines, partial
# aggregates) goes through these helpers: writers stamp a CRC over the
# record's canonical JSON, readers verify it and *skip-and-log* torn or
# corrupt data instead of raising — a killed writer degrades the record,
# never the readers. Records written before the CRC existed carry no
# ``crc`` field and are accepted as-is (legacy).


def record_crc(record: Dict[str, object]) -> str:
    """CRC-32 over the record's canonical JSON, sans the ``crc`` field."""
    body = json.dumps(
        {key: value for key, value in record.items() if key != "crc"},
        sort_keys=True)
    return format(zlib.crc32(body.encode("utf-8")), "08x")


def seal_record(record: Dict[str, object]) -> Dict[str, object]:
    """Return the record with its ``crc`` field stamped."""
    sealed = dict(record)
    sealed["crc"] = record_crc(sealed)
    return sealed


def record_intact(record: Dict[str, object]) -> bool:
    """True when the record carries no CRC (legacy) or it matches."""
    crc = record.get("crc")
    return crc is None or crc == record_crc(record)


def append_record(path: Union[str, Path],
                  record: Dict[str, object]) -> None:
    """Append one checksummed JSON line to an append-only log.

    The line is sealed (:func:`seal_record`), written in a single
    ``write`` + flush so concurrent appenders on a shared filesystem
    interleave whole lines, and routed through the ``manifest-append``
    fault point so chaos tests can tear it mid-write.
    """
    line = json.dumps(seal_record(record)) + "\n"
    faults.fire("manifest-append", path=str(path), line=line)
    # Heal a torn tail first: a writer killed mid-append leaves a
    # truncated line with no newline, and appending straight onto it
    # would glue THIS record into the garbage — corrupting a good
    # record instead of just losing the dead writer's. Starting on a
    # fresh line confines the damage to the torn line itself, which
    # readers skip.
    prefix = ""
    try:
        with open(path, "rb") as handle:
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                prefix = "\n"
    except (OSError, ValueError):
        pass  # missing or empty file: nothing to heal
    with open(path, "a") as handle:
        handle.write(prefix + line)
        handle.flush()


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Publish ``text`` as ``path`` in one step.

    The text goes to a private temp file in the same directory (unique
    per writer, removed again if the write fails) and is renamed into
    place, so readers and concurrent writers on a shared filesystem see
    the old file or the new one, never a torn mix. Cache recordings,
    ``spec.json`` and the worker and study partials are written this
    way.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                               dir=path.parent)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_jsonl(
    path: Union[str, Path],
    on_skip: Optional[Callable[[int, str], None]] = None,
) -> Iterator[Dict[str, object]]:
    """Yield verified records from an append-only JSON-lines log.

    Blank lines, torn lines (invalid JSON — a killed writer's final
    partial ``write``) and checksum-mismatched lines (bit rot, torn
    tail glued onto a later append) are skipped with a logged warning;
    ``on_skip(line_number, reason)`` additionally observes each skip so
    health reporting can count them. Never raises on bad content.
    """
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                reason = "torn line (invalid JSON)"
                logger.warning("%s:%d: skipping %s", path, number, reason)
                if on_skip is not None:
                    on_skip(number, reason)
                continue
            if not isinstance(record, dict):
                reason = "not a JSON object"
                logger.warning("%s:%d: skipping %s", path, number, reason)
                if on_skip is not None:
                    on_skip(number, reason)
                continue
            if not record_intact(record):
                reason = "checksum mismatch"
                logger.warning("%s:%d: skipping %s", path, number, reason)
                if on_skip is not None:
                    on_skip(number, reason)
                continue
            yield record


@dataclass(frozen=True)
class ConditionKey:
    """Axis coordinates plus cache identity of one recorded condition.

    A deliberately light counterpart to ``campaign.Condition``: it
    carries only what grouping and cache lookup need, so it can be
    reconstructed from a manifest on disk where the full profile/stack
    objects no longer exist.
    """

    website: str
    network: str
    stack: str
    seed: int
    label: str
    fingerprint: str
    #: Optional-axis tokens (see :mod:`repro.axes`); conditions recorded
    #: before an axis existed read back as its default.
    path: str = "direct"
    middleboxes: str = "none"

    def axis(self, name: str) -> object:
        """Value of one pivot axis (see :data:`CONDITION_AXES`)."""
        if name not in CONDITION_AXES:
            raise KeyError(
                f"unknown condition axis {name!r}; "
                f"expected one of {CONDITION_AXES}")
        return getattr(self, name)

    def axes(self, names: Sequence[str]) -> Tuple[object, ...]:
        """Tuple of axis values, e.g. a group-by key."""
        return tuple(self.axis(name) for name in names)


class SummaryStore:
    """Iterates ``(ConditionKey, RecordingSummary)`` pairs lazily.

    ``keys`` fixes the key list up front (live mode: the campaign spec's
    sweep order); without it the keys are recovered from the campaign
    directory's ``manifest.jsonl`` (post-hoc mode), in manifest order
    with later records winning per fingerprint.
    """

    def __init__(
        self,
        cache: Union[RecordingCache, str, Path],
        keys: Optional[Sequence[ConditionKey]] = None,
        campaign_dir: Optional[Union[str, Path]] = None,
    ):
        self.cache = cache if isinstance(cache, RecordingCache) \
            else RecordingCache(cache)
        self.campaign_dir = Path(campaign_dir) \
            if campaign_dir is not None else None
        self._keys = list(keys) if keys is not None else None

    @classmethod
    def open(
        cls,
        campaign_dir: Union[str, Path],
        cache_dir: Optional[Union[str, Path]] = None,
        check_behaviour: bool = True,
    ) -> "SummaryStore":
        """Open a finished campaign directory without re-running anything.

        ``cache_dir`` defaults to the layout ``Campaign`` creates
        (``<cache>/campaigns/<name>-<fingerprint>``), i.e. two levels up
        from the campaign directory.

        Raises :class:`StaleCampaignError` when the directory records a
        ``sim_behaviour`` version (in ``spec.json`` or any manifest
        line) different from the running simulator's — those summaries
        are not comparable with current output, or records no version
        at all (such dirs predate version stamping, so their simulator
        is older than the current one). ``check_behaviour=False`` opens
        it anyway (e.g. to inspect historical results).
        """
        campaign_dir = Path(campaign_dir)
        manifest = campaign_dir / "manifest.jsonl"
        if not manifest.exists():
            raise FileNotFoundError(
                f"no campaign manifest at {manifest}")
        if cache_dir is None:
            cache_dir = campaign_dir.parent.parent
        store = cls(RecordingCache(cache_dir), campaign_dir=campaign_dir)
        if check_behaviour:
            recorded = store.recorded_behaviour_version()
            if recorded != harness.SIM_BEHAVIOUR_VERSION:
                under = "no SIM_BEHAVIOUR_VERSION stamp (a simulator " \
                    "older than version stamps)" if recorded is None \
                    else f"SIM_BEHAVIOUR_VERSION={recorded}"
                raise StaleCampaignError(
                    f"campaign dir {campaign_dir} was recorded under "
                    f"{under}, but the current simulator is version "
                    f"{harness.SIM_BEHAVIOUR_VERSION}, so its summaries "
                    f"are not comparable with current output; re-run "
                    f"the campaign, or open with check_behaviour=False "
                    f"to analyse the stale recordings")
        return store

    # -- keys ----------------------------------------------------------------

    @property
    def manifest_path(self) -> Optional[Path]:
        if self.campaign_dir is None:
            return None
        return self.campaign_dir / "manifest.jsonl"

    def _manifest_records(self) -> List[Dict[str, object]]:
        """Latest manifest record per fingerprint, in first-seen order.

        Torn and checksum-failed lines are skipped with a warning (see
        :func:`read_jsonl`) — a worker killed mid-append degrades one
        line, never the whole campaign directory.
        """
        manifest = self.manifest_path
        records: Dict[str, Dict[str, object]] = {}
        if manifest is None or not manifest.exists():
            return []
        for record in read_jsonl(manifest):
            records[str(record.get("fingerprint"))] = record
        return list(records.values())

    def _key_from_record(
            self, record: Dict[str, object]) -> Optional[ConditionKey]:
        """The record's key; records without the axis fields (written
        before manifests carried them) are skipped and logged."""
        label = str(record.get("label", ""))
        fingerprint = str(record.get("fingerprint", ""))
        if not label or not fingerprint:
            return None
        try:
            return ConditionKey(label=label, fingerprint=fingerprint,
                                **axes.read_tokens(record))
        except (KeyError, TypeError, ValueError):
            logger.warning("%s: skipping manifest record %s without axis "
                           "fields", self.manifest_path, fingerprint)
            return None

    def keys(self) -> List[ConditionKey]:
        """Every recorded condition's key, read off the manifest alone
        (no summary is loaded)."""
        if self._keys is not None:
            return list(self._keys)
        out: List[ConditionKey] = []
        for record in self._manifest_records():
            if record.get("status") not in OK_STATUSES:
                continue
            key = self._key_from_record(record)
            if key is not None:
                out.append(key)
        return out

    def recorded_behaviour_version(self) -> Optional[int]:
        """The ``SIM_BEHAVIOUR_VERSION`` this campaign dir was recorded
        under, or ``None`` when the dir predates version stamping (no
        ``spec.json`` field and no manifest line carries one).

        ``spec.json`` is consulted first (written once per campaign);
        manifest lines are the fallback for dirs whose spec was written
        by an older simulator but whose conditions ran under a newer
        one — any stamped line settles it.
        """
        if self.campaign_dir is None:
            return None
        spec_path = self.campaign_dir / "spec.json"
        if spec_path.exists():
            try:
                spec = json.loads(spec_path.read_text())
            except json.JSONDecodeError:
                spec = {}
            if "sim_behaviour" in spec:
                return int(spec["sim_behaviour"])
        for record in self._manifest_records():
            if "sim_behaviour" in record:
                return int(record["sim_behaviour"])
        return None

    # -- distributed partial aggregates --------------------------------------

    def partial_paths(self) -> List[Path]:
        """Per-worker partial aggregate files, sorted by worker id.

        Workers in a distributed run flush
        ``partials/<worker>.json`` shards (see
        ``repro.testbed.distributed``); an empty list means the
        campaign ran single-host or no worker flushed yet.
        """
        if self.campaign_dir is None:
            return []
        partials = self.campaign_dir / PARTIALS_DIRNAME
        if not partials.is_dir():
            return []
        return sorted(path for path in partials.glob("*.json")
                      if not path.name.startswith("."))

    def load_partial_state(self, path: Path,
                           check_behaviour: bool = True) \
            -> Dict[str, object]:
        """Parse one partial aggregate, checking its behaviour stamp.

        Raises :class:`StaleCampaignError` when the shard was recorded
        under a different ``SIM_BEHAVIOUR_VERSION`` than the running
        simulator (unless ``check_behaviour=False``), and
        ``ValueError`` when the shard is torn (invalid JSON from a
        crashed flush) or fails its checksum — callers that merge
        shards catch that, log, and fall back to the summaries.
        """
        try:
            state = json.loads(Path(path).read_text())
        except json.JSONDecodeError as error:
            raise ValueError(
                f"partial aggregate {path} is torn (invalid JSON: "
                f"{error}); its worker crashed mid-flush") from None
        if not isinstance(state, dict) or not record_intact(state):
            raise ValueError(
                f"partial aggregate {path} failed its checksum; "
                f"skipping the corrupt shard")
        recorded = state.get("sim_behaviour")
        if check_behaviour and recorded is not None and \
                int(recorded) != harness.SIM_BEHAVIOUR_VERSION:
            raise StaleCampaignError(
                f"partial aggregate {path} was recorded under "
                f"SIM_BEHAVIOUR_VERSION={recorded}, but the current "
                f"simulator is version {harness.SIM_BEHAVIOUR_VERSION}")
        return state

    def study_partial_paths(self) -> List[Path]:
        """Per-worker study-pipeline partials, sorted by worker id.

        Written by ``repro study --campaign-dir DIR --shard I:K``; an
        empty list means no study shard has been flushed for this
        campaign yet.
        """
        if self.campaign_dir is None:
            return []
        partials = self.campaign_dir / STUDY_PARTIALS_DIRNAME
        if not partials.is_dir():
            return []
        return sorted(path for path in partials.glob("*.json")
                      if not path.name.startswith("."))

    def recorded_count(self) -> int:
        """How many conditions the manifest says were recorded ok.

        Callers compare it against what iteration actually yields to
        detect a missing or pruned cache.
        """
        if self._keys is not None:
            return len(self._keys)
        return sum(record.get("status") in OK_STATUSES
                   for record in self._manifest_records())

    # -- iteration -----------------------------------------------------------

    def load(self, key: ConditionKey) -> Optional[RecordingSummary]:
        """The summary recorded for one key, or None if missing/pruned."""
        return self.cache.load(key.label, key.fingerprint)

    def iter_summaries(
        self, missing: str = "skip",
    ) -> Iterator[Tuple[ConditionKey, RecordingSummary]]:
        """Yield ``(key, summary)`` pairs one at a time.

        ``missing`` says what to do when a key's recording is absent
        from the cache (pruned, or the condition failed): ``"skip"``
        (default — report on what exists) or ``"raise"`` (KeyError).
        """
        if missing not in ("skip", "raise"):
            raise ValueError(
                f"missing must be 'skip' or 'raise', got {missing!r}")
        for key in self.keys():
            summary = self.load(key)
            if summary is None:
                if missing == "raise":
                    raise KeyError(
                        f"condition {key.label} not recorded yet")
                continue
            yield key, summary

    def __iter__(self) -> Iterator[Tuple[ConditionKey, RecordingSummary]]:
        return self.iter_summaries()

    def __len__(self) -> int:
        return len(self.keys())
