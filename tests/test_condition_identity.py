"""Condition identity pins: every derived axis artefact stays byte-stable.

A condition's identity is spread over several derived artefacts: its
fingerprint (the cache key), its label (cache/manifest file names), its
:class:`ConditionKey`, the axis fields of its manifest line, the axis
keys of its summary JSON, and — for a whole grid — the spec fingerprint,
``describe()`` payload and sweep order. All of them derive from the
condition-axis table (:mod:`repro.axes`); this test recomputes each one
for conditions that put every optional axis both at its default and off
it, and compares against ``tests/data/condition_identity.json``.

Summary JSON and ``spec.json`` are pinned as exact serialised strings,
so key order counts too. The fixture was recorded before the axis table existed, so a mismatch
means a refactor changed a cache key, a file name or an on-disk format.
Regenerate it only for an intentional identity change::

    PYTHONPATH=src python tests/test_condition_identity.py --write
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

from repro.netem.middlebox import (
    JitterSpec,
    MiddleboxChainSpec,
    ReorderSpec,
    resolve_middleboxes,
)
from repro.netem.profiles import DSL, SAT_LAN, trace_profile, with_loss
from repro.testbed.campaign import (
    Campaign,
    CampaignSpec,
    Condition,
    ConditionResult,
    spec_from_json,
)
from repro.testbed.harness import RecordingSummary
from repro.testbed.store import ConditionKey, SummaryStore
from repro.transport.config import stack_by_name

FIXTURE_PATH = Path(__file__).parent / "data" / "condition_identity.json"

#: Manifest fields that name the condition (the rest is run telemetry).
MANIFEST_AXIS_FIELDS = ("fingerprint", "label", "website", "network",
                        "stack", "seed", "path", "middleboxes")

CUSTOM_CHAIN = (ReorderSpec(), JitterSpec(jitter_ms=5.0))
TRACE = trace_profile("trace-5ms", [5 * i for i in range(1, 41)],
                      min_rtt_ms=40.0)


def _conditions() -> Dict[str, Condition]:
    base = dict(website="gov.uk", runs=2, corpus_seed=0, timeout=60.0,
                selection_metric="PLT")
    tcp, quic = stack_by_name("TCP"), stack_by_name("QUIC")
    cases = {
        "dsl": dict(profile=DSL, stack=tcp, seed=0),
        "dsl-lossy": dict(profile=with_loss(DSL, 0.02), stack=quic, seed=1),
        "trace": dict(profile=TRACE, stack=tcp, seed=2),
        "satlan-direct": dict(profile=SAT_LAN, stack=tcp, seed=0),
        "satlan-split": dict(profile=SAT_LAN, stack=quic, seed=0,
                             path="split"),
        "dsl-preset-chain": dict(profile=DSL, stack=tcp, seed=0,
                                 middleboxes=resolve_middleboxes(
                                     "ack-decimate")),
        "dsl-custom-chain": dict(profile=DSL, stack=quic, seed=3,
                                 middleboxes=resolve_middleboxes(
                                     CUSTOM_CHAIN)),
        # Edge cases of the "only off the default" rules: a chain with
        # no boxes counts as clean whatever its name, and a chain named
        # "none" with boxes is hashed but keeps the clean label.
        "dsl-boxless-named-chain": dict(
            profile=DSL, stack=tcp, seed=0,
            middleboxes=MiddleboxChainSpec("quiet")),
        "dsl-none-named-chain": dict(
            profile=DSL, stack=tcp, seed=0,
            middleboxes=MiddleboxChainSpec("none", CUSTOM_CHAIN)),
        "satlan-split-adversarial": dict(
            profile=SAT_LAN, stack=tcp, seed=0, path="split",
            middleboxes=resolve_middleboxes("adversarial")),
    }
    return {name: Condition(**base, **case) for name, case in cases.items()}


def _summaries() -> Dict[str, RecordingSummary]:
    base = dict(website="gov.uk", network="SAT+LAN", stack="TCP", runs=1,
                selection_metric="PLT",
                selected_metrics={"FVC": 0.5, "SI": 0.75, "VC85": 0.875,
                                  "LVC": 1.0, "PLT": 1.25},
                selected_curve=[(0.0, 0.0), (1.0, 1.0)],
                run_metrics=[{"PLT": 1.25}], mean_retransmissions=0.0,
                mean_segments_sent=10.0, completed_fraction=1.0)
    return {
        "clean": RecordingSummary(**base),
        "split": RecordingSummary(**base, path="split"),
        "middlebox": RecordingSummary(**base, middleboxes="ack-decimate"),
        "split-middlebox": RecordingSummary(**base, path="split",
                                            middleboxes="adversarial"),
    }


def _specs() -> Dict[str, CampaignSpec]:
    return {
        "plain": CampaignSpec(sites=["gov.uk"], networks=["DSL"],
                              stacks=["TCP", "QUIC"], seeds=[0, 1],
                              runs=2, name="plain"),
        "all-axes": CampaignSpec(
            sites=["gov.uk", "apache.org"],
            networks=["DSL", SAT_LAN, with_loss(DSL, 0.02)],
            stacks=["TCP+"], seeds=[4], paths=["direct", "split"],
            middleboxes=["none", "ack-decimate", CUSTOM_CHAIN],
            runs=1, name="all-axes"),
    }


def _manifest_axes(conditions: List[Condition]) -> List[Dict[str, object]]:
    """Axis fields of the manifest lines a campaign writes, plus the
    line's field order (the line bytes, ``at`` timestamp aside)."""
    with tempfile.TemporaryDirectory() as tmp:
        campaign = Campaign(_specs()["plain"], cache_dir=tmp,
                            campaign_dir=Path(tmp) / "dir")
        for condition in conditions:
            campaign._append_manifest(ConditionResult(condition, "simulated"))
        lines = campaign.manifest_path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    return [dict({field: record[field] for field in MANIFEST_AXIS_FIELDS},
                 field_order=list(record)) for record in records]


def build_identity() -> Dict[str, object]:
    conditions = _conditions()
    manifest = _manifest_axes(list(conditions.values()))
    return {
        "conditions": {
            name: {
                "fingerprint": condition.fingerprint(),
                "label": condition.label,
                "key": vars(condition.key),
                "manifest": record,
            }
            for (name, condition), record in zip(conditions.items(),
                                                 manifest)
        },
        # Exact cache-file bytes (key order included).
        "summaries": {name: json.dumps(summary.to_json())
                      for name, summary in _summaries().items()},
        "specs": {
            name: {
                "fingerprint": spec.fingerprint(),
                # Exact spec.json bytes (key order included).
                "spec_json": json.dumps(spec.describe(), indent=2),
                "labels": [c.label for c in spec.conditions()],
            }
            for name, spec in _specs().items()
        },
    }


def _expected() -> Dict[str, object]:
    return json.loads(FIXTURE_PATH.read_text())


def _roundtrip(payload):
    return json.loads(json.dumps(payload))


class TestConditionIdentity:
    def test_conditions(self):
        actual = _roundtrip(build_identity()["conditions"])
        assert actual == _expected()["conditions"]

    def test_summary_json(self):
        actual = _roundtrip(build_identity()["summaries"])
        assert actual == _expected()["summaries"]
        for summary in _summaries().values():
            again = RecordingSummary.from_json(summary.to_json())
            assert again == summary

    def test_specs(self):
        actual = _roundtrip(build_identity()["specs"])
        assert actual == _expected()["specs"]
        for spec in _specs().values():
            rebuilt = spec_from_json(_roundtrip(spec.describe()))
            assert rebuilt.fingerprint() == spec.fingerprint()
            assert [c.label for c in rebuilt.conditions()] == \
                [c.label for c in spec.conditions()]

    def test_manifest_keys_recover_condition_keys(self, tmp_path):
        conditions = list(_conditions().values())
        campaign = Campaign(_specs()["plain"], cache_dir=tmp_path,
                            campaign_dir=tmp_path / "dir")
        for condition in conditions:
            campaign._append_manifest(ConditionResult(condition, "simulated"))
        store = SummaryStore.open(campaign.campaign_dir, cache_dir=tmp_path)
        # One key per fingerprint (a boxless chain is the clean
        # condition), in first-seen order.
        expected = {c.fingerprint(): c.key for c in conditions}
        assert store.keys() == list(expected.values())
        assert all(isinstance(key, ConditionKey) for key in store.keys())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    FIXTURE_PATH.write_text(
        json.dumps(build_identity(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")
