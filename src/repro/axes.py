"""The condition-axis table: one declarative entry per campaign axis.

Fingerprints, labels, keys, manifest lines, summary JSON, campaign
specs, pivots, the study's network qualifier and the ``repro campaign``
flags all derive from it. An optional axis joins the fingerprint only
off its default value, and its token (short name) appears in labels,
keys and summaries only off its default token, so nothing recorded
before the axis existed changes. A new axis needs one
:class:`OptionalAxis` entry, its field on ``Condition``,
``CampaignSpec``, ``ConditionKey`` and ``RecordingSummary``, and its
simulator keyword in ``produce_summary``. This module imports only
:mod:`repro.netem`, so the analysis layer can use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.netem.middlebox import (
    MIDDLEBOX_PRESETS,
    NO_MIDDLEBOXES,
    MiddleboxChainSpec,
    chain_from_json,
    resolve_middleboxes,
)
from repro.netem.path import PATH_MODES
from repro.netem.profiles import NetworkProfile, SegmentedProfile


def _same(value: Any) -> Any:
    return value


@dataclass(frozen=True)
class Axis:
    """A core axis. ``name`` is the key/manifest field and pivot name,
    ``plural`` the ``CampaignSpec`` field and ``spec.json`` list, ``attr``
    the ``Condition`` attribute (default: ``name``); ``token`` reduces a
    resolved value to what keys record, ``parse`` reads a token back."""

    name: str
    plural: str
    attr: str = ""
    resolve: Callable[[Any], Any] = _same
    token: Callable[[Any], Any] = _same
    parse: Callable[[Any], Any] = str

    def read(self, record: Mapping[str, Any]) -> Any:
        return self.parse(record[self.name])


@dataclass(frozen=True)
class OptionalAxis(Axis):
    """An axis whose default leaves every identity artefact untouched.
    ``resolve(None)`` is the default; ``payload`` joins the fingerprint
    off it; ``applies(value, profile)`` prunes the sweep (a value no
    network accepts is an error naming ``requires``); ``to_json`` /
    ``from_json`` carry values a token cannot rebuild via ``spec.json``."""

    default: Any = None
    payload: Callable[[Any], Any] = _same
    applies: Callable[[Any, NetworkProfile], bool] = lambda value, p: True
    requires: str = ""
    to_json: Optional[Callable[[Any], Any]] = None
    from_json: Optional[Callable[[Any], Any]] = None
    choices: Tuple[str, ...] = ()
    help: str = ""

    @property
    def default_token(self) -> str:
        return self.token(self.default)

    def read(self, record: Mapping[str, Any]) -> Any:
        return self.parse(record.get(self.name, self.default_token))


def _resolve_path(mode: Optional[str]) -> str:
    if mode is None:
        return "direct"
    if mode not in PATH_MODES:
        raise ValueError(
            f"unknown path mode {mode!r}; expected one of {PATH_MODES}")
    return mode


def _splittable(mode: str, profile: NetworkProfile) -> bool:
    return mode != "split" or (isinstance(profile, SegmentedProfile)
                               and len(profile.segments) >= 2)


CORE_AXES: Tuple[Axis, ...] = (
    Axis("website", "sites"),
    Axis("network", "networks", attr="profile", token=lambda p: p.name),
    Axis("stack", "stacks", token=lambda stack: stack.name),
    Axis("seed", "seeds", parse=int),
)

#: Table order is label, manifest and sweep order (optional axes sweep
#: inside the stack loop and outside the seed loop).
OPTIONAL_AXES: Tuple[OptionalAxis, ...] = (
    OptionalAxis(
        "path", "paths", default="direct", resolve=_resolve_path,
        applies=_splittable,
        requires="at least one multi-segment network (a SegmentedProfile "
                 "with >= 2 segments), e.g. SAT+LAN",
        choices=PATH_MODES,
        help="path topology modes (extra sweep axis): direct end-to-end "
             "transport and/or split-connection proxies at every segment "
             "boundary; split needs multi-segment networks, e.g. "
             "--networks SAT+LAN (default: direct)"),
    OptionalAxis(
        # A chain without boxes is no chain, whatever its name.
        "middleboxes", "middleboxes", default=NO_MIDDLEBOXES,
        resolve=lambda value: resolve_middleboxes(value) or NO_MIDDLEBOXES,
        token=lambda chain: chain.name, payload=MiddleboxChainSpec.describe,
        to_json=MiddleboxChainSpec.describe, from_json=chain_from_json,
        choices=tuple(chain.name for chain in MIDDLEBOX_PRESETS),
        help="in-path middlebox chain presets (extra sweep axis): "
             + ", ".join(chain.name for chain in MIDDLEBOX_PRESETS)
             + " (default: none)"),
)
AXES: Tuple[Axis, ...] = CORE_AXES + OPTIONAL_AXES

#: Names a condition can be pivoted or grouped on.
AXIS_NAMES: Tuple[str, ...] = tuple(axis.name for axis in AXES)


def _check_names(names) -> None:
    unknown = set(names) - {axis.name for axis in OPTIONAL_AXES}
    if unknown:
        raise TypeError(f"unknown optional condition axis {sorted(unknown)}")


def resolve_values(values: Mapping[str, Any]) -> Dict[str, Any]:
    """Canonical value of every optional axis (missing → default)."""
    _check_names(values)
    return {axis.name: axis.resolve(values.get(axis.name))
            for axis in OPTIONAL_AXES}


def hash_params(values: Mapping[str, Any]) -> Dict[str, Any]:
    """Fingerprint entries of the optional axes off their default."""
    resolved = resolve_values(values)
    return {axis.name: axis.payload(resolved[axis.name])
            for axis in OPTIONAL_AXES
            if resolved[axis.name] != axis.default}


def non_default(axis_tokens: Mapping[str, str]) -> Dict[str, str]:
    """Optional-axis tokens off their default token, in table order."""
    _check_names(axis_tokens)
    return {axis.name: axis_tokens[axis.name] for axis in OPTIONAL_AXES
            if axis_tokens.get(axis.name, axis.default_token)
            != axis.default_token}


def tokens_of(record: Any) -> Dict[str, str]:
    """Optional-axis tokens of a key/summary-like object (default if
    missing)."""
    return {axis.name: getattr(record, axis.name, axis.default_token)
            for axis in OPTIONAL_AXES}


def condition_tokens(condition: Any) -> Dict[str, Any]:
    """Every axis token of a ``Condition``, in table order."""
    return {axis.name: axis.token(axis.resolve(
        getattr(condition, axis.attr or axis.name))) for axis in AXES}


def read_tokens(record: Mapping[str, Any]) -> Dict[str, Any]:
    """Every axis token of a JSON record (KeyError: core axis missing)."""
    return {axis.name: axis.read(record) for axis in AXES}
