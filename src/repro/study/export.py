"""Study-data release: CSV export of votes, participants and conditions.

The paper publishes its anonymised study data (https://study.netray.io);
this module produces the equivalent release for a simulated study from
its rows (:mod:`repro.study.rows`) — one CSV per group and study with
one row per vote of the surviving sessions, a participants table with
every entrant's filter verdict, and a conditions table with the
technical metrics of every shown video.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.study.pipeline import ConditionIndex
from repro.study.rows import StudyRows

AB_VOTE_FIELDS = [
    "participant", "group", "website", "network", "stack_a", "stack_b",
    "left_is_a", "answer", "vote", "confidence", "replays", "duration_s",
]

RATING_VOTE_FIELDS = [
    "participant", "group", "website", "network", "stack", "context",
    "speed_score", "quality_score", "replays", "duration_s",
]

PARTICIPANT_FIELDS = [
    "participant", "group", "study", "gender", "age_group", "valid",
]

CONDITION_FIELDS = [
    "website", "network", "stack", "FVC", "SI", "VC85", "LVC", "PLT",
    "video_duration_s",
]

#: Screen-coordinate answers and condition-coordinate votes, indexed by
#: the engine's answer and vote codes.
ANSWER_NAMES = ("left", "right", "same")
VOTE_NAMES = ("a", "same", "b")


def _write_csv(fields: Sequence[str], rows: Iterable[Dict[str, object]]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(fields))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buffer.getvalue()


def _votes(rows: StudyRows) -> Iterator[Tuple[Dict[str, object], int,
                                              Tuple[int, int]]]:
    """Every surviving vote: its leading columns, its condition index
    and its ``(row, column)`` cell in the trial arrays."""
    indices = rows.trials["indices"].tolist()
    for i, participant in enumerate(rows.kept.tolist()):
        for j, index in enumerate(indices[i]):
            condition = rows.conditions[index]
            yield ({"participant": participant, "group": rows.group,
                    "website": condition.website,
                    "network": condition.network}, index, (i, j))


def ab_votes_csv(rows: StudyRows) -> str:
    """One row per A/B vote of the surviving sessions."""
    trials = rows.trials
    out = []
    for row, index, cell in _votes(rows):
        row.update({
            "stack_a": rows.conditions[index].stack_a,
            "stack_b": rows.conditions[index].stack_b,
            "left_is_a": int(trials["left_is_a"][cell]),
            "answer": ANSWER_NAMES[trials["answers"][cell]],
            "vote": VOTE_NAMES[trials["votes"][cell]],
            "confidence": round(float(trials["confidence"][cell]), 4),
            "replays": int(trials["replays"][cell]),
            "duration_s": round(float(trials["durations"][cell]), 3),
        })
        out.append(row)
    return _write_csv(AB_VOTE_FIELDS, out)


def rating_votes_csv(rows: StudyRows) -> str:
    """One row per rating vote of the surviving sessions."""
    trials = rows.trials
    out = []
    for row, index, cell in _votes(rows):
        row.update({
            "stack": rows.conditions[index].stack,
            "context": rows.contexts[index],
            "speed_score": float(trials["speed"][cell]),
            "quality_score": float(trials["quality"][cell]),
            "replays": int(trials["replays"][cell]),
            "duration_s": round(float(trials["durations"][cell]), 3),
        })
        out.append(row)
    return _write_csv(RATING_VOTE_FIELDS, out)


def participants_csv(rows: StudyRows) -> str:
    """One row per entrant with their filter verdict."""
    return _write_csv(PARTICIPANT_FIELDS, (
        {"participant": participant, "group": rows.group,
         "study": rows.study, "gender": "male" if male else "female",
         "age_group": age_group, "valid": int(valid)}
        for participant, male, age_group, valid in zip(
            rows.participant.tolist(), rows.male.tolist(), rows.age_group,
            rows.valid.tolist())))


def conditions_csv(index: ConditionIndex,
                   conditions: Iterable[Tuple[str, str, str]]) -> str:
    """Technical metrics of every shown condition."""
    out = []
    for website, network, stack in conditions:
        stats = index.lookup(website, network, stack)
        out.append({
            "website": website,
            "network": network,
            "stack": stack,
            "FVC": round(stats.fvc, 4),
            "SI": round(stats.si, 4),
            "VC85": round(stats.vc85, 4),
            "LVC": round(stats.lvc, 4),
            "PLT": round(stats.plt, 4),
            "video_duration_s": round(stats.video_duration, 3),
        })
    return _write_csv(CONDITION_FIELDS, out)


def export_rows(rows: Iterable[StudyRows], index: ConditionIndex,
                directory: Union[str, Path]) -> List[Path]:
    """Write the data release of a study; returns the written paths.

    Per group and study (in the order of ``rows``):
    ``<study>_votes_<group>.csv`` (surviving sessions only, like the
    published data) and ``participants_<group>_<study>.csv`` (every
    entrant with their filter verdict); then one ``conditions.csv``
    over every condition a surviving session saw.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    def emit(name: str, content: str) -> None:
        path = directory / name
        path.write_text(content)
        written.append(path)

    shown = set()
    for part in rows:
        votes_csv = ab_votes_csv if part.study == "ab" else rating_votes_csv
        emit(f"{part.study}_votes_{part.group}.csv", votes_csv(part))
        emit(f"participants_{part.group}_{part.study}.csv",
             participants_csv(part))
        for pool_index in np.unique(part.trials["indices"]).tolist():
            c = part.conditions[pool_index]
            stacks = (c.stack_a, c.stack_b) if part.study == "ab" \
                else (c.stack,)
            shown.update((c.website, c.network, stack) for stack in stacks)
    emit("conditions.csv", conditions_csv(index, sorted(shown)))
    return written
