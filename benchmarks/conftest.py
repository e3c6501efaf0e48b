"""Benchmark fixtures: the shared measurement campaign and study.

The first run pays for the testbed sweep (page-load simulations); results
are disk-cached under ``.repro-cache`` so subsequent benchmark runs are
fast. The study runs once on the pipeline: ``partial`` holds the
aggregates behind Table 3 and Figures 3-6, ``rows`` the surviving rows
behind Section 4.2 and the vote distributions. Control knobs:

* ``REPRO_BENCH_FULL=1`` — sweep all 36 corpus sites (paper scale)
  instead of the 12 named sites.
* ``REPRO_BENCH_RUNS`` — repetitions per condition (default 5; the paper
  used >= 31).
* ``REPRO_BENCH_SCALE`` — participant scale relative to Table 3
  (default 0.5).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.study.design import StudyPlan
from repro.study.pipeline import ConditionIndex, build_partial
from repro.study.rows import rows_by_study
from repro.testbed.harness import Testbed
from repro.web.corpus import CORPUS_SITE_NAMES

#: The 12 named sites the paper's evaluation discusses.
NAMED_SITES = [
    "wikipedia.org", "gov.uk", "etsy.com", "demorgen.be", "nytimes.com",
    "spotify.com", "apache.org", "w3.org", "wordpress.com",
    "gravatar.com", "google.com", "nature.com",
]

RESULTS_DIR = Path("results")

#: Seed of the simulated participants.
STUDY_SEED = 7


def bench_sites():
    if os.environ.get("REPRO_BENCH_FULL") == "1":
        return list(CORPUS_SITE_NAMES)
    return list(NAMED_SITES)


def bench_runs() -> int:
    return int(os.environ.get("REPRO_BENCH_RUNS", "5"))


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


def emit(name: str, text: str) -> None:
    """Print an artifact and archive it under results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


@pytest.fixture(scope="session")
def testbed():
    bed = Testbed(runs=bench_runs(), seed=3)
    bed.sweep(sites=bench_sites())
    return bed


@pytest.fixture(scope="session")
def plan():
    return StudyPlan(sites=bench_sites())


@pytest.fixture(scope="session")
def index(testbed, plan):
    return ConditionIndex.from_testbed(testbed, plan)


@pytest.fixture(scope="session")
def partial(index, plan):
    return build_partial(index, plan, seed=STUDY_SEED,
                         participants_scale=bench_scale())


@pytest.fixture(scope="session")
def rows(index, plan):
    return rows_by_study(index, plan, seed=STUDY_SEED,
                         participants_scale=bench_scale())
