"""E-T3 — Table 3: participation and conformance filtering.

Runs both studies for all three groups, applies R1-R7 and regenerates the
participation funnel next to the paper's reference numbers.
"""

import numpy as np

from repro.report import render_table3
from repro.study.design import PAPER_TABLE3
from repro.study.filtering import funnel_from_flags
from repro.study.pipeline import build_report

from benchmarks.conftest import bench_scale, emit


def test_table3_funnel(partial, benchmark):
    scale = bench_scale()
    reference = {
        key: [int(round(v * scale)) if key[0] != "lab" else v
              for v in row]
        for key, row in PAPER_TABLE3.items()
    }
    funnels = build_report(partial).funnels
    text = benchmark(render_table3, funnels, reference=reference)
    emit("table3", text)

    # Lab sessions survive unfiltered (supervised study).
    lab = partial.funnel("lab", "ab")
    assert lab.final == lab.initial

    # The crowd groups lose a comparable share of participants to the
    # paper (µWorker A/B kept 233/487 = 48%).
    mw = partial.funnel("microworker", "ab")
    kept_share = mw.final / mw.initial
    assert 0.33 < kept_share < 0.63

    mw_rating = partial.funnel("microworker", "rating")
    kept_rating = mw_rating.final / mw_rating.initial  # paper: 39%
    assert 0.25 < kept_rating < 0.55

    # Internet volunteers violate less than paid workers (paper: 71% vs
    # 48% kept in the A/B study).
    inet = partial.funnel("internet", "ab")
    assert inet.final / inet.initial > kept_share


def test_filter_application_speed(partial, rows, benchmark):
    flags = rows[("microworker", "ab")].flags

    alive, funnel = benchmark(funnel_from_flags, flags, "microworker", "ab")
    assert funnel.initial == flags.shape[1]
    assert int(np.sum(alive)) == funnel.final
    assert funnel.as_row() == partial.funnel("microworker", "ab").as_row()
