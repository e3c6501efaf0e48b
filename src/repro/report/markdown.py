"""Markdown renderers for campaign reports.

The ASCII renderers in :mod:`repro.report.tables` target terminals; these
produce GitHub-flavoured markdown for READMEs, lab notebooks and CI
summaries.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.streaming import GridReport


def md_table(headers: Sequence[str],
             rows: Sequence[Sequence[object]]) -> str:
    """A GitHub-flavoured markdown table."""
    head = "| " + " | ".join(str(h) for h in headers) + " |"
    sep = "|" + "|".join("---" for _ in headers) + "|"
    body = ["| " + " | ".join(str(cell) for cell in row) + " |"
            for row in rows]
    return "\n".join([head, sep] + body)


def md_grid(report: GridReport) -> str:
    """Markdown twin of :func:`repro.report.tables.render_grid`."""
    from repro.report.tables import (
        grid_caption,
        grid_degraded_note,
        grid_headers_and_rows,
    )

    if report.is_empty:
        return "_(no recorded conditions to report)_"
    headers, rows = grid_headers_and_rows(report)
    rendered = f"### {grid_caption(report)}\n\n" + md_table(headers, rows)
    note = grid_degraded_note(report)
    if note is not None:
        rendered += f"\n\n_{note}_"
    return rendered
