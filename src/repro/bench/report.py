"""One-call report builder: every table and figure from one harness.

Used by the CLI's ``bench`` subcommand and by anyone regenerating the
EXPERIMENTS.md material programmatically::

    harness = BenchHarness(bench_config())
    harness.run_matrix(full_matrix(("uSAP", "I-SBP", "GSAP")))
    text = build_report(harness)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .figures import (
    fig8_markdown,
    fig9_markdown,
    fig10_markdown,
    fig11_markdown,
)
from .harness import BenchHarness
from .tables import table3_markdown, table4_markdown, to_csv
from .workloads import gsap_only_sizes, matrix_sizes

#: the category Figure 11's proposal breakdown is probed on (the paper
#: highlights low-high)
PROPOSAL_CATEGORY = "low_high"


@dataclass(frozen=True)
class ReportOptions:
    """Which sections to include and where to probe the breakdowns."""

    include_tables: bool = True
    include_figures: bool = True
    breakdown_category: str = "high_low"  # paper Fig. 10 probes high-low
    probe_size: Optional[int] = None  # default: largest matrix size


def build_report(
    harness: BenchHarness, options: ReportOptions = ReportOptions()
) -> str:
    """Render the full evaluation report from the harness's cached cells."""
    sizes: Tuple[int, ...] = tuple(matrix_sizes()) + tuple(gsap_only_sizes())
    probe_size = options.probe_size or max(matrix_sizes())
    sections = []
    if options.include_tables:
        sections.append(
            "## Table 3 — runtime (wall clock)\n\n"
            + table3_markdown(harness.cells(), sizes)
        )
        sections.append(
            "## Table 3 — runtime (GSAP on the simulated A4000 clock)\n\n"
            + table3_markdown(harness.cells(), sizes, clock="sim")
        )
        sections.append(
            "## Table 4 — NMI vs planted truth\n\n"
            + table4_markdown(harness.cells(), sizes)
        )
    if options.include_figures:
        sections.append(fig8_markdown(harness, matrix_sizes()))
        sections.append(fig9_markdown(harness))
        sections.append(
            fig10_markdown(harness, options.breakdown_category, probe_size)
        )
        sections.append(
            fig11_markdown(harness, PROPOSAL_CATEGORY, probe_size)
        )
    return "\n\n".join(sections)


def write_report_artifacts(
    harness: BenchHarness,
    directory,
    options: ReportOptions = ReportOptions(),
) -> Tuple[str, str]:
    """Write ``report.md`` and ``cells.csv`` under *directory*.

    Returns the two file paths as strings.
    """
    from pathlib import Path

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    report = build_report(harness, options)
    report_path = directory / "report.md"
    csv_path = directory / "cells.csv"
    report_path.write_text(report + "\n", encoding="utf-8")
    csv_path.write_text(to_csv(harness.cells()), encoding="utf-8")
    return str(report_path), str(csv_path)
