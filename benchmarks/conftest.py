"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures by calling
the corresponding experiment driver under ``pytest-benchmark`` (a single
measured iteration — the drivers are full simulation sweeps, not
micro-benchmarks) and printing the resulting table.  Nothing is written
into the tree: the measured trajectory lives in ``bench/results/``
(``python3 bench/run.py``), and these tests only print what they measured.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path

import pytest


def peak_rss_mb() -> float:
    """The process's lifetime peak resident set size, in MiB.

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; either way
    it is a high-water mark, so benchmarks that want a per-phase figure
    should read it immediately after the phase of interest (the value
    never decreases).
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return peak / 1024.0


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ so CI can (de)select it by marker.

    The hook receives the whole session's items, so filter by location —
    only the files next to this conftest get the marker.
    """
    here = Path(__file__).parent
    for item in items:
        if Path(str(item.fspath)).parent == here:
            item.add_marker(pytest.mark.bench)


@pytest.fixture
def record_report(capsys):
    """Return a callable that prints an ExperimentReport."""

    def _record(report):
        with capsys.disabled():
            print()
            print(report.render())
        return report

    return _record


def run_once(benchmark, func, **kwargs):
    """Run an experiment driver exactly once under the benchmark timer."""
    return benchmark.pedantic(lambda: func(**kwargs), rounds=1, iterations=1)
