"""Shared helpers for the repro-lint test-suite.

Fixture snippets are written under ``tmp_path/repro/...`` so the
path-scoped rules (A301, S401 target ``repro/runner/``; the D202 clock
seam keys on ``repro/runner/distributed.py``) scope fixture trees
exactly like the real source tree.
"""

from __future__ import annotations

import textwrap
from typing import List, Optional, Sequence

import pytest

from repro.devtools.lint import LintReport, lint_paths


@pytest.fixture
def lint_snippet(tmp_path):
    """Write a snippet at ``repro/<relpath>`` under tmp_path and lint it."""

    def _lint(
        source: str,
        relpath: str = "repro/runner/module_under_test.py",
        rules: Optional[Sequence[str]] = None,
    ) -> LintReport:
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
        return lint_paths([target], rule_ids=rules)

    return _lint


def rule_ids(report: LintReport) -> List[str]:
    """The rule ids of a report's unsuppressed findings, in output order."""
    return [item.rule for item in report.findings]
