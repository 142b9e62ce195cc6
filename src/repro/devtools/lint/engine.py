"""The lint driver: walk files, run rules, apply suppressions.

Kept separate from the CLI so tests (and the docs builder) can run the
whole pipeline in-process and inspect the structured
:class:`LintReport` instead of parsing text output.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence

from .findings import Finding
from .rules import (
    ModuleContext,
    Rule,
    available_rules,
    get_rule,
    module_relpath,
    register_rule,
)
from .suppressions import apply_suppressions, collect_suppressions


@register_rule
class ParseErrorRule(Rule):
    """Every linted file parses as Python; a `SyntaxError` is reported as a finding instead of crashing the run.

    Emitted by the engine itself (not a per-node check): a file the
    linter cannot parse is a file whose invariants nobody is checking,
    so it fails the run like any other finding.
    """

    id = "L902"
    name = "parse-error"


@dataclass
class LintReport:
    """Everything one lint run produced, pre-verdict."""

    checked_files: int = 0
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing unsuppressed survived (the exit-0 condition)."""
        return not self.findings


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a deterministic .py file sequence."""
    seen = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def display_path(path: Path) -> str:
    """Posix path relative to the invocation directory when possible."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


def _parse_failure(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule="L902",
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        message=f"file does not parse: {exc.msg}",
    )


def lint_paths(
    paths: Sequence[Path],
    rule_ids: Optional[Sequence[str]] = None,
) -> LintReport:
    """Run ``rule_ids`` (default: all registered) over ``paths``."""
    selected = list(rule_ids) if rule_ids else available_rules()
    rules: List[Rule] = [get_rule(rule_id)() for rule_id in selected]
    report = LintReport()
    for path in iter_python_files(paths):
        shown = display_path(path)
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            report.findings.append(_parse_failure(shown, exc))
            report.checked_files += 1
            continue
        ctx = ModuleContext(
            path=path,
            display_path=shown,
            module_path=module_relpath(path),
            tree=tree,
            source=source,
        )
        suppressions = collect_suppressions(source)
        file_findings: List[Finding] = []
        for rule in rules:
            file_findings.extend(rule.check_module(ctx))
        split = apply_suppressions(file_findings, suppressions)
        report.findings.extend(split["kept"])
        report.suppressed.extend(split["suppressed"])
        report.checked_files += 1
    for rule in rules:
        report.findings.extend(rule.finalize())
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return report
