"""Command-line front end: `python -m repro.devtools.lint` / `repro-ho lint`.

Both entry points share :func:`add_lint_arguments` and :func:`run_lint`
so the flags, the help text and the exit-code contract cannot drift
between them (the generated CLI reference in the docs keeps the
`repro-ho lint` side honest).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .engine import LintReport, lint_paths
from .rules import available_rules, get_rule
from .schema import write_schema_snapshot

#: Exit status when the tree is clean (or every finding is suppressed).
EXIT_CLEAN = 0
#: Exit status when unsuppressed findings remain.
EXIT_FINDINGS = 1
#: Exit status for usage errors and unknown rules.
EXIT_USAGE = 2

LINT_EPILOG = """\
exit codes:
  0  clean: no findings, or every finding is suppressed
  1  unsuppressed findings remain
  2  usage error or unknown rule id

accepting a finding:
  put `# repro-lint: ignore[ID]: why this is safe` on the offending
  line or the line above it.  The justification is required: a comment
  without one suppresses nothing and is itself a finding (L901).
  repro-lint writes nothing.  `--format json` emits {"findings": [...],
  "summary": {...}} on stdout with the same exit codes.
"""


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the shared lint flags on ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output mode: human-readable lines or one JSON document",
    )
    parser.add_argument(
        "--rules",
        default="",
        metavar="IDS",
        help="comma-separated rule ids to run (default: all registered)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    parser.add_argument(
        "--update-schema-snapshot",
        action="store_true",
        help="refresh the S402 schema fingerprint after a deliberate shape "
        "change plus version bump, then exit",
    )


def build_lint_parser() -> argparse.ArgumentParser:
    """The standalone `python -m repro.devtools.lint` parser."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based invariant linter for the repro codebase "
        "(determinism, store-seam, schema and registry discipline).",
        epilog=LINT_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_lint_arguments(parser)
    return parser


def _selected_rules(spec: str) -> Optional[List[str]]:
    if not spec.strip():
        return None
    rule_ids = [item.strip() for item in spec.split(",") if item.strip()]
    for rule_id in rule_ids:
        get_rule(rule_id)  # raises with a did-you-mean on unknown ids
    return rule_ids


def _render_text(report: LintReport) -> None:
    for item in report.findings:
        print(item.render())
    print(
        f"repro-lint: {report.checked_files} files checked, "
        f"{len(report.findings)} findings ({len(report.suppressed)} suppressed)"
    )


def _render_json(report: LintReport) -> None:
    payload = {
        "findings": [item.as_dict() for item in report.findings],
        "suppressed": [
            {**item.as_dict(), "justification": item.justification}
            for item in report.suppressed
        ],
        "summary": {
            "checked_files": report.checked_files,
            "findings": len(report.findings),
            "suppressed": len(report.suppressed),
        },
    }
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    if args.list_rules:
        for rule_id in available_rules():
            cls = get_rule(rule_id)
            summary = (cls.__doc__ or "").strip().splitlines()[0]
            print(f"{rule_id}  {cls.name}: {summary}")
        return EXIT_CLEAN
    if args.update_schema_snapshot:
        shapes = write_schema_snapshot()
        print(
            "repro-lint: schema snapshot refreshed "
            f"(cache v{shapes['cache_schema_version']}, "
            f"queue v{shapes['queue_schema_version']})"
        )
        return EXIT_CLEAN
    try:
        rule_ids = _selected_rules(args.rules)
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return EXIT_USAGE
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(
            f"repro-lint: no such path: {', '.join(map(str, missing))}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    report = lint_paths(paths, rule_ids=rule_ids)
    if args.format == "json":
        _render_json(report)
    else:
        _render_text(report)
    return EXIT_FINDINGS if report.findings else EXIT_CLEAN


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for `python -m repro.devtools.lint`."""
    parser = build_lint_parser()
    args = parser.parse_args(argv)
    return run_lint(args)
