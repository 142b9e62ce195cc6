"""Docs-site gates: strict offline build, dead links, CLI reference sync.

The docs archetype's acceptance criteria live here: the site must build
warning-free with the dependency-free builder, the README's deep-dive
relocations must leave no dead links behind, and the generated CLI
reference must match the argparse definitions exactly.
"""

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS_DIR = REPO_ROOT / "docs"


def _load_builder():
    spec = importlib.util.spec_from_file_location("docs_build", DOCS_DIR / "build.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocsSite:
    def test_site_builds_warning_free(self, tmp_path):
        """The CI gate, in-process: zero warnings (dead links, nav gaps,
        stale CLI reference) and one rendered page per nav entry."""
        builder = _load_builder()
        warnings = builder.collect_warnings()
        assert warnings == []
        nav = builder.parse_nav()
        assert len(nav) >= 6, f"nav unexpectedly small: {nav}"
        builder.build_site(tmp_path, nav)
        for _, relpath in nav:
            rendered = tmp_path / relpath.replace(".md", ".html")
            assert rendered.exists(), f"no rendered page for {relpath}"
            assert "<main>" in rendered.read_text(encoding="utf-8")

    def test_every_nav_page_has_headings_and_content(self):
        builder = _load_builder()
        for _, relpath in builder.parse_nav():
            text = (DOCS_DIR / relpath).read_text(encoding="utf-8")
            assert builder.page_headings(text), f"{relpath} has no headings"
            assert len(text) > 500, f"{relpath} looks like a stub"

    def test_cli_reference_is_in_sync_with_help_output(self):
        """docs/reference/cli.md is generated; drift from the argparse
        definitions (a new flag, a reworded help string) must fail."""
        from repro.cli import cli_reference_markdown

        committed = (DOCS_DIR / "reference" / "cli.md").read_text(encoding="utf-8")
        assert committed == cli_reference_markdown(), (
            "docs/reference/cli.md is stale; regenerate with "
            "'PYTHONPATH=src python docs/build.py --write-cli-reference'"
        )

    def test_cli_reference_covers_every_subcommand(self):
        text = (DOCS_DIR / "reference" / "cli.md").read_text(encoding="utf-8")
        for command in (
            "run",
            "experiment",
            "campaign",
            "worker",
            "supervise",
            "status",
            "table",
            "lint",
        ):
            assert f"## `repro-ho {command}`" in text

    def test_cli_lint_help_documents_exit_codes_and_suppressions(self):
        """`repro-ho lint --help` (and therefore the generated reference)
        must document the exit-code contract and how to accept a finding
        with an inline suppression — they are the CI integration surface."""
        text = (DOCS_DIR / "reference" / "cli.md").read_text(encoding="utf-8")
        lint_section = text.partition("## `repro-ho lint`")[2]
        assert "exit codes:" in lint_section
        assert "repro-lint: ignore[ID]" in lint_section
        assert "--baseline" not in lint_section
        assert "--format" in lint_section

    def test_rule_catalogue_is_in_sync_with_rule_docstrings(self):
        """The docs rule catalogue is generated from rule docstrings;
        registering or rewording a rule must regenerate it."""
        from repro.devtools.lint import available_rules, rule_catalogue_markdown

        page = (DOCS_DIR / "static-analysis.md").read_text(encoding="utf-8")
        catalogue = rule_catalogue_markdown()
        begin = page.index("<!-- RULE-CATALOGUE:BEGIN -->")
        end = page.index("<!-- RULE-CATALOGUE:END -->")
        region = page[begin:end]
        assert catalogue.rstrip() in region, (
            "docs/static-analysis.md rule catalogue is stale; regenerate with "
            "'PYTHONPATH=src python docs/build.py --write-rule-catalogue'"
        )
        for rule_id in available_rules():
            assert f"### `{rule_id}`" in region

    def test_metric_catalogue_is_in_sync_with_fleet_specs(self):
        """The docs metric catalogue is generated from FLEET_METRICS;
        adding or rewording a metric must regenerate it."""
        from repro.runner.metrics import FLEET_METRICS, metric_catalogue_markdown

        page = (DOCS_DIR / "observability.md").read_text(encoding="utf-8")
        catalogue = metric_catalogue_markdown()
        begin = page.index("<!-- METRIC-CATALOGUE:BEGIN -->")
        end = page.index("<!-- METRIC-CATALOGUE:END -->")
        region = page[begin:end]
        assert catalogue.rstrip() in region, (
            "docs/observability.md metric catalogue is stale; regenerate with "
            "'PYTHONPATH=src python docs/build.py --write-metric-catalogue'"
        )
        for spec in FLEET_METRICS:
            assert f"`{spec.name}`" in region


class TestReadmeRelocation:
    """The README keeps a quickstart and links; the deep dives moved."""

    def test_readme_links_to_every_docs_page(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        builder = _load_builder()
        for _, relpath in builder.parse_nav():
            assert f"docs/{relpath}" in readme, f"README does not link docs/{relpath}"

    def test_readme_no_longer_carries_the_deep_dives(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for heading in (
            "## The campaign runner",
            "## In-worker reduction",
            "## Engine backends",
            "## Distributed campaigns",
            "**Lease semantics.**",
        ):
            assert heading not in readme, f"deep dive {heading!r} still in README"

    def test_deep_dives_landed_in_docs(self):
        """The relocated sections (plus the new elastic-fleet material)
        exist in their target pages."""
        expectations = {
            "campaign-runner.md": ["## In-worker reduction", "CampaignSpec"],
            "engine-backends.md": ["Semantic invisibility", "equivalent_to_reference"],
            "cache-keys.md": [
                "## Why backends never enter cache keys",
                "CACHE_SCHEMA_VERSION",
                "QUEUE_SCHEMA_VERSION",
            ],
            "distributed-queue.md": [
                "## Lease semantics",
                "## Work stealing: cut markers and part deposits",
                "## The auto-scaling supervisor",
                "## The worker shutdown protocol",
                "splits/00000.0000.json",
            ],
            "architecture.md": ["Heard-Of core", "distributed fleet"],
        }
        for relpath, needles in expectations.items():
            text = (DOCS_DIR / relpath).read_text(encoding="utf-8")
            for needle in needles:
                assert needle in text, f"{relpath} is missing {needle!r}"
