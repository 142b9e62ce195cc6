"""Framework tests: the rule registry contract, suppression discipline
and the engine's parse-error path."""

from __future__ import annotations

import pytest

from repro.devtools.lint import available_rules, get_rule, lint_paths, register_rule
from repro.devtools.lint.rules import Rule, _RULES, rule_catalogue_markdown


class TestRuleRegistry:
    def test_all_shipped_families_are_registered(self):
        ids = available_rules()
        for expected in ("D201", "D202", "D203", "A301", "S401", "S402", "R501", "R502"):
            assert expected in ids

    def test_unknown_rule_gets_did_you_mean(self):
        with pytest.raises(ValueError, match=r"did you mean 'D20\d'"):
            get_rule("D200")

    def test_builtin_rules_are_guarded_against_overwrite(self):
        with pytest.raises(ValueError, match="overwrite=True"):

            @register_rule
            class ImpostorRule(Rule):
                """Impostor."""

                id = "D201"
                name = "impostor"

        assert get_rule("D201").name == "unseeded-random"

    def test_custom_rule_registers_and_can_be_replaced(self):
        @register_rule
        class CustomRule(Rule):
            """A custom project rule."""

            id = "X901"
            name = "custom"

        try:
            assert get_rule("X901") is CustomRule

            @register_rule(overwrite=True)
            class CustomRuleV2(Rule):
                """A custom project rule, revised."""

                id = "X901"
                name = "custom"

            assert get_rule("X901") is CustomRuleV2
        finally:
            _RULES.pop("X901", None)

    def test_rules_must_carry_id_name_and_docstring(self):
        with pytest.raises(ValueError, match="rule id"):

            @register_rule
            class NoIdRule(Rule):
                """Docstring present."""

                name = "no-id"

        with pytest.raises(ValueError, match="docstring"):

            @register_rule
            class NoDocRule(Rule):
                id = "X902"
                name = "no-doc"

    def test_catalogue_renders_every_rule_docstring(self):
        catalogue = rule_catalogue_markdown()
        for rule_id in available_rules():
            assert f"### `{rule_id}`" in catalogue


class TestSuppressionDiscipline:
    def test_unjustified_suppression_does_not_suppress_and_is_reported(
        self, lint_snippet
    ):
        report = lint_snippet(
            """
            import uuid

            def run_id():
                return uuid.uuid4()  # repro-lint: ignore[D202]
            """,
            rules=["D202", "L901"],
        )
        assert sorted(item.rule for item in report.findings) == ["D202", "L901"]
        assert report.suppressed == []

    def test_malformed_rule_list_is_reported(self, lint_snippet):
        report = lint_snippet(
            """
            x = 1  # repro-lint: ignore[not-a-rule]: because
            """,
            rules=["L901"],
        )
        assert [item.rule for item in report.findings] == ["L901"]
        assert "not-a-rule" in report.findings[0].message

    def test_suppression_on_line_above_covers_next_line(self, lint_snippet):
        report = lint_snippet(
            """
            import time

            def deadline(ttl):
                # repro-lint: ignore[D202]: lease math needs the wall clock here
                return time.time() + ttl
            """,
            rules=["D202", "L901"],
        )
        assert report.findings == []
        assert [item.rule for item in report.suppressed] == ["D202"]

    def test_suppression_only_covers_named_rules(self, lint_snippet):
        report = lint_snippet(
            """
            import time

            def deadline(ttl):
                return time.time() + ttl  # repro-lint: ignore[D201]: wrong rule id
            """,
            rules=["D202"],
        )
        assert [item.rule for item in report.findings] == ["D202"]

    def test_docstring_mentioning_the_syntax_is_not_a_suppression(self, lint_snippet):
        report = lint_snippet(
            '''
            def helper():
                """Mentions # repro-lint: ignore[D202]: in prose only."""
                return 1
            ''',
            rules=["L901"],
        )
        assert report.findings == []


class TestEngine:
    def test_unparseable_file_is_a_finding_not_a_crash(self, tmp_path):
        bad = tmp_path / "repro" / "runner" / "broken.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def broken(:\n", encoding="utf-8")
        report = lint_paths([bad])
        assert [item.rule for item in report.findings] == ["L902"]

    def test_directory_walk_is_deterministic_and_deduplicated(self, tmp_path):
        root = tmp_path / "repro" / "runner"
        root.mkdir(parents=True)
        (root / "b.py").write_text("x = 1\n", encoding="utf-8")
        (root / "a.py").write_text("y = 2\n", encoding="utf-8")
        report = lint_paths([root, root / "a.py"], rule_ids=["D201"])
        assert report.checked_files == 2
