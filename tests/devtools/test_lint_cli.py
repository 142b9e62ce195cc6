"""CLI tests: the exit-code contract, JSON output, accepting a finding
by an inline suppression, the `repro-ho lint` integration and the
self-clean gate."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

import repro.cli as repro_cli
from repro.devtools.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

REPO_ROOT = Path(__file__).resolve().parents[2]

_FAMILY_VIOLATIONS = {
    "D": """
        import random

        def draw():
            return random.random()
        """,
    "A": """
        def publish(path, payload):
            with open(path, "w") as handle:
                handle.write(payload)
        """,
    "S": """
        import json

        def encode(payload):
            return json.dumps(payload)
        """,
    "R": """
        from repro.simulation.backends import register_backend

        @register_backend
        class SneakyBackend:
            name = "sneaky"
        """,
}


def _write_fixture(tmp_path, source, relpath="repro/runner/module_under_test.py"):
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


class TestExitCodes:
    def test_clean_fixture_exits_zero(self, tmp_path, capsys):
        target = _write_fixture(tmp_path, "x = 1\n")
        assert main([str(target)]) == EXIT_CLEAN
        assert "0 findings" in capsys.readouterr().out

    @pytest.mark.parametrize("family", sorted(_FAMILY_VIOLATIONS))
    def test_each_rule_family_violation_exits_nonzero(self, family, tmp_path, capsys):
        relpath = (
            "repro/simulation/custom.py"
            if family == "R"
            else "repro/runner/module_under_test.py"
        )
        target = _write_fixture(tmp_path, _FAMILY_VIOLATIONS[family], relpath)
        assert main([str(target)]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert f" {family}" in out  # a finding line carries the family's rule id

    def test_unknown_rule_id_exits_two_with_did_you_mean(self, tmp_path, capsys):
        target = _write_fixture(tmp_path, "x = 1\n")
        assert main([str(target), "--rules", "D200"]) == EXIT_USAGE
        assert "did you mean" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.py")]) == EXIT_USAGE
        assert "no such path" in capsys.readouterr().err

    def test_invalid_baseline_exits_two(self, tmp_path, capsys):
        """No baseline is valid any more: an invocation that still passes
        one is a usage error, never a silently ignored flag."""
        target = _write_fixture(tmp_path, "x = 1\n")
        baseline = tmp_path / "bad.json"
        baseline.write_text("[not json", encoding="utf-8")
        for flags in (["--baseline", str(baseline)], ["--no-baseline"], ["--baseline-update"]):
            with pytest.raises(SystemExit) as excinfo:
                main([str(target), *flags])
            assert excinfo.value.code == EXIT_USAGE
            assert "repro-lint: error: unrecognized arguments" in capsys.readouterr().err


class TestOutputModes:
    def test_json_format_emits_findings_and_summary(self, tmp_path, capsys):
        target = _write_fixture(tmp_path, _FAMILY_VIOLATIONS["S"])
        code = main([str(target), "--format", "json"])
        assert code == EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"findings", "suppressed", "summary"}
        assert payload["summary"]["checked_files"] == 1
        assert payload["summary"]["findings"] == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "S401"
        assert finding["line"] > 0

    def test_list_rules_prints_every_rule(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in ("D201", "D202", "D203", "A301", "S401", "S402", "R501", "R502"):
            assert rule_id in out


class TestAcceptingAFinding:
    def test_justified_inline_suppression_is_the_way_to_accept(self, tmp_path, capsys):
        target = _write_fixture(tmp_path, _FAMILY_VIOLATIONS["S"])
        assert main([str(target)]) == EXIT_FINDINGS
        capsys.readouterr()

        accepted = _FAMILY_VIOLATIONS["S"].replace(
            "return json.dumps",
            "# repro-lint: ignore[S401]: fixture payloads are plain ints\n"
            "            return json.dumps",
        )
        _write_fixture(tmp_path, accepted)
        assert main([str(target)]) == EXIT_CLEAN
        assert "0 findings (1 suppressed)" in capsys.readouterr().out


class TestReproHoIntegration:
    def test_repro_ho_lint_matches_standalone(self, tmp_path, capsys):
        target = _write_fixture(tmp_path, _FAMILY_VIOLATIONS["D"])
        code = repro_cli.main(["lint", str(target)])
        assert code == EXIT_FINDINGS
        assert "D201" in capsys.readouterr().out

    def test_repro_ho_lint_help_carries_exit_code_contract(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            repro_cli.main(["lint", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "repro-lint: ignore[ID]" in out


class TestSelfCleanGate:
    def test_shipped_tree_is_clean_under_its_own_linter(self, capsys, monkeypatch):
        """`repro-lint src/repro` exits 0 with no baseline file, so CI
        can run it verbatim; accepted findings are inline suppressions."""
        monkeypatch.chdir(REPO_ROOT)
        assert not (REPO_ROOT / ".repro-lint-baseline.json").exists()
        assert main(["src/repro"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_spec_to_json_a301_is_accepted_inline(self, capsys, monkeypatch):
        """The tree's accepted A301 (`CampaignSpec.to_json` writes a file
        the user named, not shared queue/cache state) is suppressed beside
        the write, with its justification."""
        monkeypatch.chdir(REPO_ROOT)
        spec_py = "src/repro/runner/spec.py"
        code = main([spec_py, "--rules", "A301,L901", "--format", "json"])
        assert code == EXIT_CLEAN
        (item,) = json.loads(capsys.readouterr().out)["suppressed"]
        assert (item["rule"], item["path"]) == ("A301", spec_py)
        lines = (REPO_ROOT / spec_py).read_text(encoding="utf-8").splitlines()
        to_json = lines.index("    def to_json(self, path: Union[str, Path]) -> None:") + 1
        assert to_json < item["line"] <= to_json + 3
        assert "not shared queue/cache state" in item["justification"]
