"""Project-rule and CLI tcblint tests: the TCB011 fixture, the three
output formats with their shared exit code, and stale-directive
reporting."""

import json
from pathlib import Path

from repro.statics import lint_source
from repro.statics.engine import LintReport

FIXTURES = Path(__file__).parent / "fixtures" / "tcblint"


def _lint_fixture(name: str, as_path: str, rules=None):
    source = (FIXTURES / name).read_text()
    return lint_source(source, as_path, rules=rules)


def _lines(findings, rule):
    return [f.line for f in findings if f.rule == rule]


# ---------------------------------------------------------------------- #
# Fixture verdicts
# ---------------------------------------------------------------------- #


class TestRuleTCB011:
    def test_fires_on_aliased_keys_only(self):
        found = _lint_fixture(
            "bad_tcb011.py", "repro/faults/x.py", rules=["TCB011"]
        )
        # Both aliasing sites are reported, cross-referencing each
        # other; the domain-tagged site is clean.
        assert _lines(found, "TCB011") == [13, 19]
        assert all("aliases" in f.message for f in found)

    def test_scoped_to_repro(self):
        found = _lint_fixture(
            "bad_tcb011.py", "tools/x.py", rules=["TCB011"]
        )
        assert found == []


# ---------------------------------------------------------------------- #
# CLI: formats, exit codes, unused suppressions
# ---------------------------------------------------------------------- #


class TestCliFormats:
    BAD = str(FIXTURES / "bad_tcb005.py")

    def _run(self, capsys, *argv):
        from repro.cli import main

        rc = main(["lint", *argv])
        return rc, capsys.readouterr().out

    def test_exit_codes_identical_across_formats(self, capsys, tmp_path):
        clean = tmp_path / "ok.py"
        clean.write_text("def f(x):\n    return x\n")
        for fmt in ("text", "json", "sarif"):
            rc, _ = self._run(capsys, self.BAD, "--format", fmt)
            assert rc == 1, fmt
            rc, _ = self._run(capsys, str(clean), "--format", fmt)
            assert rc == 0, fmt

    def test_sarif_shape(self, capsys):
        rc, out = self._run(capsys, self.BAD, "--format", "sarif")
        assert rc == 1
        log = json.loads(out)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "tcblint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"TCB001", "TCB011"} <= rule_ids
        assert [r["ruleId"] for r in run["results"]] == ["TCB005"] * 3
        loc = run["results"][0]["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("bad_tcb005.py")
        assert loc["region"]["startLine"] == 4

    def test_sarif_parse_error_is_not_green(self, capsys, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        rc, out = self._run(capsys, str(broken), "--format", "sarif")
        assert rc == 1
        inv = json.loads(out)["runs"][0]["invocations"][0]
        assert inv["executionSuccessful"] is False


class TestUnusedSuppressions:
    def test_engine_reports_stale_directive(self):
        report = LintReport()
        src = (
            "import numpy as np\n"
            "x = 1  # tcblint: disable=TCB001\n"
        )
        lint_source(src, "repro/model/x.py", report=report)
        assert report.unused_suppressions == [
            {"path": "repro/model/x.py", "line": 2, "rule": "TCB001"}
        ]

    def test_live_directive_is_not_reported(self):
        report = LintReport()
        src = (FIXTURES / "suppressed.py").read_text()
        lint_source(src, "repro/model/x.py", report=report)
        assert report.suppressed == 3
        assert report.unused_suppressions == []

    def test_partial_rule_run_does_not_misjudge(self):
        # A TCB001 directive cannot be called stale by a run that never
        # executed TCB001.
        report = LintReport()
        src = "NEG = -1e9  # tcblint: disable=TCB001\n"
        lint_source(src, "repro/model/x.py", rules=["TCB005"], report=report)
        assert report.unused_suppressions == []

    def test_cli_flag_gates_exit_code(self, capsys, tmp_path):
        from repro.cli import main

        stale = tmp_path / "stale.py"
        stale.write_text("x = 1  # tcblint: disable=TCB005\n")
        # No flag gates it any more: a stale directive fails the run.
        rc = main(["lint", str(stale)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "unused suppression" in out and "TCB005" in out

    def test_package_tree_has_no_stale_directives(self):
        from repro.statics import lint_package

        report = lint_package()
        assert report.clean
        assert report.unused_suppressions == []
