"""Rule-level tcblint tests: each rule fires on its known-bad fixture,
suppressions and the path policy are honored, and the CLI works."""

import json
import re
from pathlib import Path

import pytest

import repro
from repro.statics import (
    ALL_RULES,
    DEFAULT_POLICY,
    LintReport,
    Severity,
    lint_paths,
    lint_source,
)
from repro.statics.policy import canonical_path, path_matches
from repro.statics.suppressions import collect_suppressions

FIXTURES = Path(__file__).parent / "fixtures" / "tcblint"


def _lint_fixture(name: str, as_path: str, rules=None):
    source = (FIXTURES / name).read_text()
    return lint_source(source, as_path, rules=rules)


def _lines(findings, rule):
    return [f.line for f in findings if f.rule == rule]


class TestRuleTCB001:
    def test_fires_on_ad_hoc_masks_only(self):
        found = _lint_fixture("bad_tcb001.py", "repro/model/somewhere.py")
        assert _lines(found, "TCB001") == [9, 13, 17]
        # -np.inf logit truncation (non-mask) must not fire.
        assert len(found) == 3

    def test_exempt_inside_core_masks(self):
        found = _lint_fixture("bad_tcb001.py", "src/repro/core/masks.py")
        assert _lines(found, "TCB001") == []


class TestRuleTCB002:
    def test_fires_on_global_rng(self):
        found = _lint_fixture("bad_tcb002.py", "repro/serving/somewhere.py")
        assert _lines(found, "TCB002") == [9, 13, 14, 19]

    def test_default_rng_allowed_at_entry_points(self):
        found = _lint_fixture("bad_tcb002.py", "repro/workload/somewhere.py")
        # default_rng (line 19) is waived at entry points; the global
        # seed/draw bans (9, 13, 14) hold everywhere.
        assert _lines(found, "TCB002") == [9, 13, 14]

    def test_generator_threading_is_clean(self):
        src = (
            "import numpy as np\n"
            "def draw(rng: np.random.Generator):\n"
            "    return rng.normal(size=2)\n"
        )
        assert lint_source(src, "repro/model/ok.py") == []


class TestRuleTCB003:
    def test_fires_in_simulator_paths(self):
        found = _lint_fixture("bad_tcb003.py", "repro/serving/somewhere.py")
        assert _lines(found, "TCB003") == [13, 17, 21]

    def test_scoped_to_serving_and_scheduling(self):
        found = _lint_fixture("bad_tcb003.py", "repro/experiments/somewhere.py")
        assert _lines(found, "TCB003") == []

    def test_fires_in_obs_paths(self):
        # The tracing layer lives on the simulated clock too: every
        # timestamp it records comes from the serving loops.
        found = _lint_fixture("bad_tcb003.py", "repro/obs/somewhere.py")
        assert _lines(found, "TCB003") == [13, 17, 21]

    def test_fig16_paths_waived_by_policy(self):
        found = _lint_fixture("bad_tcb003.py", "repro/scheduling/base.py")
        assert _lines(found, "TCB003") == []

    def test_fires_in_durability_paths(self):
        # The durability plane journals *simulated* time; a wall-clock
        # read there would make snapshots non-replayable.
        found = _lint_fixture("bad_tcb003.py", "repro/durability/plane.py")
        assert _lines(found, "TCB003") == [13, 17, 21]


class TestRuleTCB004:
    def test_fires_on_reduced_precision(self):
        found = _lint_fixture("bad_tcb004.py", "repro/core/somewhere.py")
        assert _lines(found, "TCB004") == [11, 15, 19]
        assert all(f.severity is Severity.WARNING for f in found)

    def test_scoped_to_hot_paths(self):
        found = _lint_fixture("bad_tcb004.py", "repro/analysis/somewhere.py")
        assert _lines(found, "TCB004") == []


class TestRuleTCB005:
    def test_fires_on_mutable_defaults(self):
        found = _lint_fixture("bad_tcb005.py", "repro/anywhere.py")
        assert _lines(found, "TCB005") == [4, 9, 14]


class TestRuleTCB006:
    def test_fires_on_square_trailing_dims(self):
        found = _lint_fixture("bad_tcb006.py", "repro/engine/somewhere.py")
        assert _lines(found, "TCB006") == [7, 11]

    def test_attention_modules_waived(self):
        found = _lint_fixture("bad_tcb006.py", "repro/core/concat_attention.py")
        assert _lines(found, "TCB006") == []


class TestRuleTCB007:
    def test_fires_on_bare_and_silent_handlers(self):
        found = _lint_fixture("bad_tcb007.py", "repro/serving/somewhere.py")
        assert _lines(found, "TCB007") == [11, 18, 25]
        assert all(f.severity is Severity.ERROR for f in found)

    def test_scoped_to_serving_engine_faults(self):
        for path in (
            "repro/engine/somewhere.py",
            "repro/faults/somewhere.py",
        ):
            found = _lint_fixture("bad_tcb007.py", path)
            assert _lines(found, "TCB007") == [11, 18, 25]
        found = _lint_fixture("bad_tcb007.py", "repro/analysis/somewhere.py")
        assert _lines(found, "TCB007") == []

    def test_handling_and_reraising_is_clean(self):
        src = (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        return None\n"
        )
        assert lint_source(src, "repro/serving/ok.py") == []


class TestRuleTCB003OverloadScope:
    def test_wall_clock_banned_in_overload(self):
        src = "import time\n\ndef t():\n    return time.perf_counter()\n"
        found = lint_source(src, "repro/overload/controller.py")
        assert _lines(found, "TCB003") == [4]


class TestOneStopwatch:
    """What TCB010's suite checked, now that no scheduler holds a wall
    value: the clock is banned outright wherever simulated time lives,
    and the one waiver is the stopwatch in ``scheduling/base.py``."""

    def test_a_clock_put_back_into_a_scheduler_is_a_finding(self):
        # Seeded mutation of the real file, under the default policy.
        path = Path(repro.__file__).parent / "scheduling" / "das.py"
        source = path.read_text()
        assert lint_source(source, str(path)) == []
        mutated = source.replace(
            "        rows = []\n",
            "        import time\n        start = time.perf_counter()\n        rows = []\n",
            1,
        )
        assert mutated != source
        found = lint_source(mutated, str(path))
        assert [f.rule for f in found] == ["TCB003"]

    def test_sleeping_on_simulated_time_is_a_finding(self):
        # The one flow TCB010 caught that TCB003 did not.
        src = "import time\n\ndef wait(now):\n    time.sleep(now)\n"
        found = lint_source(src, "repro/serving/x.py")
        assert _lines(found, "TCB003") == [4]

    def test_fault_plane_is_in_scope(self):
        found = _lint_fixture("bad_tcb003.py", "repro/faults/x.py")
        assert _lines(found, "TCB003") == [13, 17, 21]

    def test_only_the_stopwatch_is_waived(self):
        waived = [ex.pattern for ex in DEFAULT_POLICY.exemptions["TCB003"]]
        assert waived == ["repro/scheduling/base.py"]

    def test_only_the_stopwatch_file_imports_time(self):
        scheduling = Path(repro.__file__).parent / "scheduling"
        importers = [
            p.name
            for p in sorted(scheduling.glob("*.py"))
            if re.search(r"^\s*(import time\b|from time import)", p.read_text(), re.M)
        ]
        assert importers == ["base.py"]


class TestSuppressions:
    def test_inline_disable_silences_the_named_rule(self):
        report = LintReport()
        source = (FIXTURES / "suppressed.py").read_text()
        found = lint_source(source, "repro/model/x.py", report=report)
        assert found == []
        assert report.suppressed == 3

    def test_inline_disable_is_rule_specific(self):
        src = (
            "import numpy as np\n"
            "NEG_INF = -1e9\n"
            "m = np.where(True, 0.0, NEG_INF)  # tcblint: disable=TCB005\n"
        )
        found = lint_source(src, "repro/model/x.py")
        assert _lines(found, "TCB001") == [3]

    def test_file_wide_disable(self):
        source = (FIXTURES / "file_suppressed.py").read_text()
        assert lint_source(source, "repro/model/x.py") == []

    def test_directive_parsing(self):
        smap = collect_suppressions(
            "x = 1  # tcblint: disable=TCB001,TCB003\n"
            "# tcblint: disable-file=TCB005\n"
        )
        assert smap.is_suppressed("TCB001", 1)
        assert smap.is_suppressed("TCB003", 1)
        assert not smap.is_suppressed("TCB001", 2)
        assert smap.is_suppressed("TCB005", 99)


class TestPolicyAndPaths:
    def test_canonical_path_lowers_src_prefix(self):
        assert canonical_path("src/repro/core/masks.py") == "repro/core/masks.py"
        assert canonical_path("/abs/x/src/repro/a.py") == "repro/a.py"
        assert canonical_path("tests/fixtures/f.py") == "tests/fixtures/f.py"

    def test_path_matches_globs(self):
        assert path_matches("src/repro/workload/burst.py", "repro/workload/*.py")
        assert not path_matches("src/repro/serving/continuous.py", "repro/workload/*.py")

    def test_every_exemption_has_a_reason(self):
        for rule, exemptions in DEFAULT_POLICY.exemptions.items():
            assert rule.startswith("TCB")
            for ex in exemptions:
                assert ex.reason


class TestEngineAndCli:
    def test_rule_selection_and_unknown_rule(self):
        src = "def f(x, acc=[]):\n    return acc\n"
        assert lint_source(src, "repro/x.py", rules=["TCB001"]) == []
        assert _lines(lint_source(src, "repro/x.py", rules=["tcb005"]), "TCB005") == [1]
        with pytest.raises(ValueError, match="unknown rule"):
            lint_source(src, "repro/x.py", rules=["TCB999"])

    def test_lint_paths_walks_fixture_dir(self):
        report = lint_paths([FIXTURES])
        assert report.files_scanned == len(list(FIXTURES.glob("*.py")))
        # Fixture paths are outside repro/, so only path-unscoped rules
        # fire — but they must fire.
        assert any(f.rule == "TCB001" for f in report.findings)
        assert any(f.rule == "TCB005" for f in report.findings)
        assert not report.clean

    def test_overlapping_paths_lint_each_file_once(self):
        # A file reached through two arguments used to be parsed twice:
        # TCB011 then saw every stream key aliasing itself.
        pkg = Path(repro.__file__).parent
        once = lint_paths([pkg])
        twice = lint_paths([pkg, pkg / "faults", pkg / "faults" / "plan.py"])
        assert twice.findings == once.findings == []
        assert twice.files_scanned == once.files_scanned
        assert twice.suppressed == once.suppressed

    def test_json_report_shape(self):
        report = lint_paths([FIXTURES / "bad_tcb005.py"])
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["clean"] is False
        assert payload["files_scanned"] == 1
        f = payload["findings"][0]
        assert set(f) == {"rule", "path", "line", "col", "severity", "message"}

    def test_cli_reports_fixture_findings(self, capsys):
        from repro.cli import main

        rc = main(["lint", str(FIXTURES / "bad_tcb005.py"), "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in payload["findings"]] == ["TCB005"] * 3

    def test_cli_list_rules(self, capsys):
        from repro.cli import main

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out

    def test_cli_unknown_rule_exit_code(self, capsys):
        from repro.cli import main

        assert main(["lint", "--rules", "TCB999"]) == 2
