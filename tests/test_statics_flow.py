"""Flow-sensitive tcblint tests: CFG shapes, dataflow verdicts, the
TCB010 / TCB011 fixtures, and the CLI's SARIF / baseline /
changed-only / unused-suppression modes."""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.statics import lint_source
from repro.statics.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.statics.cfg import CFG, build_cfg, module_cfgs
from repro.statics.dataflow import run_forward
from repro.statics.engine import LintReport, lint_paths

FIXTURES = Path(__file__).parent / "fixtures" / "tcblint"


def _cfg(src: str, name=None) -> CFG:
    tree = ast.parse(textwrap.dedent(src))
    cfgs = module_cfgs(tree)
    if name is None:
        assert len(cfgs) == 1, [q for q, _, _ in cfgs]
        return cfgs[0][2]
    for qual, _, cfg in cfgs:
        if qual == name:
            return cfg
    raise AssertionError(f"no function {name!r} in {[q for q, _, _ in cfgs]}")


def _lint_fixture(name: str, as_path: str, rules=None):
    source = (FIXTURES / name).read_text()
    return lint_source(source, as_path, rules=rules)


def _lines(findings, rule):
    return [f.line for f in findings if f.rule == rule]


# ---------------------------------------------------------------------- #
# CFG shape
# ---------------------------------------------------------------------- #


class TestCfgShapes:
    def test_if_else_edge_kinds(self):
        cfg = _cfg(
            """
            def f(x):
                if x:
                    a = 1
                else:
                    a = 2
                return a
            """
        )
        test = next(n for n in cfg.nodes if n.label == "test")
        assert sorted(e.kind for e in test.succs) == ["false", "true"]
        # Both branches reconverge on the return node.
        ret = next(n for n in cfg.nodes if n.label == "return")
        assert cfg.has_path(test.idx, ret.idx)
        assert [e.kind for e in ret.succs] == ["return"]

    def test_while_else_break_bypasses_else(self):
        cfg = _cfg(
            """
            def f(xs, flag):
                while flag:
                    if xs:
                        break
                    flag = xs.pop()
                else:
                    xs.close()
                return 0
            """
        )
        brk = next(
            n for n in cfg.nodes if isinstance(n.stmt, ast.Break)
        )
        ret = next(n for n in cfg.nodes if n.label == "return")
        els = next(
            n
            for n in cfg.nodes
            if n.label == "stmt"
            and isinstance(n.stmt, ast.Expr)
            and "close" in ast.dump(n.stmt)
        )
        # break jumps straight past the else clause to the return.
        assert any(e.dst == ret.idx and e.kind == "break" for e in brk.succs)
        assert not cfg.has_path(brk.idx, els.idx)
        # The else clause is reached only through the loop test's false
        # edge (normal loop exhaustion).
        assert all(e.kind == "false" for e in els.preds)

    def test_try_finally_reraise_paths(self):
        cfg = _cfg(
            """
            def f(q):
                try:
                    q.step()
                except ValueError:
                    raise
                finally:
                    q.close()
            """
        )
        body = next(
            n
            for n in cfg.nodes
            if n.label == "stmt" and "step" in ast.dump(n.stmt)
        )
        handler = next(n for n in cfg.nodes if n.label == "except")
        fin = next(n for n in cfg.nodes if n.label == "finally")
        close = next(
            n
            for n in cfg.nodes
            if n.label == "stmt" and "close" in ast.dump(n.stmt)
        )
        # Exceptions in the body land at the handler; the handler's
        # re-raise routes to the finally node, never skipping it.
        assert any(e.dst == handler.idx and e.kind == "exc" for e in body.succs)
        assert cfg.has_path(handler.idx, fin.idx)
        # The finally body reaches exit on both the normal path and the
        # propagating-exception path (a "raise"-kind edge).
        kinds = {e.kind for e in close.succs if e.dst == CFG.EXIT}
        assert "raise" in kinds and "" in kinds

    def test_with_block_is_linear(self):
        cfg = _cfg(
            """
            def f(lock, q):
                with lock:
                    q.step()
                return q
            """
        )
        w = next(n for n in cfg.nodes if n.label == "with")
        body = next(
            n
            for n in cfg.nodes
            if n.label == "stmt" and "step" in ast.dump(n.stmt)
        )
        assert any(e.dst == body.idx for e in w.succs)
        assert cfg.has_path(CFG.ENTRY, CFG.EXIT)

    def test_nested_function_is_one_def_node(self):
        src = """
            def outer(q):
                def inner(x):
                    q.close()
                    return x
                return inner
            """
        outer = _cfg(src, "outer")
        # inner's statements are not statements of outer's graph ...
        assert sum(1 for n in outer.nodes if n.label == "def") == 1
        assert not any(
            n.label == "stmt" and "close" in ast.dump(n.stmt)
            for n in outer.nodes
            if n.stmt is not None and n.label == "stmt"
        )
        # ... but inner gets its own CFG under a dotted qualname.
        inner = _cfg(src, "outer.inner")
        assert any(
            n.label == "stmt" and "close" in ast.dump(n.stmt)
            for n in inner.nodes
            if n.stmt is not None and n.label == "stmt"
        )

    def test_comprehension_is_a_single_node(self):
        cfg = _cfg(
            """
            def f(xs):
                ys = [x + 1 for x in xs if x]
                return ys
            """
        )
        # The comprehension (its own scope) adds no CFG nodes: entry,
        # exit, the assignment, the return.
        assert len(cfg.nodes) == 4

    def test_describe_is_stable(self):
        cfg = _cfg(
            """
            def f(x):
                if x:
                    return 1
                return 2
            """
        )
        desc = "\n".join(cfg.describe())
        assert "test@3" in desc and "[true]" in desc and "[false]" in desc

    def test_rpo_starts_at_entry(self):
        cfg = _cfg(
            """
            def f(xs):
                for x in xs:
                    x()
                return xs
            """
        )
        order = cfg.rpo()
        assert order[0] == CFG.ENTRY
        assert set(order) == {n.idx for n in cfg.nodes}


class TestDataflowEngine:
    def test_loop_reaches_fixpoint(self):
        cfg = _cfg(
            """
            def f(xs):
                seen = 0
                while xs:
                    seen = seen + 1
                return seen
            """
        )

        def transfer(node, state):
            if isinstance(node.stmt, ast.Assign):
                return frozenset(state | {node.stmt.targets[0].id})
            return state

        _, out = run_forward(
            cfg,
            init=frozenset(),
            bottom=frozenset(),
            transfer=transfer,
            join=lambda a, b: a | b,
        )
        assert "seen" in out[CFG.EXIT]


# ---------------------------------------------------------------------- #
# CFG shapes drive real verdicts
# ---------------------------------------------------------------------- #


class TestShapeVerdicts:
    def test_tcb010_taint_flows_through_with_block(self):
        src = (
            "import time\n"
            "def f(queue, lock, now):\n"
            "    stamp = time.perf_counter()\n"
            "    with lock:\n"
            "        queue.expire(stamp)\n"
        )
        found = lint_source(src, "repro/scheduling/x.py", rules=["TCB010"])
        assert _lines(found, "TCB010") == [5]

    def test_tcb010_branch_local_rebind_still_fires_on_other_path(self):
        src = (
            "import time\n"
            "def f(queue, now, flag):\n"
            "    t = time.perf_counter()\n"
            "    if flag:\n"
            "        t = now\n"
            "    queue.expire(t)\n"
        )
        # On the flag-false path t is still wall-tainted at the sink.
        found = lint_source(src, "repro/scheduling/x.py", rules=["TCB010"])
        assert _lines(found, "TCB010") == [6]


# ---------------------------------------------------------------------- #
# Fixture verdicts
# ---------------------------------------------------------------------- #


class TestRuleTCB010:
    def test_fires_on_domain_mixing_only(self):
        found = _lint_fixture(
            "bad_tcb010.py", "repro/scheduling/x.py", rules=["TCB010"]
        )
        # mix, wall->sim sink, sim->wall sink, cross-domain compare;
        # the overhead-measurement and rebinding functions stay clean.
        assert _lines(found, "TCB010") == [12, 17, 21, 26]

    def test_catches_what_tcb003_waives(self):
        # On the fig16 scheduler path TCB003 is policy-waived, but the
        # leak of a wall reading into sim time still fails the lint.
        found = _lint_fixture("bad_tcb010.py", "repro/scheduling/das.py")
        assert _lines(found, "TCB003") == []
        assert 17 in _lines(found, "TCB010")

    def test_scoped(self):
        found = _lint_fixture(
            "bad_tcb010.py", "repro/analysis/x.py", rules=["TCB010"]
        )
        assert found == []


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
# CLI: formats, exit codes, baseline, changed-only, unused suppressions
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
        assert {"TCB001", "TCB010", "TCB011"} <= rule_ids
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


class TestBaseline:
    def test_round_trip(self, tmp_path):
        report = lint_paths([FIXTURES / "bad_tcb005.py"])
        n = len(report.findings)
        assert n == 3
        bl = tmp_path / "bl.json"
        write_baseline(report, bl)
        budgets = load_baseline(bl)
        assert sum(budgets.values()) == n
        fresh = lint_paths([FIXTURES / "bad_tcb005.py"])
        apply_baseline(fresh, budgets)
        assert fresh.findings == [] and fresh.baselined == n

    def test_new_findings_still_fail(self, tmp_path):
        report = lint_paths([FIXTURES / "bad_tcb005.py"])
        bl = tmp_path / "bl.json"
        write_baseline(report, bl)
        budgets = load_baseline(bl)
        both = lint_paths(
            [FIXTURES / "bad_tcb005.py", FIXTURES / "bad_tcb001.py"]
        )
        apply_baseline(both, budgets)
        # The baselined TCB005s are absorbed; bad_tcb001's own TCB005-
        # free findings (and any new rule hits) remain.
        assert both.baselined == 3
        assert all(fingerprint(f) not in budgets for f in both.findings)

    def test_cli_write_then_check(self, capsys, tmp_path):
        from repro.cli import main

        bl = tmp_path / "bl.json"
        bad = str(FIXTURES / "bad_tcb005.py")
        assert main(["lint", bad, "--write-baseline", str(bl)]) == 0
        capsys.readouterr()
        assert main(["lint", bad, "--baseline", str(bl)]) == 0
        out = capsys.readouterr().out
        assert "3 baselined" in out

    def test_cli_rejects_bad_baseline(self, capsys, tmp_path):
        from repro.cli import main

        bl = tmp_path / "bl.json"
        bl.write_text('{"tool": "other"}')
        assert main(["lint", str(FIXTURES), "--baseline", str(bl)]) == 2


class TestChangedOnly:
    def test_report_only_restricts_findings_not_analysis(self):
        from repro.statics.policy import canonical_path

        key = canonical_path(str(FIXTURES / "bad_tcb001.py"))
        report = lint_paths(
            [FIXTURES / "bad_tcb005.py", FIXTURES / "bad_tcb001.py"],
            report_only={key},
        )
        assert report.files_scanned == 1
        assert {f.path for f in report.findings} == {key}

    def test_cli_changed_only_uses_git_diff(self, capsys, monkeypatch, tmp_path):
        from repro.cli import main
        from repro.statics import cli as cli_mod

        changed = tmp_path / "changed.py"
        changed.write_text("def f(x, acc=[]):\n    return acc\n")
        unchanged = tmp_path / "same.py"
        unchanged.write_text("def g(x, acc=[]):\n    return acc\n")

        def fake_git(*argv):
            if argv[0] == "rev-parse":
                return ""
            if argv[0] == "merge-base":
                return "abc123\n"
            if argv[0] == "diff":
                return f"{changed}\n"
            if argv[0] == "ls-files":
                return ""
            return None

        monkeypatch.setattr(cli_mod, "_git", fake_git)
        rc = main(
            ["lint", str(tmp_path), "--changed-only", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["files_scanned"] == 1
        assert {f["path"] for f in payload["findings"]} == {
            cli_mod.canonical_path(str(changed))
        }

    def test_cli_changed_only_degrades_without_git(
        self, capsys, monkeypatch, tmp_path
    ):
        from repro.cli import main
        from repro.statics import cli as cli_mod

        (tmp_path / "a.py").write_text("def f(x, acc=[]):\n    return acc\n")
        monkeypatch.setattr(cli_mod, "_git", lambda *a: None)
        rc = main(
            ["lint", str(tmp_path), "--changed-only", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        # No git answer -> lint everything rather than hide findings.
        assert rc == 1 and payload["files_scanned"] == 1


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
        assert main(["lint", str(stale)]) == 0
        capsys.readouterr()
        rc = main(["lint", str(stale), "--report-unused-suppressions"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "unused suppression" in out and "TCB005" in out

    def test_package_tree_has_no_stale_directives(self):
        from repro.statics import lint_package

        report = lint_package()
        assert report.clean
        assert report.unused_suppressions == []
