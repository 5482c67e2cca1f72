"""Tier-1 gate: the repro package itself must lint clean.

This is what makes the repo's invariants self-enforcing: any future PR
that builds an ad-hoc mask, reaches for the global RNG, reads the wall
clock inside the simulator, drops to float32 in a hot path, adds a
mutable default, or allocates a stray (L, L) buffer fails here — with a
file:line finding — unless it is explicitly suppressed or added to the
reviewed policy table.
"""

from repro.statics import lint_package


def test_repro_package_is_lint_clean():
    report = lint_package()
    assert report.parse_errors == []
    assert report.findings == [], "\n" + "\n".join(
        f.render() for f in report.findings
    )
    # Sanity: the run actually covered the tree.
    assert report.files_scanned > 50


def test_policy_waivers_are_exercised():
    """The fig16 overhead paths and mask constructors really are waived
    (guards against the policy table silently rotting as files move)."""
    report = lint_package()
    assert report.exempted > 0


def test_inline_suppressions_are_exercised():
    """The tree documents its deliberate exceptions inline (TCBServer's
    wall clock); if those lines disappear, so should the directives."""
    report = lint_package()
    assert report.suppressed > 0


def test_docs_describe_exactly_the_registered_rules():
    """docs/statics.md has one ``### TCBnnn`` section per live rule."""
    import re
    from pathlib import Path

    from repro.statics.checks import RULES_BY_ID

    doc = Path(__file__).parent.parent / "docs" / "statics.md"
    headings = re.findall(r"^### (TCB\d{3})\b", doc.read_text(), flags=re.M)
    assert sorted(headings) == sorted(RULES_BY_ID)


def test_docs_usage_block_shows_exactly_the_cli_options():
    """The ``--flags`` in docs/statics.md's usage block are the options
    ``add_lint_parser`` registers — no retired flag, none undocumented."""
    import argparse
    import re
    from pathlib import Path

    from repro.statics.cli import add_lint_parser

    parser = add_lint_parser(argparse.ArgumentParser().add_subparsers())
    registered = {
        opt
        for action in parser._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    }
    doc = Path(__file__).parent.parent / "docs" / "statics.md"
    usage = doc.read_text().split("```")[1]
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", usage)) == registered
