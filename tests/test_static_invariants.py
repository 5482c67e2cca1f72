"""Tier-1 static invariants: eight AST rules and one reachability walk over ``src/repro``.

Three of the rules guard the paper's own invariants: the Eq. 5-8
additive masks live in ``core/masks.py`` (TCB001), every Fig. 9-16 run
replays from its seed (TCB002, TCB011), and no wall clock reaches the
simulated world, so Fig. 16 measures only the scheduler's stopwatch
(TCB003).  The other four keep float64 in the hot paths (TCB004), ban
mutable defaults (TCB005) and stray ``(..., L, L)`` buffers (TCB006),
and keep serving/engine/faults code from swallowing failures (TCB007).
``docs/statics.md`` has the rule table.

Each per-file rule is a plain function ``(tree, aliases, rel) -> [(line,
message)]``, where *rel* is the module's path inside the package
(``serving/server.py``); TCB011 needs every module at once.  The package
is parsed once per session, and the walk must find exactly the findings
``ALLOWED`` lists and nothing else.

The same parse feeds the reachability walk: every module of the package
must be imported, directly or through others, from the CLI, the repo
benchmark, the pytest-benchmark suite or an example.  A module that
only tests reach is not part of the system.
"""

from __future__ import annotations

import ast
import re
import shutil
from collections import Counter
from fnmatch import fnmatch
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "repro"
FIXTURES = Path(__file__).parent / "fixtures" / "tcblint"

# Every finding the walk may report, keyed by (rule, path in the
# package): the exact count and why.  A listed pair with any other
# count fails, so an entry cannot outlive the code it excuses and a new
# finding in a listed file is not waived.
ALLOWED: dict[tuple[str, str], tuple[int, str]] = {
    # The canonical mask constructors are the one place allowed to lower
    # boolean "allowed" arrays to additive NEG_INF masks (Eq. 5-8), and
    # their block mask is (W, W) by design.
    ("TCB001", "core/masks.py"): (5, "canonical mask constructors (Eq. 5-8)"),
    ("TCB006", "core/masks.py"): (1, "mask constructors are (W, W) by design"),
    # Fig. 16 measures wall-clock scheduling overhead: one stopwatch
    # times every scheduler's decision from outside its body.
    ("TCB003", "scheduling/base.py"): (2, "fig16 scheduler-overhead stopwatch"),
    # TCBServer is the online facade; its clock really is the wall.
    ("TCB003", "serving/server.py"): (2, "TCBServer's real clock"),
}

# Paths where calling ``np.random.default_rng`` is a documented entry
# point: the seed-to-Generator boundary of the system.  Everywhere else,
# functions accept an injected Generator (usually via
# ``repro.rng.ensure_rng``) so callers control replay end to end.
# Module-level RNG (``np.random.seed`` / ``np.random.rand`` ...) is
# banned everywhere.
RNG_ENTRY_POINTS: tuple[str, ...] = (
    # The seed->Generator helper itself.
    "rng.py",
    # CLI subcommands are top-level user entry points.
    "cli.py",
    # Model initialisation is keyed by its seed (checkpoint identity).
    "model/params.py",
    # Experiment drivers own figure-level seeds (paper replication).
    "experiments/*.py",
    # Workload generators are defined by (distribution, seed).
    "workload/*.py",
)


# ---------------------------------------------------------------------- #
# Import resolution
# ---------------------------------------------------------------------- #

# Top-level modules whose imports are tracked for resolution.
_TRACKED_ROOTS = ("numpy", "time", "datetime", "random")


def build_alias_map(tree: ast.AST) -> dict[str, str]:
    """Map local names to canonical dotted paths of tracked modules."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                root = a.name.split(".", 1)[0]
                if root not in _TRACKED_ROOTS:
                    continue
                if a.asname:
                    aliases[a.asname] = a.name
                else:
                    # ``import numpy.random`` binds only the root name.
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            root = node.module.split(".", 1)[0]
            if root not in _TRACKED_ROOTS:
                continue
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def resolve(aliases: dict[str, str], node: ast.AST) -> Optional[str]:
    """Canonical dotted path of a Name/Attribute chain, if trackable.

    Returns e.g. ``"numpy.random.seed"`` whatever the import spelling, or
    ``None`` when the chain is rooted in something untracked (locals,
    method calls, ...).
    """
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    base = aliases.get(cur.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


# ---------------------------------------------------------------------- #
# The rules
# ---------------------------------------------------------------------- #

Hits = list[tuple[int, str]]


def _is_neg_inf_like(node: ast.AST) -> bool:
    """NEG_INF, <anything>.NEG_INF, or a finite constant <= -1e8 / >= 1e8."""
    if isinstance(node, ast.Name) and node.id == "NEG_INF":
        return True
    if isinstance(node, ast.Attribute) and node.attr == "NEG_INF":
        return True
    value: Optional[float] = None
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        value = float(node.value)
    elif (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
    ):
        value = -float(node.operand.value)
    if value is None:
        return False
    # Exclude +-inf: sampling-style logit truncation with -np.inf is not
    # an additive attention mask.
    return abs(value) >= 1e8 and value == value and abs(value) != float("inf")


def tcb001_mask_discipline(tree: ast.AST, aliases: dict[str, str], rel: str) -> Hits:
    """Additive masks come from ``repro.core.masks`` (Eq. 5-8)."""
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = resolve(aliases, node.func)
        if target not in ("numpy.where", "numpy.full", "numpy.full_like"):
            continue
        if any(_is_neg_inf_like(a) for a in node.args) or any(
            _is_neg_inf_like(kw.value) for kw in node.keywords
        ):
            hits.append((
                node.lineno,
                f"{target.split('.')[-1]}(..., NEG_INF) builds an additive "
                "mask ad hoc; use the canonical constructors in "
                "repro.core.masks (block_diagonal_mask, causal_block_mask, "
                "cross_attention_mask, ...) so Eq. 5-8 semantics stay in "
                "one audited place",
            ))
    return hits


# numpy.random attributes that are types, fine to reference anywhere
# (annotations, isinstance checks, Generator construction from bits).
_RNG_TYPE_NAMES = frozenset(
    {"Generator", "BitGenerator", "SeedSequence", "PCG64", "PCG64DXSM", "Philox",
     "MT19937", "SFC64"}
)
_STDLIB_RANDOM_OK = frozenset({"Random", "SystemRandom", "getstate", "setstate"})


def _global_rng_message(chain: str, rel: str) -> Optional[str]:
    if chain == "numpy.random.seed":
        return (
            "np.random.seed mutates the process-global RNG; every figure "
            "must be replayable from an explicit np.random.Generator"
        )
    if chain.startswith("numpy.random."):
        head = chain[len("numpy.random."):].split(".", 1)[0]
        if head in _RNG_TYPE_NAMES:
            return None
        if head == "default_rng":
            if any(fnmatch(rel, p) for p in RNG_ENTRY_POINTS):
                return None
            return (
                "np.random.default_rng outside the documented entry points "
                "(see RNG_ENTRY_POINTS in tests/test_static_invariants.py); "
                "accept an injected np.random.Generator instead "
                "(repro.rng.ensure_rng helps)"
            )
        return (
            f"np.random.{head} draws from the process-global RNG; thread "
            "an explicit np.random.Generator through instead"
        )
    if chain.startswith("random."):
        head = chain[len("random."):].split(".", 1)[0]
        if head in _STDLIB_RANDOM_OK:
            return None
        return (
            f"stdlib random.{head} is process-global and unseeded here; "
            "use an injected np.random.Generator"
        )
    return None


def tcb002_global_rng(tree: ast.AST, aliases: dict[str, str], rel: str) -> Hits:
    """All randomness threads an explicit ``np.random.Generator``."""
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        # ast.walk also yields every sub-chain, but a sub-chain resolves
        # to a prefix that never names a banned leaf, so nothing repeats.
        chain = resolve(aliases, node)
        message = chain and _global_rng_message(chain, rel)
        if message:
            hits.append((node.lineno, message))
    return hits


_SIM_TIME_SCOPE = (
    "serving/", "scheduling/", "obs/", "overload/", "durability/",
    "cluster_health/", "tenancy/", "faults/",
)
_WALL_CLOCK = frozenset(
    {
        # Not a read, but the one way a simulated ``now`` can reach the
        # wall clock without one.
        "time.sleep",
        "time.time", "time.time_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns",
        "time.thread_time", "time.thread_time_ns",
        "time.clock",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)


def tcb003_sim_time_purity(tree: ast.AST, aliases: dict[str, str], rel: str) -> Hits:
    """No wall clock in the discrete-event world."""
    if not rel.startswith(_SIM_TIME_SCOPE):
        return []
    return [
        (
            node.lineno,
            f"{chain} uses the wall clock inside the discrete-event "
            "simulator; advance simulated time explicitly (the only "
            "sanctioned wall-clock paths are the fig16 stopwatch in "
            "repro/scheduling/base.py and TCBServer's real clock)",
        )
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name))
        and (chain := resolve(aliases, node)) in _WALL_CLOCK
    ]


_REDUCED_ATTRS = frozenset({"numpy.float32", "numpy.float16", "numpy.single", "numpy.half"})
_REDUCED_STRINGS = frozenset({"float32", "float16", "single", "half", "f4", "f2"})


def _reduced_string(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value in _REDUCED_STRINGS
    )


def tcb004_dtype_discipline(tree: ast.AST, aliases: dict[str, str], rel: str) -> Hits:
    """Hot paths keep the canonical float64 convention."""
    if not rel.startswith(("core/", "model/", "engine/")):
        return []
    msg = (
        "uses a reduced-precision float dtype; core/model/engine hot "
        "paths follow the repo-wide float64 convention so masks "
        "underflow exactly and goldens stay bit-stable"
    )
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if resolve(aliases, node) in _REDUCED_ATTRS:
                hits.append((node.lineno, f"{ast.unparse(node)} {msg}"))
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg == "dtype" and _reduced_string(kw.value):
                    hits.append((node.lineno, f"dtype={kw.value.value!r} {msg}"))
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "astype"
                and node.args
                and _reduced_string(node.args[0])
            ):
                hits.append((node.lineno, f"astype({node.args[0].value!r}) {msg}"))
    return hits


_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "deque", "Counter"}
)


def _is_mutable(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_FACTORIES
    )


def tcb005_mutable_defaults(tree: ast.AST, aliases: dict[str, str], rel: str) -> Hits:
    """No mutable default arguments."""
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        defaults = list(node.args.defaults) + [d for d in node.args.kw_defaults if d is not None]
        hits += [
            (
                d.lineno,
                f"mutable default in {name}(): evaluated once at def "
                "time and shared across calls; default to None (or a "
                "dataclass field(default_factory=...))",
            )
            for d in defaults
            if _is_mutable(d)
        ]
    return hits


def tcb006_quadratic_allocation(tree: ast.AST, aliases: dict[str, str], rel: str) -> Hits:
    """No stray ``(..., L, L)`` score-matrix allocations."""
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = resolve(aliases, node.func)
        if target not in ("numpy.zeros", "numpy.empty", "numpy.ones", "numpy.full"):
            continue
        shape = next((kw.value for kw in node.keywords if kw.arg == "shape"), None)
        if shape is None and node.args:
            shape = node.args[0]
        if not isinstance(shape, ast.Tuple) or len(shape.elts) < 2:
            continue
        a, b = shape.elts[-2], shape.elts[-1]
        symbolic = isinstance(a, (ast.Name, ast.Attribute)) and isinstance(
            b, (ast.Name, ast.Attribute)
        )
        if symbolic and ast.dump(a) == ast.dump(b):
            hits.append((
                node.lineno,
                f"{target.split('.')[-1]} with a (..., "
                f"{ast.unparse(a)}, {ast.unparse(b)}) score-matrix shape "
                "outside the attention modules; §4.2 slotting exists to "
                "eliminate quadratic buffers — build masks via "
                "repro.core.masks or restructure per-slot",
            ))
    return hits


def _is_silent(handler: ast.ExceptHandler) -> bool:
    """True when the handler body does nothing but pass/docstring."""
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        for stmt in handler.body
    )


def tcb007_swallowed_exceptions(tree: ast.AST, aliases: dict[str, str], rel: str) -> Hits:
    """Serving/engine/faults code never swallows failures silently.

    Fault tolerance (docs/faults.md) rests on failures surfacing as typed
    outcomes; a swallowed exception in these trees silently converts a
    fault into a success and breaks the conservation invariant.
    """
    if not rel.startswith(("serving/", "engine/", "faults/")):
        return []
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            hits.append((
                node.lineno,
                "bare `except:` catches everything (including "
                "KeyboardInterrupt) and hides faults the serving loops "
                "must see; catch the specific exception (BatchFailure, "
                "EngineDown, ...) instead",
            ))
        elif _is_silent(node):
            hits.append((
                node.lineno,
                f"`except {ast.unparse(node.type)}: pass` silently swallows "
                "the failure; serving/engine code must surface faults as "
                "typed outcomes (re-raise, requeue, or record them) so the "
                "conservation invariant can hold",
            ))
    return hits


FILE_RULES = {
    "TCB001": tcb001_mask_discipline,
    "TCB002": tcb002_global_rng,
    "TCB003": tcb003_sim_time_purity,
    "TCB004": tcb004_dtype_discipline,
    "TCB005": tcb005_mutable_defaults,
    "TCB006": tcb006_quadratic_allocation,
    "TCB007": tcb007_swallowed_exceptions,
}


class Module(NamedTuple):
    rel: str  # posix path inside the package, e.g. "serving/server.py"
    tree: ast.Module
    aliases: dict[str, str]


class Finding(NamedTuple):
    rule: str
    rel: str
    line: int
    message: str


def _module_int_consts(tree: ast.Module) -> dict[str, int]:
    out: dict[str, int] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
        else:
            continue
        if (
            isinstance(target, ast.Name)
            and isinstance(value, ast.Constant)
            and isinstance(value.value, int)
            and not isinstance(value.value, bool)
        ):
            out[target.id] = value.value
    return out


def _key_element(e: ast.AST, consts: dict[str, int]) -> str:
    if isinstance(e, ast.Constant) and isinstance(e.value, (int, str)):
        return repr(e.value)
    if isinstance(e, ast.Name) and e.id in consts:
        return repr(consts[e.id])
    return "*"


def tcb011_rng_stream_aliasing(modules: list[Module]) -> list[Finding]:
    """No two call sites key the same ``SeedSequence`` stream.

    Two call sites keying ``np.random.SeedSequence`` tuples with the same
    structural fingerprint (int/str constants and module-level int
    constants by value, anything else a wildcard) consume the same child
    stream and produce correlated draws; every stream key must carry a
    distinct domain constant.
    """
    groups: dict[tuple[str, ...], list[tuple[str, int]]] = {}
    for m in modules:
        consts = _module_int_consts(m.tree)
        for n in ast.walk(m.tree):
            if not isinstance(n, ast.Call):
                continue
            if resolve(m.aliases, n.func) != "numpy.random.SeedSequence":
                continue
            if not n.args or not isinstance(n.args[0], ast.Tuple):
                continue
            fp = tuple(_key_element(e, consts) for e in n.args[0].elts)
            groups.setdefault(fp, []).append((m.rel, n.lineno))
    found = []
    for fp, sites in sorted(groups.items()):
        if len(sites) < 2:
            continue
        for i, (rel, line) in enumerate(sites):
            others = ", ".join(f"{r}:{n}" for j, (r, n) in enumerate(sites) if j != i)
            found.append(Finding(
                "TCB011",
                rel,
                line,
                f"SeedSequence stream key ({', '.join(fp)}) aliases the "
                f"stream consumed at {others}; correlated draws break "
                "replay independence — add a distinct integer "
                "stream-domain constant to the key tuple",
            ))
    return found


RULES = (*FILE_RULES, "TCB011")


# ---------------------------------------------------------------------- #
# The walk
# ---------------------------------------------------------------------- #


def parse(source: str, rel: str) -> Module:
    tree = ast.parse(source, filename=rel)
    return Module(rel, tree, build_alias_map(tree))


def parse_package(root: Path) -> list[Module]:
    """Every module under *root*, named by its path relative to *root*."""
    return [
        parse(p.read_text(encoding="utf-8"), p.relative_to(root).as_posix())
        for p in sorted(root.rglob("*.py"))
    ]


def file_findings(m: Module) -> list[Finding]:
    return [
        Finding(rule, m.rel, line, message)
        for rule, check in FILE_RULES.items()
        for line, message in check(m.tree, m.aliases, m.rel)
    ]


def walk(modules: list[Module]) -> list[Finding]:
    per_file = [f for m in modules for f in file_findings(m)]
    return sorted(per_file + tcb011_rng_stream_aliasing(modules))


def violations(findings: list[Finding], allowed=ALLOWED) -> list[str]:
    """Findings ``allowed`` does not list, and listed pairs whose count is off."""
    counts = Counter((f.rule, f.rel) for f in findings)
    out = [
        f"{f.rule} {f.rel}:{f.line}: {f.message}"
        for f in findings
        if (f.rule, f.rel) not in allowed
    ]
    out += [
        f"{rule} {rel}: {counts[rule, rel]} findings, ALLOWED expects {n} ({why})"
        for (rule, rel), (n, why) in allowed.items()
        if counts[rule, rel] != n
    ]
    return out


@pytest.fixture(scope="module")
def package() -> list[Module]:
    return parse_package(PACKAGE)


@pytest.fixture(scope="module")
def package_findings(package) -> list[Finding]:
    return walk(package)


def test_repro_package_is_clean(package, package_findings):
    assert len(package) > 50  # the walk really covered the tree
    found = violations(package_findings)
    assert found == [], "\n" + "\n".join(found)


def test_every_allowance_has_a_reason():
    assert all(rule in RULES and n > 0 and why for (rule, _), (n, why) in ALLOWED.items())


def test_every_allowance_is_exercised(package_findings):
    counts = Counter((f.rule, f.rel) for f in package_findings)
    assert {key: counts[key] for key in ALLOWED} == {key: n for key, (n, _) in ALLOWED.items()}


# The functions each allowance's findings sit in.  A waived construct
# that spreads to another function of the same file fails here even
# when the file's count still matches.
ALLOWED_HOMES: dict[tuple[str, str], set[str]] = {
    ("TCB001", "core/masks.py"): {
        "additive_mask", "block_diagonal_mask", "causal_block_mask",
        "cross_attention_mask", "padding_key_mask",
    },
    ("TCB006", "core/masks.py"): {"causal_block_mask"},
    ("TCB003", "scheduling/base.py"): {"_timed"},
    ("TCB003", "serving/server.py"): {"__init__", "_now"},
}


def enclosing_function(tree: ast.AST, line: int) -> str:
    defs = [
        n for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        and n.lineno <= line <= (n.end_lineno or n.lineno)
    ]
    return max(defs, key=lambda n: n.lineno).name if defs else "<module>"


@pytest.mark.parametrize(
    "key", list(ALLOWED_HOMES),
    ids=["TCB001-masks", "TCB006-masks", "TCB003-stopwatch", "TCB003-server"],
)
def test_allowed_findings_stay_in_their_functions(package, package_findings, key):
    assert set(ALLOWED_HOMES) == set(ALLOWED)
    tree = next(m.tree for m in package if m.rel == key[1])
    lines = [f.line for f in package_findings if (f.rule, f.rel) == key]
    assert {enclosing_function(tree, n) for n in lines} == ALLOWED_HOMES[key]


def test_no_tcblint_directive_is_left_in_the_package():
    """Inline ``# tcblint: disable`` directives are not honoured any more;
    one left behind would claim a waiver that ALLOWED does not grant."""
    stale = [
        p.relative_to(PACKAGE).as_posix()
        for p in sorted(PACKAGE.rglob("*.py"))
        if "tcblint:" in p.read_text(encoding="utf-8")
    ]
    assert stale == []


def test_every_rng_entry_point_names_a_module(package):
    rels = [m.rel for m in package]
    assert all(any(fnmatch(rel, p) for rel in rels) for p in RNG_ENTRY_POINTS)
    assert fnmatch("workload/burst.py", "workload/*.py")
    assert not any(fnmatch("serving/continuous.py", p) for p in RNG_ENTRY_POINTS)


def test_a_stale_or_miscounted_allowance_fails(package_findings):
    stale = {**ALLOWED, ("TCB007", "serving/server.py"): (1, "excuses nothing")}
    assert violations(package_findings, stale) == [
        "TCB007 serving/server.py: 0 findings, ALLOWED expects 1 (excuses nothing)"
    ]
    key = ("TCB003", "serving/server.py")
    miscounted = {**ALLOWED, key: (3, ALLOWED[key][1])}
    assert violations(package_findings, miscounted) == [
        "TCB003 serving/server.py: 2 findings, ALLOWED expects 3 (TCBServer's real clock)"
    ]


def test_only_the_stopwatch_and_the_server_clock_are_waived():
    waived = sorted(rel for rule, rel in ALLOWED if rule == "TCB003")
    assert waived == ["scheduling/base.py", "serving/server.py"]


def test_only_the_stopwatch_file_imports_time():
    """No scheduler body holds a wall value: ``scheduling/base.py`` times
    every decision from outside it."""
    importers = [
        p.name
        for p in sorted((PACKAGE / "scheduling").glob("*.py"))
        if re.search(r"^\s*(import time\b|from time import)", p.read_text(), re.M)
    ]
    assert importers == ["base.py"]


def test_a_checkout_under_a_directory_named_repro_gets_the_same_verdict(
    tmp_path, package_findings
):
    copy = tmp_path / "repro" / "src" / "repro"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    seeded = copy / "serving" / "cluster.py"
    seeded.write_text(seeded.read_text() + "\nimport time\nSTART = time.perf_counter()\n")
    found = walk(parse_package(copy))
    # The copy is as clean as the real tree, but for the seeded clock.
    assert [f for f in found if f.rel != "serving/cluster.py"] == package_findings
    assert [v.split(":")[0] for v in violations(found)] == ["TCB003 serving/cluster.py"]


# One edit per rule to a real in-scope file: (rule, path, anchor, edit).
MUTANTS = [
    ("TCB001", "experiments/ablations.py",
     "            cross_attention_mask(dec_seg, enc_seg),\n",
     "            np.where(dec_seg[..., None] == enc_seg[:, None, :], 0.0, -1e9),\n"),
    ("TCB002", "serving/continuous.py",
     "    order = np.lexsort((ids, key))\n",
     "    order = np.random.permutation(n)\n"),
    ("TCB003", "scheduling/das.py",
     "        rows = []\n",
     "        import time\n        start = time.perf_counter()\n        rows = []\n"),
    ("TCB004", "model/generation.py",
     "tokens = np.full(len(rids), cfg.bos_token, dtype=np.int64)",
     'tokens = np.full(len(rids), cfg.bos_token, dtype="float32")'),
    ("TCB005", "serving/continuous.py",
     "    tenancy: Optional[TenancyPlane] = None,\n) -> list[Request]:",
     "    tenancy: Optional[TenancyPlane] = None,\n    skipped: list = [],\n) -> list[Request]:"),
    ("TCB006", "experiments/ablations.py",
     "dec_pos = np.zeros((layout.num_rows, width), dtype=np.int64)",
     "dec_pos = np.zeros((layout.num_rows, width, width), dtype=np.int64)"),
    ("TCB007", "faults/recovery.py",
     "        except BatchFailure as failure:\n",
     "        except KeyError:\n            pass\n        except BatchFailure as failure:\n"),
    ("TCB011", "faults/plan.py",
     "(int(seed), _STREAM_SCHEDULER_CRASH, 0)",
     "(int(seed), _STREAM_FAULT_PLAN, max_step)"),
]


def test_every_rule_has_a_mutant():
    assert sorted(rule for rule, *_ in MUTANTS) == sorted(RULES)


@pytest.mark.parametrize("rule,rel,anchor,edit", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_a_seeded_mutant_is_caught_by_its_rule_alone(
    package, package_findings, rule, rel, anchor, edit
):
    source = (PACKAGE / rel).read_text()
    assert source.count(anchor) == 1
    mutant = parse(source.replace(anchor, edit), rel)
    modules = [mutant if m.rel == rel else m for m in package]
    # Only the edited file's per-file findings can change.
    found = sorted(
        [f for f in package_findings if f.rel != rel and f.rule != "TCB011"]
        + file_findings(mutant)
        + tcb011_rng_stream_aliasing(modules)
    )
    rules = {v.split()[0] for v in violations(found)}
    assert rules == {rule}


# ---------------------------------------------------------------------- #
# Reachability
# ---------------------------------------------------------------------- #

# What the package is for starts here: ``python -m repro``, the repo
# benchmark, the pytest-benchmark suite and the examples.  Tests are not
# roots, and ``repro._LAZY``'s strings are not imports.
PACKAGE_ROOTS = ("cli.py", "__main__.py")
OUTSIDE_ROOTS = ("bench/*.py", "benchmarks/*.py", "examples/*.py")


def module_name(rel: str) -> str:
    """``core/layout.py`` -> ``repro.core.layout``, ``core/__init__.py`` -> ``repro.core``."""
    parts = ["repro", *rel.removesuffix(".py").split("/")]
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_names(tree: ast.AST, name: str, is_package: bool) -> set[str]:
    """Every dotted name an import in *tree*, function bodies included, may load."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = name.split(".")
                parent = parts[: len(parts) - node.level + is_package]
                base = ".".join(parent + ([base] if base else []))
            out.add(base)
            out.update(f"{base}.{a.name}" for a in node.names)
    return out


def unreached(modules: list[Module], roots: list[ast.Module]) -> list[str]:
    """Package paths of the modules no root imports, directly or through others."""
    by_name = {module_name(m.rel): m for m in modules}
    todo = [module_name(rel) for rel in PACKAGE_ROOTS]
    todo += [dotted for tree in roots for dotted in imported_names(tree, "", False)]
    seen: set[str] = set()
    while todo:
        parts = todo.pop().split(".")
        # Importing ``a.b.c`` runs ``a`` and ``a.b``'s ``__init__`` too.
        for i in range(1, len(parts) + 1):
            name = ".".join(parts[:i])
            if name in by_name and name not in seen:
                seen.add(name)
                m = by_name[name]
                todo += imported_names(m.tree, name, m.rel.endswith("__init__.py"))
    return sorted(m.rel for name, m in by_name.items() if name not in seen)


@pytest.fixture(scope="module")
def outside_roots() -> list[ast.Module]:
    return [
        ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
        for pattern in OUTSIDE_ROOTS
        for p in sorted(ROOT.glob(pattern))
    ]


def test_every_module_is_reached_from_a_root(package, outside_roots):
    assert len(outside_roots) > 30  # bench, benchmarks and examples were all found
    orphans = unreached(package, outside_roots)
    assert orphans == [], "no root imports " + ", ".join(orphans)


def test_an_orphan_module_is_caught(tmp_path, outside_roots):
    copy = tmp_path / "src" / "repro"
    shutil.copytree(PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    (copy / "core" / "orphan.py").write_text("X = 1\n")
    # Named only by a lazy export: still an orphan.
    (copy / "model" / "lazy_only.py").write_text("Y = 1\n")
    init = copy / "__init__.py"
    init.write_text(
        init.read_text().replace("_LAZY = {\n", '_LAZY = {\n    "Y": ("repro.model.lazy_only", "Y"),\n')
    )
    # Imported, relatively, inside a function of a reached module: reached.
    (copy / "core" / "late.py").write_text("Z = 1\n")
    layout = copy / "core" / "layout.py"
    layout.write_text(layout.read_text() + "\n\ndef _late():\n    from . import late\n\n    return late.Z\n")
    assert unreached(parse_package(copy), outside_roots) == ["core/orphan.py", "model/lazy_only.py"]


# ---------------------------------------------------------------------- #
# Fixture verdicts and scope
# ---------------------------------------------------------------------- #


def check_source(source: str, rel: str) -> list[Finding]:
    """Every rule over one module, which is its own project for TCB011."""
    return walk([parse(source, rel)])


# (fixture, package path it is checked as, lines its rule flags).
FIXTURE_VERDICTS = [
    ("bad_tcb001.py", "model/somewhere.py", [9, 13, 17]),
    ("bad_tcb002.py", "serving/somewhere.py", [9, 13, 14, 19]),
    # default_rng (line 19) is fine at an entry point; the global
    # seed/draw bans hold everywhere.
    ("bad_tcb002.py", "workload/somewhere.py", [9, 13, 14]),
    ("bad_tcb003.py", "serving/somewhere.py", [13, 17, 21]),
    ("bad_tcb003.py", "obs/somewhere.py", [13, 17, 21]),
    ("bad_tcb003.py", "durability/plane.py", [13, 17, 21]),
    ("bad_tcb003.py", "overload/controller.py", [13, 17, 21]),
    ("bad_tcb003.py", "faults/x.py", [13, 17, 21]),
    ("bad_tcb003.py", "experiments/somewhere.py", []),
    ("bad_tcb004.py", "core/somewhere.py", [11, 15, 19]),
    ("bad_tcb004.py", "analysis/somewhere.py", []),
    ("bad_tcb005.py", "anywhere.py", [4, 9, 14]),
    ("bad_tcb006.py", "engine/somewhere.py", [7, 11]),
    ("bad_tcb007.py", "serving/somewhere.py", [11, 18, 25]),
    ("bad_tcb007.py", "engine/somewhere.py", [11, 18, 25]),
    ("bad_tcb007.py", "faults/somewhere.py", [11, 18, 25]),
    ("bad_tcb007.py", "analysis/somewhere.py", []),
    ("bad_tcb011.py", "faults/x.py", [13, 19]),
]


@pytest.mark.parametrize(
    "fixture,rel,lines",
    FIXTURE_VERDICTS,
    ids=[f"{f[4:-3]}-{r.split('/')[0].removesuffix('.py')}" for f, r, _ in FIXTURE_VERDICTS],
)
def test_fixture_is_flagged_by_its_rule_alone(fixture, rel, lines):
    rule = "TCB" + fixture[len("bad_tcb"):-len(".py")]
    found = check_source((FIXTURES / fixture).read_text(), rel)
    assert [(f.rule, f.line) for f in found] == [(rule, n) for n in lines]


def test_aliased_stream_keys_name_each_other():
    found = check_source((FIXTURES / "bad_tcb011.py").read_text(), "faults/x.py")
    others = [re.search(r"aliases the stream consumed at (\S+);", f.message) for f in found]
    assert [m.group(1) for m in others] == ["faults/x.py:19", "faults/x.py:13"]


def test_modules_outside_the_package_are_not_walked(tmp_path):
    """TCB011's scope is the package: an aliasing key in a sibling
    ``tools/`` directory is not one of its streams."""
    copy = tmp_path / "src" / "repro"
    (copy / "faults").mkdir(parents=True)
    shutil.copy(PACKAGE / "faults" / "plan.py", copy / "faults" / "plan.py")
    (tmp_path / "src" / "tools").mkdir()
    shutil.copy(FIXTURES / "bad_tcb011.py", tmp_path / "src" / "tools" / "x.py")
    assert walk(parse_package(copy)) == []


@pytest.mark.parametrize(
    "source,rel,expected",
    [
        # Threading a Generator is the sanctioned way to draw.
        ("import numpy as np\ndef draw(rng: np.random.Generator):\n"
         "    return rng.normal(size=2)\n", "model/ok.py", []),
        # Sleeping on simulated time reaches the wall clock without a read.
        ("import time\n\ndef wait(now):\n    time.sleep(now)\n", "serving/x.py",
         [("TCB003", 4)]),
        # A handler that does something is not swallowing the failure.
        ("def f():\n    try:\n        g()\n    except ValueError:\n        return None\n",
         "serving/ok.py", []),
    ],
    ids=["generator-threading", "sleep-on-sim-time", "handled-exception"],
)
def test_inline_source(source, rel, expected):
    assert [(f.rule, f.line) for f in check_source(source, rel)] == expected


def test_docs_describe_exactly_the_registered_rules():
    """docs/statics.md has one ``### TCBnnn`` section per live rule."""
    doc = (ROOT / "docs" / "statics.md").read_text()
    headings = re.findall(r"^### (TCB\d{3})\b", doc, flags=re.M)
    assert sorted(headings) == sorted(RULES)
