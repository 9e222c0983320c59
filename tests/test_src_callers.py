"""Every public name in ``src/`` has a caller outside ``tests/``, or a reason.

A function, class or method that only tests call is either a reference a
test compares against, which belongs in ``tests/``, or dead code. The scan
walks the AST of ``src/`` and collects every public (non-underscore)
top-level function and class and every public method. A name counts as
called when it appears as an identifier, an attribute or a word of a
non-docstring string literal anywhere in ``src/``, ``benchmarks/``,
``perfbench/`` or ``examples/``, outside its own definition. Comments,
docstrings and package ``__init__`` re-exports (the import statements and
``__all__``) are not callers.

The scan matches bare names, so a name that any caller uses keeps every
definition of that name alive: it under-reports dead code. Only a name
reached through a computed string (``getattr(obj, prefix + name)``)
could be flagged while live.

``KEPT`` lists the names that stay in ``src/`` with no such caller, each
with its reason. A kept entry that no longer exists, or that has gained a
real caller, fails the suite too, so the list cannot go stale.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = ("src", "benchmarks", "perfbench", "examples")

KEPT: dict[str, str] = {
    # Predicates a test uses to check a paper property.
    "EpochPlan.verify_miner": (
        "Sec. III-B: anyone re-derives a miner's shard from public epoch "
        "data; tests accept honest miners and refuse forged claims"
    ),
    "vrf_uniform": (
        "Sec. III-B: a VRF output read as a uniform draw in [0, 1); tests "
        "check its range and determinism"
    ),
    "expected_payoffs": (
        "the Eq. (14) pure-profile payoff table the equilibrium tests pin; "
        "the reference best_pure_deviation is differential-tested against"
    ),
    "enumerate_pure_nash": (
        "ground-truth pure Nash set of small merging games; tests check "
        "the dynamics against it"
    ),
    "replicator_field": (
        "Sec. V Eq. (10) replicator field; tests check its sign and zeros"
    ),
    "is_mixed_equilibrium": (
        "Sec. V equilibrium conditions at a mixed profile; tests check the "
        "dynamics' fixed points meet them"
    ),
    "PayoffSamples": "Algorithm 1's sampled payoffs, input to replicator_update",
    "PayoffSamples.average_merge_payoff": (
        "Algorithm 1's sampled merge payoff and its no-sample fallback"
    ),
    "replicator_update": (
        "Algorithm 1's discrete replicator step; tests check its direction "
        "and clamping"
    ),
    "profile_utilities": (
        "Sec. IV-B: each miner's expected payoff under a selection "
        "profile; tests check a best reply raises it"
    ),
    "is_selection_nash": (
        "Sec. IV-B: Algorithm 2 stops at a Nash equilibrium of the "
        "congestion game; tests check it does"
    ),
    "weighted_share": (
        "the block-race fee share of the weighted selection game; tests "
        "check its value and its input guards"
    ),
    "UnifiedReplay.shard_claim_consistent_with_merge": (
        "Sec. IV-C enforcement: a merged miner's shard claim must match the "
        "unified merge; the enforcement test checks a wrong claim is caught"
    ),
    "WorldState.total_supply": (
        "conservation invariant: applying transactions never mints or "
        "burns coins; state and property tests check it"
    ),
    # Oracles that read private state, so they cannot move to tests/.
    "FullNode.state_oracle_fingerprint": (
        "from-genesis replay oracle the differential tests compare the "
        "tip-delta state against; it reads the node's private genesis state"
    ),
    # Public API that only tests drive.
    "Tracer.records_named": (
        "the query over a resident trace, which refuses once records "
        "spilled; the trace tests read runs through it"
    ),
    "Campaign": (
        "Sec. III-B multi-epoch driver (re-shard and re-assign miners each "
        "epoch), exported as repro.Campaign; campaign and parity tests run it"
    ),
}

_WORD = re.compile(r"\w+")


def _docstrings(tree: ast.Module) -> set[int]:
    """Ids of the docstring constants of a module and its defs."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                found.add(id(body[0].value))
    return found


def _reexports(path: Path, tree: ast.Module) -> list[ast.stmt]:
    """A package ``__init__``'s imports and ``__all__``."""
    if path.name != "__init__.py":
        return []
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        or (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        )
    ]


def _uses(path: Path, tree: ast.Module, uses: dict) -> None:
    """Record where each identifier appears in ``tree``."""
    skipped = {id(n) for stmt in _reexports(path, tree) for n in ast.walk(stmt)}
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            words = (node.id,)
        elif isinstance(node, ast.Attribute):
            words = (node.attr,)
        elif isinstance(node, ast.alias):
            words = node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) in docstrings:
                continue
            words = _WORD.findall(node.value)
        else:
            continue
        for word in words:
            uses[word].append((path, node.lineno))


def _definitions(path: Path, tree: ast.Module) -> list[tuple[str, str, int, int]]:
    """(qualified name, bare name, first line, last line) of public defs."""
    found = []

    def visit(body, owner):
        for node in body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if not node.name.startswith("_"):
                    qualified = f"{owner}.{node.name}" if owner else node.name
                    found.append(
                        (qualified, node.name, node.lineno, node.end_lineno)
                    )
                if isinstance(node, ast.ClassDef):
                    visit(node.body, node.name)

    visit(tree.body, None)
    return found


@functools.cache
def uncalled() -> dict[str, str]:
    """``{qualified name: "file:line"}`` of public defs with no caller."""
    uses: dict[str, list] = defaultdict(list)
    defs = []
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            _uses(path, tree, uses)
            if folder == "src":
                defs.extend((path, *d) for d in _definitions(path, tree))
    dead = {}
    for path, qualified, name, first, last in defs:
        if not any(
            where != path or not first <= line <= last
            for where, line in uses.get(name, ())
        ):
            dead[qualified] = f"{path.relative_to(SRC)}:{first}"
    return dead


def test_every_public_name_has_a_caller_or_a_reason():
    unexplained = sorted(
        f"{name} ({where})"
        for name, where in uncalled().items()
        if name not in KEPT
    )
    assert not unexplained, (
        "public src/ names with no caller outside tests/ (delete them, move "
        "a test reference into tests/, or add a reason to KEPT): "
        + ", ".join(unexplained)
    )


def test_kept_entries_are_not_stale():
    dead = uncalled()
    stale = sorted(name for name in KEPT if name not in dead)
    assert not stale, (
        "KEPT names that no longer exist or now have a caller outside "
        "tests/ (drop them from KEPT): " + ", ".join(stale)
    )


def test_every_kept_entry_gives_a_reason():
    assert all(reason.strip() for reason in KEPT.values())
