"""The public surface: every name a `cantorbet` module exports has a use
outside its own unit tests, or a stated reason in KEPT.

Every module lists its exports in `__all__`.  A name counts as used where
code reads it, as a plain name that no enclosing function binds or as an
attribute, in `src/`, in `perfbench/*.py`, or in the acceptance criteria
and pinned-output tests, which speak for the CLI's contract.  Strings,
comments, imports and the names that `def` and `class` introduce are not
reads; nor is a function's read of its own local, such as a closure it
defines and returns under an exported name.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import cantorbet

ROOT = Path(__file__).resolve().parent.parent

# Names that only unit tests call, kept because tests compare another route
# against them, several tests of other code use them as their check, or they
# are the repo's only statement of one of the paper's constructions.
KEPT = {
    "robin_hood_pipeline": "the reference route the transfer's tests hold "
                           "robin_hood_exact to",
    "initial_capital_surplus": "axiom (iii) with slack 0, which the "
                               "splitting tests hold every operator to, "
                               "null forms included",
    "complete_null": "the paper's measurement of a subset of a null set",
    "union_sequence": "the paper's union of a sequence of null sets",
    "covers": "success on a prefix, the check of the regularization and "
              "splitting-axiom tests",
    "dump_measure": "the writer of the measure file format",
    "dump_martingale": "the writer of the martingale file format",
    "dump_oracle": "the writer of the oracle file format",
    "closure_construct": "the paper's term families, as a checker for each",
    "result_prefix": "the sequence a constructor converges to",
    "set_magnitude_cap": "the tests' handle on the magnitude cap",
}


def _bound_locally(fn: ast.FunctionDef) -> set[str]:
    """The names a function binds in its own body: its parameters, its
    assignment and loop targets, and the functions and classes it
    defines."""
    args = fn.args
    bound = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a is not None}
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        todo.extend(ast.iter_child_nodes(node))
    return bound


def used_names(path: Path) -> set[str]:
    """The names one file reads: attributes, and plain names no enclosing
    function binds."""
    names = set()

    def visit(node, local):
        if isinstance(node, ast.FunctionDef):
            local = local | _bound_locally(node)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id not in local:
                names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(ast.parse(path.read_text()), frozenset())
    return names


def modules():
    for mod in pkgutil.iter_modules(cantorbet.__path__):
        yield importlib.import_module(f"cantorbet.{mod.name}")


def exported():
    for module in modules():
        for name in getattr(module, "__all__", ()):
            yield module.__name__.removeprefix("cantorbet."), name


def test_every_module_lists_its_exports():
    assert [m.__name__ for m in modules() if not hasattr(m, "__all__")] == []


def test_every_public_name_has_a_caller_or_a_reason():
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py"),
             ROOT / "tests" / "test_acceptance.py",
             *(ROOT / "tests").glob("test_pinned_*.py")]
    used = set().union(*map(used_names, files))
    idle = [f"{mod}.{name}" for mod, name in exported()
            if name not in used and name not in KEPT]
    assert idle == [], "public names only unit tests call: " + ", ".join(idle)


def test_kept_names_are_exported():
    assert set(KEPT) <= {name for _, name in exported()}
