"""The public surface: every name a `cantorbet` module exports has a use
outside its own unit tests, or a stated reason in KEPT.

A name counts as used where a Python name token spells it (strings,
comments, imports, and the name a `def` or `class` introduces do not
count) in `src/`, in `perfbench/*.py`, or in the acceptance criteria and
pinned-output tests, which speak for the CLI's contract.
"""

from __future__ import annotations

import importlib
import io
import pkgutil
import tokenize
from pathlib import Path

import cantorbet

ROOT = Path(__file__).resolve().parent.parent

# Names that only unit tests call, kept because tests compare another route
# against them, several tests of other code use them as their check, or they
# are the repo's only statement of one of the paper's constructions.
KEPT = {
    "robin_hood_pipeline": "the reference route the transfer's tests hold "
                           "robin_hood_exact to",
    "initial_capital_surplus": "axiom (iii), the check of the splitting "
                               "tests across operators",
    "complete_null": "the paper's measurement of a subset of a null set",
    "union_sequence": "the paper's union of a sequence of null sets",
    "covers": "success on a prefix, the check of the regularization and "
              "splitting-axiom tests",
    "dump_measure": "the writer of the measure file format",
    "dump_martingale": "the writer of the martingale file format",
}


def used_names(path: Path) -> set[str]:
    """The name tokens of one file, leaving out import statements and the
    names that `def` and `class` introduce."""
    names, line, prev = set(), [], ""
    text = io.StringIO(path.read_text())
    for tok in tokenize.generate_tokens(text.readline):
        if tok.type == tokenize.NEWLINE:
            if line[:1] not in (["import"], ["from"]):
                names.update(line)
            line = []
        elif tok.type == tokenize.NAME and prev not in ("def", "class"):
            line.append(tok.string)
        prev = tok.string
    return names


def exported():
    for mod in pkgutil.iter_modules(cantorbet.__path__):
        module = importlib.import_module(f"cantorbet.{mod.name}")
        for name in getattr(module, "__all__", ()):
            yield mod.name, name


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
