"""Term evaluation pinned call by call.

`pinned_terms.json` holds a list of `eval --meter`, `check-bound` and
`length` calls with the exit status, stdout and stderr each one gave.  The
calls cover:

* terms drawn from the `_term_calls` strategy of `test_cli.py` under a fixed
  Hypothesis seed, each run through `eval --meter` and `check-bound`;
* both forms of `funalg.length_term` (recursion on notation, and numeric
  recursion only) on seeded table oracles, through `eval --meter`,
  `check-bound` and `length`;
* `lrn` and `br` bounds that fail (exit 1), among them `br` bounds that
  only the length-then-lexicographic order of numerals passes;
* `pad`, `smash` and `br`-counter sizes past the magnitude cap (exit 3).

Oracle files are written from `SEED` by `oracle_files`; the argv lists name
them as `{dir}/oracleN.orc`.  The test asks that every call is reproduced
byte for byte.  A change meant to alter these outputs re-records the file
with

    PYTHONPATH=src python tests/test_pinned_terms.py

and says in its description which calls moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from cantorbet.cli import run

PINNED = Path(__file__).with_name("pinned_terms.json")
SEED = 12
ORACLES = 8
TERM_EXAMPLES = 200


def _bits(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


def oracle_files(folder: Path) -> list[str]:
    """Seeded table oracles: queries up to 4 bits, answers up to 6 bits."""
    rng = random.Random(SEED)
    paths = []
    for i in range(ORACLES):
        lines = []
        for n in range(5):
            for k in range(1 << n):
                if rng.randrange(3):
                    q = format(k, f"0{n}b") if n else "~"
                    lines.append(f"{q} {_bits(rng, rng.randrange(7)) or '~'}")
        lines.append(f"default {_bits(rng, rng.randrange(4)) or '~'}")
        path = folder / f"oracle{i}.orc"
        path.write_text("\n".join(lines) + "\n")
        paths.append(str(path))
    return paths


def outcomes(folder: Path, argvs) -> list:
    """[argv, exit status, stdout, stderr] per call; argv keeps {dir}."""
    oracle_files(folder)
    rows = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([a.replace("{dir}", str(folder)) for a in argv])
        rows.append([argv, code, out.getvalue(), err.getvalue()])
    return rows


def test_pinned_terms(tmp_path):
    want = json.loads(PINNED.read_text())
    assert len(want) >= 400
    assert {row[1] for row in want} == {0, 1, 3}
    got = outcomes(tmp_path, [row[0] for row in want])
    diff = [(g[0], g[1:], w[1:]) for g, w in zip(got, want) if g != w]
    assert not diff, diff[:5]


# ---------------------------------------------------------------------------
# the calls, drawn when the file is recorded
# ---------------------------------------------------------------------------

# failing bounds.  The br bounds compare numerals: "1" (index 2) lies below
# "00" (index 3) in the length-then-lexicographic order but above it in
# plain lexicographic order, and likewise "11" (6) below "000" (7).
_VIOLATIONS = [
    ("(lrn (const) (s1 (proj 1 2)) (expand (const) 0 1))", ["01"]),
    ("(lrn (const) (s1 (proj 1 2)) (pred (proj 0)))", ["0110"]),
    ("(lrn (proj 0) (s0 (proj 2 3)) (proj 0 2))", ["1", "10"]),
    ("(lrn (expand (const) 1 0) (comp (expand (s1) 1 0) (expand (proj 1 2) 1 0))"
     " (oracle 0))", None),
    ("(br (const) (succ (proj 1 2)) (expand (const) 0 1))", ["0"]),
    ("(br (const) (succ (succ (proj 1 2))) (proj 0))", ["1"]),
    ("(br (proj 0) (s1 (proj 2 3)) (s0 (proj 1 2)))", ["0", "11"]),
    ("(br (proj 0) (succ (proj 2 3)) (smash (proj 0 2) (proj 1 2)))",
     ["1", "0101"]),
]

# the bound holds only in the length-then-lexicographic order
_ORDER_CASES = [
    ("(br (const) (s1 (proj 1 2)) (s0 (s0 (proj 0))))", ["0"]),
    ("(br (s1 (proj 0)) (proj 2 3) (s0 (s0 (proj 0 2))))", ["~", "1"]),
    ("(br (s1 (s1 (proj 0))) (proj 2 3) (s0 (s0 (s0 (proj 0 2)))))",
     ["~", "10"]),
]

_CAP_HITS = [
    ("(pad 1)", ["1" * 1100]),
    ("(pad 2)", ["0" * 40]),
    ("(comp (pad 1) (pad 1))", ["1" * 40]),
    ("(smash (pad 1) (pad 1))", ["0" * 33]),
    ("(br (const) (proj 1 2) (proj 0))", ["1" * 21]),
    ("(br (const) (succ (proj 1 2)) (succ (proj 0)))", ["0" * 25]),
]


def _poly(rng, k, l):
    """A growth bound naming only the variables the call binds."""
    parts = [str(rng.randrange(1, 40))]
    parts += [f"n{j + 1}" for j in range(l) if rng.randrange(2)]
    if l:
        parts += [f"L{i + 1}(n1)" for i in range(k) if rng.randrange(2)]
    text = " + ".join(parts)
    return f"g1({text}) + 9" if rng.randrange(2) else text


def _term_argvs(rng, oracles):
    from hypothesis import Phase, given, seed, settings

    from test_cli import _term_calls

    drawn = []

    @seed(SEED)
    @settings(max_examples=TERM_EXAMPLES, deadline=None, database=None,
              phases=[Phase.generate])
    @given(_term_calls())
    def collect(call):
        if call not in drawn:
            drawn.append(call)

    collect()
    argvs = []
    for text, flags in drawn:
        flags = [rng.choice(oracles) if f == "ORACLE" else f for f in flags]
        k, l = flags.count("--oracle"), flags.count("--arg")
        argvs.append(["eval", "--term", text, *flags, "--meter"])
        argvs.append(["check-bound", "--term", text,
                      "--poly", _poly(rng, k, l), *flags])
    return argvs


def _length_argvs(rng, oracles):
    from cantorbet.funalg import length_term

    forms = [length_term().to_sexpr(), length_term(space_pure=True).to_sexpr()]
    argvs = []
    for path in oracles:
        for longest in (4, 3):
            x = _bits(rng, rng.randrange(longest + 1)) or "~"
            for form in forms:
                flags = ["--oracle", path, "--arg", x]
                argvs.append(["eval", "--term", form, *flags, "--meter"])
                argvs.append(["check-bound", "--term", form,
                              "--poly", _poly(rng, 1, 1), *flags])
            argvs.append(["length", "--oracle", path, "--x", x])
    return argvs


def _fixed_argvs(oracles):
    argvs = []
    for text, args in _VIOLATIONS + _ORDER_CASES + _CAP_HITS:
        flags = []
        if args is None:
            flags, args = ["--oracle", oracles[0]], ["0110"]
        for a in args:
            flags += ["--arg", a]
        argvs.append(["eval", "--term", text, *flags, "--meter"])
    return argvs


def calls(oracles) -> list:
    rng = random.Random(SEED)
    return (_term_argvs(rng, oracles) + _length_argvs(rng, oracles)
            + _fixed_argvs(oracles))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        names = [p.replace(tmp, "{dir}") for p in oracle_files(folder)]
        rows = outcomes(folder, calls(names))
    PINNED.write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n")
    print(f"{len(rows)} calls recorded in {PINNED}")
