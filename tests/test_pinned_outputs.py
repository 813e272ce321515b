"""CLI outputs pinned call by call.

`calls` draws a seeded list of `regularize`, `combine`, `diagonalize` and
`measure-value` calls under four measures: `uniform`, `biased:1/4`,
`biased:3/8` and the copy-rule file `COPY_MEASURE`, whose table has a
degenerate split.  Martingale files come from
`helpers.random_martingale_table`.  `pinned_outputs.json` holds each call's
exit status and stdout; the test asks that every one is reproduced byte for
byte.  A change meant to alter outputs re-records the file with

    PYTHONPATH=src python tests/test_pinned_outputs.py

and says in its description which lines moved and why.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

from cantorbet.cli import run
from cantorbet.core import Dyadic, strings_of_length
from cantorbet.martingale import RegularizedMartingale

from helpers import random_martingale_table

PINNED = Path(__file__).with_name("pinned_outputs.json")
SEED = 11
CALLS_PER_MEASURE = 80

# masses 1; 3/4, 1/4; 3/8, 3/8, 0, 1/4.  Below the table the subtrees of
# 00 and 01 split 1/2 : 1/2 and the subtree of 11 gives its 0-child nothing.
COPY_MEASURE = ("measure depth=2 ext=copy\n~ 1 0\n0 3 2\n1 1 2\n"
                "00 3 3\n01 3 3\n10 0 0\n11 1 2\nl poly 1 1\n")
_COPY_SPLITS = {"": Dyadic(3, 2), "0": Dyadic(1, 1), "1": Dyadic(0)}
MEASURES = ("uniform", "biased:1/4", "biased:3/8", "copy")


def _split(spec: str, w: str) -> Dyadic:
    """The measure's conditional probability of a 0 after w."""
    if spec == "copy":
        return _COPY_SPLITS[w[:1]] if w else _COPY_SPLITS[""]
    if spec == "uniform":
        return Dyadic(1, 1)
    num, den = spec.split(":")[1].split("/")
    return Dyadic(int(num), int(den).bit_length() - 1)


def _martingale_file(rng, spec, measure_arg, depth, shift, path):
    cond = {w: _split(spec, w)
            for n in range(depth) for w in strings_of_length(n)}
    table = random_martingale_table(rng, cond, depth, rng.randrange(3, 7))
    lines = [f"martingale measure={measure_arg} depth={depth}"]
    for w, v in sorted(table.items(), key=lambda kv: (len(kv[0]), kv[0])):
        v = v * Dyadic(1, shift)
        lines.append(f"{w or '~'} {v.mantissa} {v.precision}")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _word(rng, longest):
    n = rng.randrange(longest + 1)
    return "".join(rng.choice("01") for _ in range(n)) or "~"


def _expression(rng, depth):
    pick = rng.randrange(5) if depth else 0
    if pick == 0:
        return f"(cyl {_word(rng, 3)})"
    if pick == 1:
        return f"(compl {_expression(rng, depth - 1)})"
    if pick < 4:
        return (f"({('cap', 'cup')[pick - 2]} {_expression(rng, depth - 1)} "
                f"{_expression(rng, depth - 1)})")
    stages = [_expression(rng, depth - 1) for _ in range(rng.randrange(1, 4))]
    return f"(limit {' '.join(stages)} {rng.randrange(4)})"


def calls(folder: Path):
    """Seeded argv lists; martingale and measure files go into `folder`."""
    rng = random.Random(SEED)
    copy_path = folder / "copy.measure"
    copy_path.write_text(COPY_MEASURE)
    out = []
    for spec in MEASURES:
        measure_arg = str(copy_path) if spec == "copy" else spec
        for i in range(CALLS_PER_MEASURE):
            verb = ("regularize", "combine", "diagonalize",
                    "measure-value")[i % 4]
            if verb == "measure-value":
                out.append([verb, "--expr", _expression(rng, 3),
                            "--measure", measure_arg,
                            "--precision", str(rng.randrange(9))])
                continue
            files = [_martingale_file(
                rng, spec, measure_arg, rng.randrange(1, 5),
                rng.randrange(4) if verb == "diagonalize" else 0,
                folder / f"{spec.replace(':', '-').replace('/', '-')}"
                         f"-{i}-{k}.mg")
                for k in range(2 if verb == "combine" else 1)]
            argv = [verb]
            for f in files:
                argv += ["--file", f]
            if verb == "diagonalize":
                argv += ["--w", _word(rng, 2),
                         "--depth", str(rng.randrange(3, 11))]
                if rng.randrange(2):
                    argv += ["--margin", str(rng.randrange(9))]
            else:
                argv += ["--w", _word(rng, 7),
                         "--precision", str(rng.randrange(11))]
            out.append(argv)
    return out


def outcomes(folder: Path, argvs) -> list:
    """[argv, exit status, stdout] per call, with `folder` written {dir}."""
    rows = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        rows.append([[a.replace(str(folder), "{dir}") for a in argv],
                     code, buf.getvalue()])
    return rows


def test_pinned_outputs(tmp_path):
    want = json.loads(PINNED.read_text())
    got = outcomes(tmp_path, calls(tmp_path))
    assert len(got) == len(want) >= 300
    assert [row[0] for row in got] == [row[0] for row in want]
    diff = [(g[0], g[1:], w[1:]) for g, w in zip(got, want) if g != w]
    assert not diff, diff[:5]


def test_pinned_measure_values_build_no_regularization(tmp_path,
                                                       monkeypatch):
    # a measurement starts from the unit martingale, whose splits need no
    # regularization; the regularize verb shows that the count counts
    built = []
    init = RegularizedMartingale.__init__

    def counted(self, base, nu):
        built.append(base)
        init(self, base, nu)

    monkeypatch.setattr(RegularizedMartingale, "__init__", counted)
    argvs = calls(tmp_path)
    measured = [argv for argv in argvs if argv[0] == "measure-value"]
    assert len(measured) == 80
    outcomes(tmp_path, measured)
    assert built == []
    outcomes(tmp_path, [argvs[0]])
    assert argvs[0][0] == "regularize" and len(built) == 1


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = outcomes(Path(tmp), calls(Path(tmp)))
    PINNED.write_text("[\n" + ",\n".join(map(json.dumps, rows)) + "\n]\n")
    print(f"{len(rows)} calls recorded in {PINNED}")
