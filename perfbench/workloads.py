"""The three workloads: seeded inputs, fixture files, operations, checks.

A workload's `setup(seed, root, lap)` draws its inputs from the seed,
writes them as fixture files under `root`, and loads them through the
program's loaders, calling `lap()` between steps so that the worker can
scale set-up time block by block.  Its
`operations` turns the loaded inputs into a fixed list of operations; a
round of the benchmark runs that list once, in order.  Every operation
returns the program's output, and its check compares that output with
`reference.py` or with a property the method must have.

Operation sizes (path lengths, walk depths, nesting depths, |x|) follow a
fixed schedule; the seed draws everything else (bits, measures, strategies,
words, precisions, oracle tables).  Fixing the schedule keeps the cost mix
of a round the same from seed to seed, which is what makes the timings
comparable between runs.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
from fractions import Fraction

from cantorbet import cli, diagonal, funalg, martingale, measure, splitting
from cantorbet.martingale import Martingale

import reference as ref

SHARES = (Fraction(1, 4), Fraction(3, 8), Fraction(1, 2), Fraction(5, 8),
          Fraction(3, 4))
FRACTIONS = (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2),
             Fraction(3, 4))
BUILTIN = (("uniform", Fraction(1, 2)), ("biased:1/4", Fraction(1, 4)),
           ("biased:3/8", Fraction(3, 8)))


class Op:
    """One operation: `run()` calls the program, `check(out)` judges it.

    `fault` marks an operation kept because a known fault makes it fail;
    its failure is counted but does not make the run incorrect.
    """

    __slots__ = ("kind", "run", "check", "fault")

    def __init__(self, kind, run, check, fault=False):
        self.kind = kind
        self.run = run
        self.check = check
        self.fault = fault


def _bits(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


def _frac(d) -> Fraction:
    """A Dyadic as a Fraction, from its fields (no program call)."""
    return Fraction(d.mantissa, 1 << d.precision)


def _write(path, text):
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _read(path):
    with open(path, encoding="ascii") as fh:
        return fh.read()


def _schedule(lo, hi, count):
    """`count` sizes spread evenly over [lo, hi]."""
    if count == 1:
        return [lo]
    return [lo + round((hi - lo) * i / (count - 1)) for i in range(count)]


def random_measure_table(rng, depth):
    """Masses to `depth` from random dyadic splits (all shares in SHARES)."""
    table = {"": Fraction(1)}
    for n in range(depth):
        for i in range(1 << n):
            w = format(i, f"0{n}b") if n else ""
            c = rng.choice(SHARES)
            table[w + "0"] = table[w] * c
            table[w + "1"] = table[w] * (1 - c)
    return table


def measure_file_text(table, depth, ext):
    lines = [f"measure depth={depth} ext={ext}"]
    for n in range(depth + 1):
        for i in range(1 << n):
            w = format(i, f"0{n}b") if n else ""
            m = table[w]
            k = m.denominator.bit_length() - 1
            lines.append(f"{w or '~'} {m.numerator} {k}")
    # every share is at least 1/4, so each mass at depth n is >= 4^-n
    lines.append("l poly 0 2")
    return "\n".join(lines) + "\n"


def call_cli(argv):
    """`cli.run` in-process, with its standard streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def _deep_nesting_check(expected_stdout):
    """Done when the value is right, or on exit 2 with a one-line message."""
    def check(out):
        if isinstance(out, BaseException):
            return False
        rc, stdout, stderr = out
        if rc == 0:
            return stdout == expected_stdout
        return rc == 2 and stdout == "" and stderr.count("\n") == 1
    return check


# ---------------------------------------------------------------------------
# walk: regularization and diagonalization through the library
# ---------------------------------------------------------------------------


class FractionBettor(Martingale):
    """Stakes a fixed fraction of its capital on the next bit being 0.

    `share(u)` is the measure's 0-child conditional at u.  With `stop_at`
    set, the bettor stops betting once its capital reaches that level.
    """

    def __init__(self, fraction, capital, nu, share, stop_at=None):
        self.measure = nu
        self._f = Fraction(fraction)
        self._share = share
        self._stop = stop_at
        self._memo = {"": Fraction(capital)}

    def value(self, w: str) -> Fraction:
        memo = self._memo
        if w in memo:
            return memo[w]
        k = len(w) - 1
        while w[:k] not in memo:
            k -= 1
        v = memo[w[:k]]
        f = self._f
        for i in range(k, len(w)):
            if self._stop is None or v < self._stop:
                if w[i] == "0":
                    v = v * (1 - f + f / self._share(w[:i]))
                else:
                    v = v * (1 - f)
            memo[w[:i + 1]] = v
        return v


def _share_fn(model):
    cache = {}

    def share(u):
        a = cache.get(u)
        if a is None:
            a = cache[u] = model.conditional(u)
        return a
    return share


def random_martingale_table(rng, model, depth, capital):
    """A dyadic table obeying the averaging identity under `model`.

    At a node with capital d and share a/2^k the children are
    (d - (2^k - a) y, d + a y) for a dyadic y with |y| <= d 2^-k, which
    keeps both children >= 0 and the identity exact.
    """
    vals = {"": capital}
    for n in range(depth):
        for i in range(1 << n):
            w = format(i, f"0{n}b") if n else ""
            d = vals[w]
            c = model.conditional(w)
            a, two_k = c.numerator, c.denominator
            y = d * Fraction(rng.randrange(-16, 17), 16 * two_k)
            vals[w + "0"] = d - (two_k - a) * y
            vals[w + "1"] = d + a * y
    return vals


def martingale_file_text(vals, depth, spec):
    lines = [f"martingale measure={spec} depth={depth}"]
    for n in range(depth + 1):
        for i in range(1 << n):
            w = format(i, f"0{n}b") if n else ""
            v = vals[w]
            k = v.denominator.bit_length() - 1
            lines.append(f"{w or '~'} {v.numerator} {k}")
    return "\n".join(lines) + "\n"


# A bettor under biased:3/8 whose regularized capital is pinned at exactly 1
# at node 0, where the base then drops below 0 on one side.
CLAMP_TABLE = """martingale measure=biased:3/8 depth=2
~ 1 1
0 9 3
1 1 3
00 12525047 22
01 34719 22
10 1 3
11 1 3
"""


class Walk:
    TABLE_DEPTH = 10
    TABLES_PER_MEASURE = 2
    # conservation_check walks per round: 60 spread evenly over 10..20
    # steps, then 24 of 24 steps, a group large enough to hold the 90th
    # percentile (only the longest approx and value queries cost more)
    WALK_DEPTHS = _schedule(10, 20, 60) + [24] * 24
    PATHS = 8                   # long paths, each queried by value and approx
    PATH_BITS = (100, 300)

    def setup(self, seed, root, lap):
        rng = random.Random(seed)
        copy_table = random_measure_table(rng, 4)
        copy_path = os.path.join(root, "copy.measure")
        _write(copy_path, measure_file_text(copy_table, 4, "copy"))
        specs = [s for s, _ in BUILTIN] + [copy_path]
        models = [ref.MeasureModel.coin(p) for _, p in BUILTIN]
        models.append(ref.MeasureModel(copy_table, 4, ("copy",)))

        def resolver(spec):
            if spec == copy_path:
                return measure.load_measure(_read(copy_path))
            return martingale.default_measure_resolver(spec)

        measures = [resolver(s) for s in specs]
        tables = []
        for k, (spec, model) in enumerate(zip(specs, models)):
            for j in range(self.TABLES_PER_MEASURE):
                capital = Fraction(rng.randrange(1, 9), 64)
                vals = random_martingale_table(rng, model, self.TABLE_DEPTH,
                                               capital)
                path = os.path.join(root, f"table{k}{j}.martingale")
                _write(path, martingale_file_text(vals, self.TABLE_DEPTH,
                                                  spec))
                d = martingale.load_martingale(_read(path), resolver=resolver)
                tables.append((k, d, vals))
                lap()
        path = os.path.join(root, "clamp.martingale")
        _write(path, CLAMP_TABLE)
        clamp = martingale.load_martingale(_read(path))
        return {"rng": rng, "models": models, "measures": measures,
                "tables": tables, "clamp": clamp}

    def operations(self, ctx):
        rng, models, measures = ctx["rng"], ctx["models"], ctx["measures"]
        tables = ctx["tables"]
        shares = [_share_fn(m) for m in models]
        ops = []
        for j, depth in enumerate(self.WALK_DEPTHS):
            k = (j // 2) % len(models)
            if j % 2:
                mine = [t for t in tables if t[0] == k]
                _, d, vals = mine[(j // 8) % len(mine)]
                top = self.TABLE_DEPTH

                def make(d=d):
                    return d

                def base(u, vals=vals, top=top):
                    return vals[u[:top]]
            else:
                f = FRACTIONS[(j // 8) % len(FRACTIONS)]
                c = Fraction(rng.randrange(1, 9), 64)
                nu, share = measures[k], shares[k]

                def make(f=f, c=c, nu=nu, share=share):
                    return FractionBettor(f, c, nu, share)

                base = make().value
            root = base("")
            words = [w for w in ("", "0", "1", "00", "01", "10", "11")
                     if models[k].mass(w) > root]
            w = rng.choice(words)
            ops.append(self._walk_op(make, measures[k], models[k], base, w,
                                     depth))
        for i, n in enumerate(_schedule(*self.PATH_BITS, self.PATHS)):
            k = i % len(models)
            f = FRACTIONS[i % len(FRACTIONS)]
            c = Fraction(1, 1 << (6 + 2 * i))   # sets where the bettor stops
            w = _bits(rng, n)
            r = rng.randrange(8, 33)

            def make(f=f, c=c, nu=measures[k], share=shares[k]):
                return FractionBettor(f, c, nu, share, stop_at=1)

            ops.append(self._value_op(make, measures[k], models[k], w))
            ops.append(self._approx_op(make, measures[k], models[k], w, r))
        ops.append(self._clamp_fault_op(ctx["clamp"]))
        return ops

    @staticmethod
    def _walk_op(make, nu, model, base, w, depth):
        def run():
            lam = martingale.regularize(make(), nu)
            m = diagonal.capital_margin(lam, w)
            return m, diagonal.conservation_check(lam, nu, w, m, depth)

        def check(out):
            m, rep = out
            bits = rep.prefix
            if len(bits) < depth or len(rep.steps) != depth:
                return False
            if not bits.startswith(w[:depth]):
                return False
            path = ref.regularized_path(base, model, bits[:depth])
            worst = max(path[i][0] for i in range(len(w) + 1))
            if not (1 - Fraction(2, 1 << m) >= worst
                    and (m == 0 or 1 - Fraction(4, 1 << m) < worst)):
                return False        # m is not the least margin
            for i, step in enumerate(rep.steps):
                a = i + m + 2
                taken, other = path[i + 1]
                if step.index != i or step.bit != bits[i]:
                    return False
                if step.capital.precision > a:
                    return False
                if abs(_frac(step.capital) - taken) > Fraction(1, 1 << a):
                    return False
                if taken >= 1:
                    return False
                if i >= len(w) and taken > other + Fraction(2, 1 << a):
                    return False
            return True

        return Op("walk", run, check)

    @staticmethod
    def _value_op(make, nu, model, w):
        want = []

        def run():
            return martingale.regularize(make(), nu).value(w)

        def check(out):
            if not want:
                want.append(ref.regularized_path(make().value, model, w)[-1][0])
            return out == want[0]

        return Op("value", run, check)

    @staticmethod
    def _approx_op(make, nu, model, w, r):
        want = []

        def run():
            return martingale.regularize(make(), nu).approx(r, w)

        def check(out):
            if not want:
                want.append(ref.regularized_path(make().value, model, w)[-1][0])
            return (out.precision <= r
                    and abs(_frac(out) - want[0]) <= Fraction(1, 1 << r))

        return Op("approx", run, check)

    @staticmethod
    def _clamp_fault_op(table):
        """RegularizedMartingale.approx clamps negative transfer inputs to 0
        even where the exact transfer point has mean exactly 1; on this
        table approx(5, "00") is 34/2^5 while value("00") is 1."""
        model = ref.MeasureModel.coin(Fraction(3, 8))
        vals = {w: Fraction(int(m), 1 << int(k)) for w, m, k in
                (line.split() for line in CLAMP_TABLE.splitlines()[1:])}
        vals[""] = vals.pop("~")

        def run():
            return martingale.regularize(table, table.measure).approx(5, "00")

        def check(out):
            want = ref.regularized_path(lambda u: vals[u[:2]], model,
                                        "00")[-1][0]
            return (out.precision <= 5
                    and abs(_frac(out) - want) <= Fraction(1, 1 << 5))

        return Op("clamp-fault", run, check, fault=True)


# ---------------------------------------------------------------------------
# setalg: measure-value through the CLI
# ---------------------------------------------------------------------------


class Setalg:
    # expressions per nesting depth 0..7; the median lands inside depth 4
    PER_DEPTH = (12, 12, 12, 12, 16, 16, 16, 16)
    WORD = 2                    # bits per cylinder word
    DEEP = 3000                 # nesting of the kept deep-compl expression

    def setup(self, seed, root, lap):
        rng = random.Random(seed)
        table = random_measure_table(rng, 3)
        path = os.path.join(root, "copy.measure")
        _write(path, measure_file_text(table, 3, "copy"))
        choices = [(s, ref.MeasureModel.coin(p)) for s, p in BUILTIN]
        choices.append((path, ref.MeasureModel(table, 3, ("copy",))))
        items = []
        for depth, count in enumerate(self.PER_DEPTH):
            for i in range(count):
                spec, model = choices[i % len(choices)]
                items.append((self._expr(rng, depth), spec, model,
                              rng.randrange(4, 13)))
        _write(os.path.join(root, "expressions.txt"),
               "".join(f"{spec} {r} {ref.expr_text(e)}\n"
                       for e, spec, _, r in items))
        file_measure = measure.load_measure(_read(path))
        nus = {s: martingale.default_measure_resolver(s) for s, _ in BUILTIN}
        nus[path] = file_measure
        for e, spec, _, _ in items:
            splitting.parse_operator(ref.expr_text(e), nus[spec])
        return {"items": items}

    def _expr(self, rng, depth):
        """A spine of `depth` operators over cylinder leaves.

        A third of the levels, drawn at random, are complements; from
        depth 4 on, the innermost binary level is a limit.  Every other
        level is binary, and is the costly connective for its polarity
        (cup under an even number of complements, cap under an odd
        number), with the deeper operand on the left and right in turn.
        So nesting depth, not the draw, sets an expression's cost.
        """
        kinds = ["bin"] * depth
        for i in rng.sample(range(depth), depth // 3):
            kinds[i] = "compl"
        if depth >= 4:
            kinds[max(i for i, k in enumerate(kinds) if k == "bin")] = "limit"
        heads, positive = [], True
        for kind in kinds:
            if kind == "compl":
                positive = not positive
                heads.append("compl")
            elif kind == "limit":
                heads.append("limit")
            else:
                heads.append("cup" if positive else "cap")
        e = ("cyl", _bits(rng, self.WORD))
        for level, head in reversed(list(enumerate(heads))):
            leaf = ("cyl", _bits(rng, self.WORD))
            if head == "compl":
                e = ("compl", e)
            elif head == "limit":
                e = ("limit", [leaf, e], 1)
            elif level % 2:
                e = (head, leaf, e)
            else:
                e = (head, e, leaf)
        return e

    def operations(self, ctx):
        ops = [self._value_op(e, spec, model, r)
               for e, spec, model, r in ctx["items"]]
        ops.append(self._deep_op())
        return ops

    @staticmethod
    def _value_op(e, spec, model, r):
        argv = ["measure-value", "--expr", ref.expr_text(e), "--measure", spec,
                "--precision", str(r)]
        want = []

        def run():
            return call_cli(argv)

        def check(out):
            rc, stdout, _ = out
            m = re.fullmatch(r"(-?\d+)/2\^(\d+)\n", stdout)
            if rc != 0 or not m or int(m.group(2)) != r:
                return False
            if not want:
                want.append(ref.set_measure(e, model))
            return abs(Fraction(int(m.group(1)), 1 << r) - want[0]) \
                <= Fraction(1, 1 << r)

        return Op("measure-value", run, check)

    def _deep_op(self):
        """splitting._parse_sexpr recurses once per nesting level."""
        text = "(compl " * self.DEEP + "(cyl 0)" + ")" * self.DEEP
        argv = ["measure-value", "--expr", text, "--measure", "uniform",
                "--precision", "4"]
        # an even number of complements leaves (cyl 0), of mass 1/2
        return Op("deep-compl", lambda: call_cli(argv),
                  _deep_nesting_check("8/2^4\n"), fault=True)


# ---------------------------------------------------------------------------
# algebra: eval --meter, check-bound and length through the CLI
# ---------------------------------------------------------------------------


def _word(w):
    return w if w else "~"


class Algebra:
    QUERY_BITS = 8              # oracle tables cover queries up to this
    ANSWER_BITS = 8
    # |x| per oracle for the lrn form and for the br form.  Sorted by
    # cost, the operations fall in groups (lrn 2, lrn 4, br 2 with lrn 6,
    # br 3, lrn 8, br 4, br 5) sized so that the median and the 90th
    # percentile land inside a group rather than on a step between two.
    LRN_X = (2,) * 8 + (4,) * 8 + (6,) * 5 + (8,) * 3
    BR_X = (5,) * 10 + (4,) * 5 + (3,) * 5 + (2,) * 4
    ORACLES = len(LRN_X)
    DEEP = 3000

    def setup(self, seed, root, lap):
        rng = random.Random(seed)
        terms = {"lrn": funalg.length_term().to_sexpr(),
                 "br": funalg.length_term(space_pure=True).to_sexpr()}
        paths = {}
        for name, text in terms.items():
            paths[name] = os.path.join(root, f"length-{name}.term")
            _write(paths[name], text + "\n")
        oracles = []
        for i in range(self.ORACLES):
            # answer lengths follow a fixed pattern per oracle, because the
            # br form's cost grows with them; the seed draws the bits
            table = {}
            for k in range((2 << self.QUERY_BITS) - 1):
                q = bin(k + 1)[3:]
                table[q] = _bits(rng, (5 * k + i) % (self.ANSWER_BITS + 1))
            default = "1" * (i % 4)
            path = os.path.join(root, f"oracle{i}.txt")
            _write(path, "".join(f"{_word(q)} {_word(a)}\n"
                                 for q, a in table.items())
                   + f"default {_word(default)}\n")
            funalg.load_oracle(_read(path))
            oracles.append((path, table, default))
            lap()
        for path in paths.values():
            funalg.parse_term(_read(path))
        for text in ref.BOUNDS:
            funalg.parse_secpoly(text)
        return {"rng": rng, "terms": paths, "oracles": oracles}

    def operations(self, ctx):
        rng, terms = ctx["rng"], ctx["terms"]
        bounds = list(ref.BOUNDS)
        meters = {}
        ops = []
        for i, (path, table, default) in enumerate(ctx["oracles"]):
            xs = {"lrn": _bits(rng, self.LRN_X[i]),
                  "br": _bits(rng, self.BR_X[i])}
            poly = bounds[i % len(bounds)]
            for form in ("lrn", "br"):
                ops.append(self._eval_op(terms[form], path, table, default,
                                         xs[form], meters, (i, form)))
            for form in ("lrn", "br"):
                ops.append(self._bound_op(terms[form], poly, path, table,
                                          default, xs[form], meters,
                                          (i, form)))
            ops.append(self._length_op(path, table, default, xs["lrn"]))
        ops.append(self._deep_op())
        return ops

    @staticmethod
    def _ones(table, default, x):
        n = ref.longest_answer(table, default, len(x))
        return _word("1" * n) + "\n"

    def _eval_op(self, term, oracle, table, default, x, meters, key):
        argv = ["eval", "--term-file", term, "--oracle", oracle,
                "--arg", _word(x), "--meter"]
        want = self._ones(table, default, x)

        def check(out):
            rc, stdout, _ = out
            lines = stdout.splitlines(keepends=True)
            if rc != 0 or len(lines) != 2 or lines[0] != want:
                return False
            m = re.fullmatch(r"steps=(\d+) max_len=(\d+)\n", lines[1])
            if not m:
                return False
            steps, max_len = int(m.group(1)), int(m.group(2))
            meters[key] = (steps, max_len)
            return max_len >= len(want.rstrip("~\n")) and steps > 0

        return Op("eval", lambda: call_cli(argv), check)

    def _bound_op(self, term, poly, oracle, table, default, x, meters, key):
        argv = ["check-bound", "--term-file", term, "--poly", poly,
                "--oracle", oracle, "--arg", _word(x)]
        n = len(x)
        allowed = ref.BOUNDS[poly](
            lambda k: ref.longest_answer(table, default, min(k, n)), n)
        pat = re.compile(r"steps=(\d+) max_len=(\d+) allowed=(\d+) "
                         r"radius=(\d+) (within|VIOLATED)\n")

        def check(out):
            rc, stdout, _ = out
            m = pat.fullmatch(stdout)
            if rc != 0 or not m:
                return False
            steps, max_len, got, radius = (int(g) for g in m.groups()[:4])
            if got != allowed or radius != n:
                return False
            if key in meters and meters[key] != (steps, max_len):
                return False
            within = steps <= allowed and max_len <= allowed
            return (m.group(5) == "within") == within

        return Op("check-bound", lambda: call_cli(argv), check)

    def _length_op(self, oracle, table, default, x):
        argv = ["length", "--oracle", oracle, "--x", _word(x)]
        want = self._ones(table, default, x)

        def check(out):
            rc, stdout, _ = out
            return rc == 0 and stdout == want

        return Op("length", lambda: call_cli(argv), check)

    def _deep_op(self):
        """funalg._parse_term recurses once per nesting level."""
        text = "(succ " * self.DEEP + "(proj 0)" + ")" * self.DEEP
        argv = ["eval", "--term", text, "--arg", "0"]
        # "0" has index 1 in the length-then-lexicographic order
        want = bin(1 + self.DEEP + 1)[3:] + "\n"
        return Op("deep-succ", lambda: call_cli(argv),
                  _deep_nesting_check(want), fault=True)


WORKLOADS = {"walk": Walk, "setalg": Setalg, "algebra": Algebra}
