"""Batch command line: one verb per kernel capability.

Exit status is the whole protocol: 0 on success, 1 when an input is
outside an operation's domain or breaks a precondition, 2 when textual
input (flags, files, expressions) does not parse, 3 when the magnitude
cap would be exceeded.  Output is deterministic text — dyadics as
``mantissa/2^precision``, bit strings verbatim with ``~`` for the empty
word — so invocations can be diffed byte for byte.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .config import check_magnitude
from .core import (
    Dyadic, bton, frac_round_at, ntob, pred, read_word, show_int, show_word,
    succ,
)
from .diagonal import capital_margin, conservation_check
from .errors import CantorbetError, DomainError, ParseError, ResourceError
from .funalg import (
    Meter, check_bound, length_functional, load_oracle, parse_secpoly,
    parse_term, restricted_length,
)
from .martingale import (
    SumMartingale, default_measure_resolver, load_martingale, regularize,
)
from .measure import load_measure
from .realfun import robin_hood_exact
from .splitting import measure_value, parse_operator

__all__ = ["build_parser", "run", "main"]


# ---------------------------------------------------------------------------
# small input/output helpers
# ---------------------------------------------------------------------------


def _show_fraction(q: Fraction) -> str:
    """Integers plainly, dyadics as m/2^k, anything else as num/den."""
    if q.denominator & (q.denominator - 1):
        return f"{show_int(q.numerator)}/{show_int(q.denominator)}"
    return Dyadic.from_fraction(q).render()


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except OSError as exc:
        raise DomainError(
            f"cannot read {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path!r} is not ASCII text (byte {exc.start})") from None


def resolve_measure(spec: str):
    """A measure spec: a built-in name, else an existing file path."""
    try:
        return default_measure_resolver(spec)
    except ParseError:
        if not os.path.exists(spec):
            raise
    return load_measure(_read_file(spec))


def _load_martingale_file(path: str, measure_spec: str | None,
                          validate: bool = True):
    text = _read_file(path)
    if measure_spec is None:
        resolver = resolve_measure
    else:
        def resolver(_header_spec):
            return resolve_measure(measure_spec)
    return load_martingale(text, resolver=resolver, validate=validate)


def _load_oracles(paths) -> tuple:
    return tuple(load_oracle(_read_file(p)) for p in paths)


def _term_source(ns) -> str:
    return ns.term if ns.term is not None else _read_file(ns.term_file)


def _margin_flag(text: str):
    return None if text == "auto" else int(text)


def _fraction_flag(text: str) -> Fraction:
    try:
        # a decimal exponent e builds 10**|e|, of more than 3.32|e| bits
        exp = re.search(r"e([-+]?[\d_]+)\s*$", text, re.IGNORECASE)
        if exp:
            Fraction(text[:exp.start(1)] + "0")   # the form, exponent 0
            check_magnitude(abs(int(exp[1])) * 332 // 100, "decimal exponent")
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid Fraction value: {text!r}") from None


# ---------------------------------------------------------------------------
# verb handlers (each prints its result and returns the exit status)
# ---------------------------------------------------------------------------


def _cmd_eval(ns) -> int:
    term = parse_term(_term_source(ns))
    if ns.print_term:
        print(term.to_sexpr())
        return 0
    oracles = _load_oracles(ns.oracle)
    args = tuple(read_word(a) for a in ns.arg)
    meter = Meter()
    print(show_word(term.evaluate(oracles, args, meter)))
    if ns.meter:
        print(f"steps={meter.steps} max_len={meter.max_len}")
    return 0


def _cmd_check_bound(ns) -> int:
    term = parse_term(_term_source(ns))
    poly = parse_secpoly(ns.poly)
    oracles = _load_oracles(ns.oracle)
    args = tuple(read_word(a) for a in ns.arg)
    print(check_bound(term, poly, oracles, args).render())
    return 0


def _cmd_length(ns) -> int:
    oracle = load_oracle(_read_file(ns.oracle))
    print(show_word(length_functional(oracle, read_word(ns.x),
                                      method=ns.method)))
    return 0


def _cmd_secpoly_eval(ns) -> int:
    poly = parse_secpoly(ns.poly)
    if any(n < 0 for n in ns.n):
        raise DomainError("the n values are lengths and must be >= 0")
    if ns.radius < 0:
        raise DomainError("radius must be >= 0")
    lengths = [restricted_length(f, ns.radius)
               for f in _load_oracles(ns.oracle)]
    print(show_int(poly.evaluate(lengths, ns.n)))
    return 0


def _cmd_verify_martingale(ns) -> int:
    d = _load_martingale_file(ns.file, ns.measure, validate=False)
    bad = d.first_identity_violation(ns.depth)
    if bad is None:
        print("ok")
        return 0
    print(f"identity fails at node {show_word(bad)}")
    return 1


def _cmd_regularize(ns) -> int:
    d = _load_martingale_file(ns.file, ns.measure)
    lam = regularize(d, d.measure)
    r = ns.precision
    print(lam.approx(r, read_word(ns.w)).render(r))
    return 0


def _cmd_rh(ns) -> int:
    s2, t2 = robin_hood_exact(ns.alpha, ns.s, ns.t)
    if ns.precision is None:
        print(f"{_show_fraction(s2)} {_show_fraction(t2)}")
    else:
        r = ns.precision
        print(f"{frac_round_at(s2, r).render(r)} "
              f"{frac_round_at(t2, r).render(r)}")
    return 0


def _cmd_measure_cylinder(ns) -> int:
    nu = resolve_measure(ns.measure)
    r = ns.precision
    print(nu.mass(read_word(ns.w)).round_at(r).render(r))
    return 0


def _cmd_combine(ns) -> int:
    if len(ns.file) != 2:
        raise ParseError("combine needs exactly two --file arguments")
    d1 = _load_martingale_file(ns.file[0], ns.measure)
    d2 = _load_martingale_file(ns.file[1], ns.measure)
    r = ns.precision
    print(SumMartingale(d1, d2).approx(r, read_word(ns.w)).render(r))
    return 0


def _cmd_measure_value(ns) -> int:
    nu = resolve_measure(ns.measure)
    op = parse_operator(ns.expr, nu)
    r = ns.precision
    print(measure_value(op, r).render(r))
    return 0


def _cmd_diagonalize(ns) -> int:
    # the walk's prefix is a string of --depth bits
    check_magnitude(ns.depth, "--depth")
    d = _load_martingale_file(ns.file, ns.measure)
    w = read_word(ns.w)
    m = capital_margin(d, w) if ns.margin is None else ns.margin
    print(conservation_check(d, d.measure, w, m, ns.depth).render())
    return 0


def _cmd_enumerate(ns) -> int:
    if ns.index is not None:
        print(show_int(bton(read_word(ns.index))))
    elif ns.word is not None:
        print(show_word(ntob(ns.word)))
    elif ns.next is not None:
        print(show_word(succ(read_word(ns.next))))
    elif ns.prev is not None:
        print(show_word(pred(read_word(ns.prev))))
    else:
        if ns.first < 0:
            raise DomainError("count must be >= 0")
        for n in range(ns.first):
            print(show_word(ntob(n)))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_term_flags(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--term", metavar="TEXT",
                   help="term in s-expression syntax")
    g.add_argument("--term-file", metavar="FILE",
                   help="file containing the term")


def _add_call_flags(p):
    p.add_argument("--oracle", action="append", default=[], metavar="FILE",
                   help="oracle table file, repeatable in slot order")
    p.add_argument("--arg", action="append", default=[], metavar="WORD",
                   help="string argument, ~ for the empty word; repeatable")


_DIGITS = r"\d+(?:_\d+)*"
_NEGATIVE_LITERAL = re.compile(
    rf"-(?=\.?\d)(?:{_DIGITS})?"
    rf"(?:/{_DIGITS}|(?:\.(?:{_DIGITS})?)?(?:e[-+]?{_DIGITS})?)\s*\Z",
    re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An argument parser that takes a token such as -8/3 for a value.

    argparse reads a token that starts with '-' as a flag unless it looks
    like -3 or -0.5, so `--s -8/3` or `--s -1e1` would lack its value.
    Here a token is a value when it has the form of a negative literal
    that `Fraction` reads (`_fraction_flag`): digits with single
    underscores between them, then a denominator, or a decimal point and
    an exponent, each optional.  Subparsers are built from the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_LITERAL


def build_parser() -> tuple[argparse.ArgumentParser,
                            dict[str, argparse.ArgumentParser]]:
    """The `cantorbet` parser, and each verb's own parser by name: the
    choices of its subparsers action."""
    parser = _Parser(
        prog="cantorbet",
        description="Exact-arithmetic toolkit for betting strategies, "
                    "measured sets and resource-bounded functionals.")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    p = sub.add_parser("eval", help="evaluate a functional term")
    _add_term_flags(p)
    _add_call_flags(p)
    p.add_argument("--print-term", action="store_true",
                   help="print the canonical form instead of evaluating")
    p.add_argument("--meter", action="store_true",
                   help="also print the step and length meters")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("check-bound",
                       help="metered evaluation against a growth bound")
    _add_term_flags(p)
    p.add_argument("--poly", required=True, metavar="TEXT",
                   help="growth expression over n<j>, L<j>(...), g<i>(...)")
    _add_call_flags(p)
    p.set_defaults(handler=_cmd_check_bound)

    p = sub.add_parser("length",
                       help="unary length bound of an oracle on a radius")
    p.add_argument("--oracle", required=True, metavar="FILE")
    p.add_argument("--x", required=True, metavar="WORD",
                   help="radius word: all queries up to |x| are covered")
    p.add_argument("--method", choices=("term", "brute"), default="term")
    p.set_defaults(handler=_cmd_length)

    p = sub.add_parser("secpoly-eval", help="evaluate a growth expression")
    p.add_argument("--poly", required=True, metavar="TEXT")
    p.add_argument("--n", action="append", type=int, default=[],
                   metavar="INT", help="value for n1, n2, ...; repeatable")
    p.add_argument("--oracle", action="append", default=[], metavar="FILE",
                   help="oracle whose length function interprets L1, L2, ...")
    p.add_argument("--radius", type=int, default=6,
                   help="radius for the oracle length functions")
    p.set_defaults(handler=_cmd_secpoly_eval)

    p = sub.add_parser("verify-martingale",
                       help="check the averaging identity of a table file")
    p.add_argument("--file", required=True, metavar="FILE")
    p.add_argument("--measure", metavar="SPEC",
                   help="override the measure named in the file header")
    p.add_argument("--depth", type=int, default=None,
                   help="only check parents shorter than this")
    p.set_defaults(handler=_cmd_verify_martingale)

    p = sub.add_parser("regularize",
                       help="value of the rebalanced martingale at a node")
    p.add_argument("--file", required=True, metavar="FILE")
    p.add_argument("--measure", metavar="SPEC")
    p.add_argument("--w", required=True, metavar="WORD")
    p.add_argument("--precision", required=True, type=int, metavar="R")
    p.set_defaults(handler=_cmd_regularize)

    p = sub.add_parser("rh", help="apply the capital transfer to a pair")
    p.add_argument("--alpha", required=True, type=_fraction_flag,
                   help="weight of the first coordinate, in (0,1)")
    p.add_argument("--s", required=True, type=_fraction_flag)
    p.add_argument("--t", required=True, type=_fraction_flag)
    p.add_argument("--precision", type=int, default=None, metavar="R",
                   help="round both results onto the 2^-R grid")
    p.set_defaults(handler=_cmd_rh)

    p = sub.add_parser("measure-cylinder", help="mass of a cylinder")
    p.add_argument("--w", required=True, metavar="WORD")
    p.add_argument("--measure", required=True, metavar="SPEC",
                   help="uniform, biased:P, or a measure file path")
    p.add_argument("--precision", required=True, type=int, metavar="R")
    p.set_defaults(handler=_cmd_measure_cylinder)

    p = sub.add_parser("combine",
                       help="canonical approximation of a sum of martingales")
    p.add_argument("--file", action="append", default=[], metavar="FILE",
                   help="martingale file; give exactly twice")
    p.add_argument("--measure", metavar="SPEC")
    p.add_argument("--w", required=True, metavar="WORD")
    p.add_argument("--precision", required=True, type=int, metavar="R")
    p.set_defaults(handler=_cmd_combine)

    p = sub.add_parser("measure-value",
                       help="measurement of a set expression at a precision")
    p.add_argument("--expr", required=True, metavar="TEXT",
                   help="(cyl w) / (compl E) / (cap E F) / (cup E F) / "
                        "(limit E0 E1 ... K)")
    p.add_argument("--measure", required=True, metavar="SPEC")
    p.add_argument("--precision", required=True, type=int, metavar="R")
    p.set_defaults(handler=_cmd_measure_value)

    p = sub.add_parser("diagonalize",
                       help="walk past the bettor and report its capital")
    p.add_argument("--file", required=True, metavar="FILE")
    p.add_argument("--measure", metavar="SPEC")
    p.add_argument("--w", default="~", metavar="WORD",
                   help="cylinder the walk enters first (default: root)")
    p.add_argument("--margin", type=_margin_flag, default=None,
                   metavar="M|auto", help="margin index (default: auto)")
    p.add_argument("--depth", type=int, default=16,
                   help="number of steps to walk and report")
    p.set_defaults(handler=_cmd_diagonalize)

    p = sub.add_parser("enumerate",
                       help="the length-then-lexicographic enumeration")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--index", metavar="WORD", help="index of a word")
    g.add_argument("--word", type=int, metavar="N", help="word at an index")
    g.add_argument("--next", metavar="WORD", help="successor of a word")
    g.add_argument("--prev", metavar="WORD", help="predecessor of a word")
    g.add_argument("--first", type=int, metavar="K",
                   help="the first K words, one per line")
    p.set_defaults(handler=_cmd_enumerate)

    return parser, sub.choices


# argparse looks up sys.stdout and sys.stderr when it prints, so one parser
# serves every call, captured streams included
_PARSER, _VERB_PARSERS = build_parser()


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run(argv) -> int:
    """Parse, dispatch, translate errors into the exit-status protocol."""
    try:
        # parsing is inside the try, as a flag's type may raise
        # ResourceError; argv[0] is then the verb.  A verb's own parser
        # reads the flags after it; the top-level parser takes every other
        # argv (none, -h, an unknown verb) and prints its usage
        verb_parser = _VERB_PARSERS.get(argv[0]) if argv else None
        if verb_parser is None:
            ns = _PARSER.parse_args(argv)
        else:
            ns = verb_parser.parse_args(argv[1:])
        # precisions and margins are sizes: refuse one past the cap before
        # any 2**size is built
        for flag in ("precision", "margin"):
            check_magnitude(getattr(ns, flag, None) or 0, f"--{flag}")
        return ns.handler(ns)
    except SystemExit as exc:
        return int(exc.code or 0)
    except CantorbetError as exc:
        print(f"{argv[0]}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else \
            3 if isinstance(exc, ResourceError) else 1


def main(argv=None) -> None:
    raise SystemExit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
