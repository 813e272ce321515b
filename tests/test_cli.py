"""Command-line front end: exit statuses, output text, round trips."""

import argparse
import contextlib
import io
import json
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cantorbet.calibration import EVALUATOR_MARGIN
from cantorbet.cli import (
    _Parser, _fraction_flag, build_parser, resolve_measure, run,
)
from cantorbet.config import MAX_NESTING, set_magnitude_cap
from cantorbet.core import Dyadic, strings_of_length, strings_shorter_than
from cantorbet.errors import ResourceError
from cantorbet.funalg import parse_term
from cantorbet.martingale import (
    SumMartingale, TableMartingale, dump_martingale, load_martingale,
    regularize,
)
from cantorbet.measure import (
    PositivityWitness, ProbabilityMeasure, dump_measure, uniform,
)

from helpers import (
    BUILTIN_MEASURES, SHALLOW_WITNESS_MEASURE, growth_expressions,
    measure_files, nesting_shapes, ref, set_expressions, terms,
)


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def doubling_table():
    return {"": Dyadic(1, 0),
            "0": Dyadic(3, 1), "1": Dyadic(1, 1),
            "00": Dyadic(2, 0), "01": Dyadic(1, 0),
            "10": Dyadic(3, 2), "11": Dyadic(1, 2)}


@pytest.fixture
def good_mg(tmp_path):
    d = TableMartingale(doubling_table(), 2, uniform())
    path = tmp_path / "good.mg"
    path.write_text(dump_martingale(d, "uniform"))
    return str(path)


@pytest.fixture
def bad_mg(tmp_path):
    text = dump_martingale(TableMartingale(doubling_table(), 2, uniform()),
                           "uniform").replace("01 1 0", "01 3 2")
    path = tmp_path / "bad.mg"
    path.write_text(text)
    return str(path)


@pytest.fixture
def poor_mg(tmp_path):
    """Capital 1/4 everywhere, so a walk has room below 1."""
    path = tmp_path / "poor.mg"
    path.write_text("martingale measure=uniform depth=0\n~ 1 2\n")
    return str(path)


@pytest.fixture
def small_oracle(tmp_path):
    path = tmp_path / "table.orc"
    path.write_text("~ 11\n0 10110\n01 1\ndefault 0\n")
    return str(path)


# -- spec'd examples -------------------------------------------------------


def test_measure_cylinder_uniform():
    assert cli("measure-cylinder", "--w", "01", "--measure", "uniform",
               "--precision", "6") == (0, "16/2^6\n", "")


def test_rh_balanced_pair():
    assert cli("rh", "--alpha", "1/2", "--s", "3", "--t", "1") == (0, "2 2\n", "")


def test_rh_shows_a_non_dyadic_output_as_num_den():
    assert cli("rh", "--alpha", "1/3", "--s", "2", "--t", "1/3") == \
        (0, "1 5/6\n", "")


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples():
    """(argv, printed lines) for each `$ cantorbet ...` line of the README:
    the lines after it, up to the next command or the end of the block."""
    examples, current = [], None
    for line in README.read_text().splitlines():
        if line.startswith("$ cantorbet "):
            current = (shlex.split(line)[2:], [])
            examples.append(current)
        elif line.startswith("```"):
            current = None
        elif current is not None:
            current[1].append(line)
    return examples


def test_readme_examples_print_what_the_readme_shows():
    examples = _readme_examples()
    assert len(examples) >= 5
    for argv, lines in examples:
        code, out, _ = cli(*argv)
        assert (code, out.splitlines()) == (0, lines), argv


def test_verify_martingale_names_offender(bad_mg):
    code, out, err = cli("verify-martingale", "--file", bad_mg,
                         "--measure", "uniform", "--depth", "8")
    assert code == 1
    assert "0" in out and "fails" in out


# -- eval / terms ----------------------------------------------------------


def test_eval_with_oracle_and_meter(small_oracle):
    code, out, err = cli("eval", "--term", "(ap)", "--oracle", small_oracle,
                         "--arg", "0", "--meter")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "10110"
    assert lines[1].startswith("steps=") and "max_len=5" in lines[1]


def test_eval_empty_result_renders_tilde(small_oracle):
    code, out, _ = cli("eval", "--term", "(pred)", "--arg", "0")
    assert (code, out) == (0, "~\n")


def test_eval_print_term_round_trips():
    text = "(lrn (const) (succ (proj 1 2)) (proj 0))"
    code, out, _ = cli("eval", "--term", text, "--print-term")
    assert code == 0
    assert parse_term(out.strip()) == parse_term(text)


def test_eval_term_file(tmp_path, small_oracle):
    f = tmp_path / "t.term"
    f.write_text("(ap)\n")
    code, out, _ = cli("eval", "--term-file", str(f),
                       "--oracle", small_oracle, "--arg", "01")
    assert (code, out) == (0, "1\n")


def test_eval_rejects_both_term_sources(tmp_path):
    f = tmp_path / "t.term"
    f.write_text("(succ)")
    code, _, _ = cli("eval", "--term", "(succ)", "--term-file", str(f))
    assert code == 2


def test_check_bound_within(small_oracle):
    code, out, _ = cli("check-bound", "--term", "(smash (proj 0 2) (proj 1 2))",
                       "--poly", "g1(n1 + n2) + 8",
                       "--arg", "111", "--arg", "11")
    assert code == 0
    assert out.strip().endswith("within")


def test_check_bound_violation_still_exits_zero():
    code, out, _ = cli("check-bound", "--term", "(pad 2)",
                       "--poly", "n1", "--arg", "1111")
    assert code == 0
    assert out.strip().endswith("VIOLATED")


def test_length_term_and_brute_agree(small_oracle):
    a = cli("length", "--oracle", small_oracle, "--x", "11")
    b = cli("length", "--oracle", small_oracle, "--x", "11",
            "--method", "brute")
    assert a == b == (0, "11111\n", "")


def test_secpoly_eval_with_oracle_length(small_oracle):
    code, out, _ = cli("secpoly-eval", "--poly", "L1(n1) + n2 * 2",
                       "--n", "3", "--n", "4", "--oracle", small_oracle)
    assert (code, out) == (0, "13\n")


# -- martingale verbs ------------------------------------------------------


def test_verify_martingale_ok(good_mg):
    assert cli("verify-martingale", "--file", good_mg) == (0, "ok\n", "")


def test_verify_martingale_depth_gates_the_check(bad_mg):
    code, out, _ = cli("verify-martingale", "--file", bad_mg, "--depth", "1")
    assert (code, out) == (0, "ok\n")


def test_regularize_matches_library(good_mg):
    code, out, _ = cli("regularize", "--file", good_mg, "--w", "00",
                       "--precision", "6")
    assert code == 0
    assert out == "64/2^6\n"  # table holds 2 at 00; rebalancing floors it at 1


def test_regularize_pinned_capital(tmp_path):
    # the rebalanced capital at 0 is exactly 1 and stays there at 00
    path = tmp_path / "pinned.mg"
    path.write_text("martingale measure=biased:3/8 depth=2\n"
                    "~ 1 1\n0 9 3\n1 1 3\n00 12525047 22\n01 34719 22\n"
                    "10 1 3\n11 1 3\n")
    assert cli("regularize", "--file", str(path), "--w", "00",
               "--precision", "5") == (0, "32/2^5\n", "")


def test_combine_is_the_canonical_sum(good_mg):
    code, out, _ = cli("combine", "--file", good_mg, "--file", good_mg,
                       "--w", "0", "--precision", "5")
    d = TableMartingale(doubling_table(), 2, uniform())
    expect = SumMartingale(d, d).approx(5, "0").render(5)
    assert (code, out) == (0, expect + "\n")


def test_combine_needs_two_files(good_mg):
    code, _, err = cli("combine", "--file", good_mg, "--w", "0",
                       "--precision", "5")
    assert code == 2
    assert "two" in err


def test_measure_value_of_disjoint_union():
    code, out, _ = cli("measure-value", "--expr", "(cup (cyl 00) (cyl 01))",
                       "--measure", "uniform", "--precision", "5")
    assert (code, out) == (0, "16/2^5\n")


def test_measure_value_of_deep_complement():
    text = "(compl " * 3000 + "(cyl 0)" + ")" * 3000
    assert cli("measure-value", "--expr", text, "--measure", "uniform",
               "--precision", "4") == (0, "8/2^4\n", "")


def test_set_expression_nesting_bound():
    # cap, cup and limit count toward the bound; compl does not (above).
    # Every shape at the bound finishes with its exact value.
    for name, (text, want) in nesting_shapes(MAX_NESTING).items():
        assert cli("measure-value", "--expr", text, "--measure", "uniform",
                   "--precision", "4") == (0, f"{want * 16}/2^4\n", ""), name
    for k in (MAX_NESTING + 1, 1000):
        text = nesting_shapes(k)["left-cap"][0]
        code, out, err = cli("measure-value", "--expr", text,
                             "--measure", "uniform", "--precision", "4")
        assert (code, out) == (2, "")
        assert err.startswith("measure-value:") and err.count("\n") == 1


def _distinct_word_nests():
    """Three nests MAX_NESTING forms deep, one form per distinct word, as
    (expression, text, measure spec, word length): no memo below a form
    holds the word its cylinder asks, so each form adds its frames to the
    queries that pass it."""
    bits = (MAX_NESTING - 1).bit_length()
    words = [format(i, f"0{bits}b") for i in range(MAX_NESTING)]
    steps = (
        (lambda e, w: ("compl", ("cup", ("cyl", w), e)),
         "(compl (cup (cyl {w}) {t}))", "0", "uniform"),
        (lambda e, w: ("cap", ("compl", e), ("cyl", w)),
         "(cap (compl {t}) (cyl {w}))", "0", "biased:3/8"),
        (lambda e, w: ("cup", ("cyl", w), e),
         "(cup (cyl {w}) {t})", "1", "uniform"),
    )
    for step, form, start, spec in steps:
        e, text = ("cyl", start), f"(cyl {start})"
        for w in words:
            e, text = step(e, w), form.format(w=w, t=text)
        yield e, text, spec, bits


def test_complemented_operands_add_no_recursion():
    # a complemented operand of cap or cup is split through its inner
    # operator, so the nests with complements finish at the default
    # recursion limit as the plain nest of cups does, each within 2^-4 of
    # its truth-table value
    for e, text, spec, bits in _distinct_word_nests():
        model = ref.MeasureModel.coin(BUILTIN_MEASURES[spec])
        want = sum(model.mass(s) for s in strings_of_length(bits)
                   if ref.contains(e, s))
        code, out, err = cli("measure-value", "--expr", text,
                             "--measure", spec, "--precision", "4")
        assert (code, err) == (0, ""), text[:40]
        assert out.endswith("/2^4\n"), out
        got = Fraction(int(out.split("/")[0]), 16)
        assert abs(got - want) <= Fraction(1, 16), (text[:40], got, want)


def test_term_nesting_bound():
    def succs(k):
        return "(succ " * k + "(proj 0)" + ")" * k

    # k successors around (proj 0) nest k+1 forms; "0" has index 1 in the
    # enumeration, so they reach index k+1
    k = MAX_NESTING - 1
    assert cli("eval", "--term", succs(k), "--arg", "0") == \
        (0, bin(k + 2)[3:] + "\n", "")
    for k in (MAX_NESTING, 3000):
        code, out, err = cli("eval", "--term", succs(k), "--arg", "0")
        assert (code, out) == (2, "")
        assert err.startswith("eval:") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "(pad \u00b2)", "(proj \u00b3)", "(expand (const) \u00b9 0)",
    "(pad " + "1" * 5000 + ")", "(oracle \u0663 0)",
], ids=["superscript-pad", "superscript-proj", "superscript-expand",
        "long-pad", "arabic-indic-oracle"])
def test_term_numbers_are_ascii_digits(text):
    code, out, err = cli("eval", "--term", text, "--arg", "0")
    assert (code, out) == (2, "")
    assert err.startswith("eval:") and err.count("\n") == 1


@pytest.mark.parametrize("poly, want", [
    ("(" * 300 + "n1" + ")" * 300, None),
    ("g0(" * 300 + "n1" + ")" * 300, None),
    (" + ".join(["1"] * 5000), "5000\n"),
    ("1" * 5000, None),
    ("n" + "1" * 5000, None),
], ids=["parentheses", "applications", "long-sum", "long-constant",
        "long-variable"])
def test_growth_expression_inputs(poly, want):
    code, out, err = cli("secpoly-eval", "--poly", poly, "--n", "1")
    if want is not None:
        assert (code, out, err) == (0, want, "")
        return
    assert (code, out) == (2, "")
    assert err.startswith("secpoly-eval:") and err.count("\n") == 1


def _growth_shapes(k):
    """Growth expressions with k nested groups, and their values at n1 = 1;
    each level of "chain" is an application around a sum of a product."""
    return {"parentheses": ("(" * k + "n1" + ")" * k, 1),
            "applications": ("g0(" * k + "n1" + ")" * k, 2 ** k),
            "chain": ("g0(1 + 1 * " * k + "n1" + ")" * k, 3 * 2 ** k - 2)}


def test_growth_expression_nesting_bound():
    for name, (text, want) in _growth_shapes(MAX_NESTING).items():
        argv = ["secpoly-eval", "--poly", text, "--n", "1"]
        assert cli(*argv) == (0, f"{want}\n", ""), name
        proc = subprocess.run([sys.executable, "-m", "cantorbet.cli", *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, f"{want}\n", ""), name
    for name, (text, _) in _growth_shapes(MAX_NESTING + 1).items():
        code, out, err = cli("secpoly-eval", "--poly", text, "--n", "1")
        assert (code, out) == (2, ""), name
        assert err.startswith("secpoly-eval:") and err.count("\n") == 1


def test_diagonalize_reports_trajectory(tmp_path):
    nu = uniform()
    table = {"": Dyadic(1, 2),
             "0": Dyadic(3, 3), "1": Dyadic(1, 3),
             "00": Dyadic(1, 1), "01": Dyadic(1, 2),
             "10": Dyadic(1, 3), "11": Dyadic(1, 3)}
    path = tmp_path / "small.mg"
    path.write_text(dump_martingale(TableMartingale(table, 2, nu), "uniform"))
    code, out, _ = cli("diagonalize", "--file", str(path), "--w", "0",
                       "--depth", "4")
    assert code == 0
    assert out.splitlines() == ["0 0 3 3", "1 1 1 2", "2 0 1 2", "3 0 1 2"]


def test_diagonalize_rejects_rich_bettor(good_mg):
    code, _, err = cli("diagonalize", "--file", good_mg, "--depth", "4")
    assert code == 1
    assert "margin" in err


# -- measure files ---------------------------------------------------------


def test_measure_flag_accepts_a_file_path(tmp_path):
    nu = ProbabilityMeasure(
        {"": Dyadic(1, 0), "0": Dyadic(3, 2), "1": Dyadic(1, 2)}, 1,
        witness=PositivityWitness(1, 1))
    path = tmp_path / "skew.measure"
    path.write_text(dump_measure(nu))
    code, out, _ = cli("measure-cylinder", "--w", "0", "--measure", str(path),
                       "--precision", "4")
    assert (code, out) == (0, "12/2^4\n")


@pytest.mark.parametrize("spec, want", [("uniform", "4/2^4\n"),
                                        ("biased:1/4", "1/2^4\n")])
def test_builtin_measure_names_beat_files(tmp_path, monkeypatch, spec, want):
    path = tmp_path / spec             # biased:1/4 is a file in a folder
    path.parent.mkdir(exist_ok=True)
    path.write_text("not a measure\n")
    monkeypatch.chdir(tmp_path)
    assert cli("measure-cylinder", "--w", "00", "--measure", spec,
               "--precision", "4") == (0, want, "")


def test_missing_measure_file_is_a_parse_error():
    code, _, err = cli("measure-cylinder", "--w", "0",
                       "--measure", "no-such-spec", "--precision", "4")
    assert code == 2
    assert "no-such-spec" in err


@pytest.mark.parametrize("where", ["flag", "header"])
def test_bias_that_is_not_a_number_is_a_parse_error(tmp_path, where):
    if where == "flag":
        argv = ["measure-cylinder", "--w", "0", "--measure", "biased:abc",
                "--precision", "4"]
    else:
        path = tmp_path / "zz.mg"
        path.write_text("martingale measure=biased:zz depth=0\n~ 1 0\n")
        argv = ["verify-martingale", "--file", str(path)]
    code, out, err = cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"{argv[0]}: cannot parse dyadic")
    assert err.count("\n") == 1


@pytest.mark.parametrize("bias", ["1/3", "3/2"])
def test_bias_that_is_a_number_but_no_measure_is_exit_one(bias):
    # not dyadic, or outside (0, 1): the text parses, the value is refused
    code, out, err = cli("measure-cylinder", "--w", "0",
                         "--measure", f"biased:{bias}", "--precision", "4")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1


def test_copy_measure_with_a_non_dyadic_boundary_split_is_exit_two(tmp_path):
    path = tmp_path / "copy.measure"
    path.write_text("measure depth=2 ext=copy\n~ 1 0\n0 3 2\n1 1 2\n"
                    "00 1 2\n01 1 1\n10 1 3\n11 1 3\nl poly 0 1\n")
    assert cli("measure-cylinder", "--w", "0", "--measure", str(path),
               "--precision", "4") == (
        2, "", "measure-cylinder: ext=copy: boundary conditional 1/3 at "
               "'00' is not dyadic\n")


# -- enumeration -----------------------------------------------------------


def test_enumerate_first_words():
    code, out, _ = cli("enumerate", "--first", "5")
    assert (code, out) == (0, "~\n0\n1\n00\n01\n")


def test_enumerate_round_trip():
    for word in ("~", "0", "1", "0110"):
        _, idx, _ = cli("enumerate", "--index", word)
        _, back, _ = cli("enumerate", "--word", idx.strip())
        assert back.strip() == word


def test_enumerate_neighbours():
    assert cli("enumerate", "--next", "1")[1] == "00\n"
    assert cli("enumerate", "--prev", "00")[1] == "1\n"
    assert cli("enumerate", "--prev", "~")[1] == "~\n"


# -- exit-status protocol --------------------------------------------------


def test_unreadable_file_is_a_domain_error():
    code, _, err = cli("length", "--oracle", "/does/not/exist", "--x", "0")
    assert code == 1
    assert "/does/not/exist" in err


def test_measure_weakly_positive_only_near_its_table_is_exit_one(tmp_path):
    """Every verb that loads the file refuses it: below depth + 2 a
    cylinder's mass falls under its threshold, so `measure-value` would
    read it as null while `measure-cylinder` gives its mass."""
    path = tmp_path / "shallow.measure"
    path.write_text(SHALLOW_WITNESS_MEASURE)
    mg = tmp_path / "shallow.mg"
    mg.write_text(f"martingale measure={path} depth=0\n~ 1 0\n")
    for argv in (["measure-cylinder", "--w", "00000", "--measure", str(path),
                  "--precision", "20"],
                 ["measure-value", "--expr", "(cyl 00000)", "--measure",
                  str(path), "--precision", "20"],
                 ["regularize", "--file", str(mg), "--w", "00000",
                  "--precision", "20"],
                 ["verify-martingale", "--file", str(mg)]):
        assert cli(*argv) == (
            1, "", f"{argv[0]}: measure is not weakly positive for its "
                   "witness\n"), argv


def test_decimal_exponent_past_the_cap_is_exit_three():
    """Fraction would build 10**|e| for `--s 1e<e>`; an exponent whose
    power is past the cap is refused before, with one line."""
    argv = ["rh", "--alpha", "1/2", "--t", "1", "--s"]
    for text in ("1e100000000", "1E-100000000", "2.5e+100_000_000",
                 "1e" + "9" * 1000):
        code, out, err = cli(*argv, text)
        assert (code, out) == (3, "")
        assert err.startswith("rh: decimal exponent") and err.count("\n") == 1
    # 10**400 is 1329 bits, well inside the cap: answered as before
    mean = f"{10 ** 400 + 1}/2^1"
    assert cli(*argv, "1e400") == (0, f"{mean} {mean}\n", "")
    # 10**19 has 64 bits and 10**20 has 67
    set_magnitude_cap(64)
    try:
        assert cli(*argv, "1e19")[0] == 0
        assert cli(*argv, "1e20")[:2] == (3, "")
        assert cli(*argv, "1e-20")[:2] == (3, "")
    finally:
        set_magnitude_cap(None)


def test_malformed_term_is_a_parse_error():
    code, _, err = cli("eval", "--term", "(smash (proj 0)")
    assert code == 2
    assert "eval:" in err


def test_out_of_domain_transfer_is_exit_one():
    code, _, err = cli("rh", "--alpha", "1/2", "--s", "-3", "--t", "1")
    assert code == 1
    assert "rh:" in err


@pytest.mark.parametrize("flag", ["--alpha", "--s", "--t"])
def test_negative_fraction_is_a_value(flag):
    """`--s -8/3` reads as `--s=-8/3`, as `--s -3` reads as `--s=-3`."""
    flags = {"--alpha": "1/2", "--s": "3", "--t": "1"}
    spaced, joined = ["rh"], ["rh"]
    for name, value in flags.items():
        value = "-8/3" if name == flag else value
        spaced += [name, value]
        joined.append(f"{name}={value}")
    code, out, err = cli(*spaced)
    assert (code, out, err) == cli(*joined)
    assert code == 1 and err.startswith("rh: ")


@pytest.mark.parametrize("text", ["-1e1", "-2.5E-1", "-.5e3", "-1.e2",
                                  "-3/4", "-7", "-0.25", "-1_000",
                                  "-1e100000000"])
def test_negative_literal_is_a_value(text):
    """`--s -X` reads as `--s=-X` for every form of negative literal,
    the exponent forms and a decimal exponent past the cap included."""
    argv = ["rh", "--alpha", "1/2", "--t", "20"]
    spaced = cli(*argv, "--s", text)
    assert spaced == cli(*argv, f"--s={text}")
    assert spaced[0] == (3 if text == "-1e100000000" else
                         1 if Fraction(text) < -20 else 0)


@pytest.mark.parametrize("text", ["xe400000", "-E320000"])
def test_huge_exponent_of_a_non_number_is_a_parse_error(text):
    # the form is checked before the exponent's size
    code, out, err = cli("rh", "--alpha", "1/2", f"--s={text}", "--t", "1")
    assert (code, out) == (2, "")
    assert f"invalid Fraction value: {text!r}" in err


def _reads_as_fraction(text):
    """Whether `_fraction_flag` takes the text, or refuses only its
    exponent as past the cap."""
    try:
        _fraction_flag(text)
    except argparse.ArgumentTypeError:
        return False
    except ResourceError:
        pass
    return True


@settings(max_examples=500)
@given(st.text("0123456789./eE_+-", max_size=7))
def test_negative_literals_are_the_fraction_flags(body):
    """A token '-' + body is read as a value exactly when `_fraction_flag`
    reads it, or when it is a fraction whose denominator is 0."""
    text = "-" + body
    num, slash, den = text.partition("/")
    zero_den = (slash and set(den) <= set("0_")
                and _reads_as_fraction(f"{num}/{den.replace('0', '1')}"))
    matched = _Parser()._negative_number_matcher.match(text)
    assert bool(matched) == (_reads_as_fraction(text) or bool(zero_den))


def test_huge_positivity_witness_is_not_built(tmp_path):
    """A witness exponent of 4e10 bits reads like a small one: no mass
    is compared with 2^-l(n) by building it."""
    table = ("measure depth=2 ext=copy\n~ 1 0\n0 3 2\n1 1 2\n"
             "00 3 3\n01 3 3\n10 1 4\n11 3 4\n")
    outs = []
    for c1 in ("40", "40000000000"):
        path = tmp_path / f"witness-{c1}.measure"
        path.write_text(table + f"l poly 0 {c1}\n")
        outs.append([cli("measure-cylinder", "--w", w, "--measure", str(path),
                         "--precision", "4") for w in ("0", "011", "1101")])
    assert outs[0] == outs[1]
    assert all(code == 0 and err == "" for code, _, err in outs[1])


def test_magnitude_cap_is_exit_three(small_oracle):
    set_magnitude_cap(1 << 10)
    try:
        code, _, err = cli("secpoly-eval", "--poly", "L1(n1)", "--n", "1",
                           "--oracle", small_oracle, "--radius", "20")
        assert code == 3
        assert "secpoly-eval:" in err
    finally:
        set_magnitude_cap(None)


@pytest.mark.parametrize("raw", ["abc", "0", "-5"])
def test_bad_magnitude_cap_env_is_a_parse_error(monkeypatch, raw):
    monkeypatch.setenv("CANTORBET_MAGNITUDE_CAP", raw)
    set_magnitude_cap(None)            # drop the cache so the env is read
    try:
        for argv in (["enumerate", "--first", "2"],
                     ["measure-cylinder", "--w", "0", "--measure",
                      "uniform", "--precision", "4"]):
            code, out, err = cli(*argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"{argv[0]}: CANTORBET_MAGNITUDE_CAP")
            assert err.count("\n") == 1
    finally:
        set_magnitude_cap(None)


# A precision or margin is a size: each is checked against the magnitude cap
# where it enters, before any 2**size is built.  Under a cap of 64 each of
# these is cheap to run without the check; above the default cap they would
# ask for integers of gigabytes.
@pytest.mark.parametrize("argv", [
    ["measure-cylinder", "--w", "0", "--measure", "uniform"],
    ["measure-value", "--expr", "(cyl 0)", "--measure", "uniform"],
    ["regularize", "--file", "MG", "--w", "01"],
    ["combine", "--file", "MG", "--file", "MG", "--w", "0"],
    ["rh", "--alpha", "1/2", "--s", "0", "--t", "0"],
    ["diagonalize", "--file", "POOR", "--margin"],
], ids=lambda argv: argv[0])
def test_sizes_past_the_cap_are_exit_three(good_mg, poor_mg, argv):
    argv = [{"MG": good_mg, "POOR": poor_mg}.get(a, a) for a in argv]
    flag = [] if argv[0] == "diagonalize" else ["--precision"]
    set_magnitude_cap(64)
    try:
        assert cli(*argv, *flag, "64")[0] == 0
        code, out, err = cli(*argv, *flag, "100")
    finally:
        set_magnitude_cap(None)
    assert (code, out) == (3, "")
    assert err.startswith(f"{argv[0]}:") and err.count("\n") == 1


def test_walk_depth_past_the_cap_is_exit_three(poor_mg):
    # --depth is the length of the walk's prefix, a string
    code, out, err = cli("diagonalize", "--file", poor_mg,
                         "--depth", "5000000")
    assert (code, out) == (3, "")
    assert err.startswith("diagonalize:") and err.count("\n") == 1
    set_magnitude_cap(64)
    try:
        assert cli("diagonalize", "--file", poor_mg, "--depth", "64")[0] == 0
        assert cli("diagonalize", "--file", poor_mg, "--depth", "65")[0] == 3
    finally:
        set_magnitude_cap(None)


# A valid file of each table kind, and a verb that loads it with validation.
_TABLE_FILES = {
    "measure": ("measure depth=1 ext=half\n~ 1 0\n0 1 1\n1 1 1\nl poly 0 1\n",
                ["measure-cylinder", "--w", "0", "--measure", "FILE",
                 "--precision", "4"]),
    "martingale": ("martingale measure=uniform depth=1\n~ 1 0\n0 1 1\n1 3 1\n",
                   ["regularize", "--file", "FILE", "--w", "0",
                    "--precision", "4"]),
}
# Defects as (old, new, exit status, what stderr names): a malformed shape
# exits 2 for either kind; a broken identity or a failed witness is a
# failure of meaning.
_FIELDS, _WITNESS = "expected `w mantissa precision`", "expected `l poly c0 c1`"
_TABLE_DEFECTS = {
    "negative depth": ("depth=1", "depth=-1", 2, "natural number"),
    "depth not a number": ("depth=1", "depth=one", 2, "natural number"),
    "missing string": ("\n1 ", "\n# 1 ", 2, "missing '1'"),
    "negative entry": ("\n0 1 1", "\n0 -1 1", 2, "negative entry at '0'"),
    "huge depth": ("depth=1", "depth=100000000", 2, "missing '00'"),
    "string listed twice": ("\n0 1 1\n", "\n0 1 1\n0 5 0\n", 2,
                            "'0' listed twice"),
    "string deeper than the depth": ("\n0 1 1\n", "\n0 1 1\n011 7 0\n",
                                     2, "'011' deeper than depth 1"),
    "two fields": ("\n0 1 1", "\n0 1", 2, _FIELDS),
    "four fields": ("\n0 1 1", "\n0 1 1 0", 2, _FIELDS),
    "no witness line": ("l poly 0 1\n", "", 2, "0 witness lines"),
    "two witness lines": ("l poly 0 1\n", "l poly 0 1\nl poly 0 1\n", 2,
                          "2 witness lines"),
    "short witness": ("l poly 0 1", "l poly 0", 2, _WITNESS),
    "long witness": ("l poly 0 1", "l poly 0 1 2", 2, _WITNESS),
    "witness not poly": ("l poly 0 1", "l lin 0 1", 2, _WITNESS),
    "additivity": ("\n1 1 1\n", "\n1 1 2\n", 2, "additivity fails"),
    "not weakly positive": ("l poly 0 1", "l poly 0 0", 1, "weakly positive"),
    "weakly positive only to depth + 2": (
        "measure depth=1 ext=half\n~ 1 0\n0 1 1\n1 1 1\nl poly 0 1\n",
        SHALLOW_WITNESS_MEASURE, 1, "not weakly positive"),
    "identity": ("\n1 3 1\n", "\n1 1 1\n", 1, "identity fails"),
}


@pytest.mark.parametrize("kind, defect", [
    (kind, defect) for kind, (text, _) in _TABLE_FILES.items()
    for defect, (old, *_) in _TABLE_DEFECTS.items() if old in text])
def test_table_file_defects_have_one_exit_status(tmp_path, kind, defect):
    text, argv = _TABLE_FILES[kind]
    old, new, want, says = _TABLE_DEFECTS[defect]
    assert _run_on_file(tmp_path / kind, text, argv)[0] == 0
    code, out, err = _run_on_file(tmp_path / kind, text.replace(old, new),
                                  argv)
    assert (code, out) == (want, "")
    assert err.startswith(f"{argv[0]}:") and err.count("\n") == 1
    assert says in err


def test_oracle_query_listed_twice_is_exit_two(tmp_path):
    # a second answer for a query is refused, not taken in place of the first
    path = tmp_path / "twice.orc"
    path.write_text("~ 11\n0 1\n0 11\ndefault 0\n")
    assert cli("length", "--oracle", str(path), "--x", "0") == (
        2, "", "length: oracle line 3: '0' listed twice\n")


@pytest.mark.parametrize("kind, text, argv", [
    ("martingale", "martingale measure=uniform depth=1\n~ 1 0\n0 1 0\n"
     "1 1 100\n", ["verify-martingale", "--file", "FILE"]),
    ("measure", "measure depth=1 ext=half\n~ 1 0\n0 1 100\n1 1 1\n"
     "l poly 0 1\n", ["measure-cylinder", "--w", "0", "--measure", "FILE",
                      "--precision", "4"]),
], ids=["martingale", "measure"])
def test_file_precision_past_the_cap_is_exit_three(tmp_path, kind, text,
                                                     argv):
    path = tmp_path / kind
    path.write_text(text)
    set_magnitude_cap(64)
    try:
        code, out, err = cli(*[str(path) if a == "FILE" else a for a in argv])
    finally:
        set_magnitude_cap(None)
    assert (code, out) == (3, "")
    assert err.startswith(f"{argv[0]}:") and err.count("\n") == 1


def test_bias_precision_past_the_cap_is_exit_three(tmp_path):
    # the exponent of a bias is a precision, checked where it is read as a
    # file's precision is; past the cap the measure is never built
    argv = ["measure-cylinder", "--w", "11111111", "--precision", "4",
            "--measure"]
    code, out, err = cli(*argv, "biased:1/2^100000000")
    assert (code, out) == (3, "")
    assert err.startswith("measure-cylinder: dyadic precision")
    assert err.count("\n") == 1
    assert cli(*argv, "biased:1/2^1000") == (0, "16/2^4\n", "")
    path = tmp_path / "deep.mg"
    path.write_text("martingale measure=biased:1/2^100000000 depth=0\n"
                    "~ 1 0\n")
    code, out, err = cli("verify-martingale", "--file", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("verify-martingale: dyadic precision")
    set_magnitude_cap(64)
    try:
        assert cli(*argv, "biased:1/2^64")[0] == 0
        assert cli(*argv, "biased:1/2^65")[0] == 3
        assert cli(*argv, f"biased:1/{2 ** 64}")[0] == 0
        assert cli(*argv, f"biased:1/{2 ** 65}")[0] == 3
    finally:
        set_magnitude_cap(None)


@pytest.mark.parametrize("argv", [
    ["diagonalize", "--file", "POOR", "--margin", "-1"],
    ["secpoly-eval", "--poly", "n1 * 2", "--n", "-5"],
], ids=["negative-margin", "negative-length"])
def test_negative_sizes_are_exit_one(poor_mg, argv):
    code, out, err = cli(*[poor_mg if a == "POOR" else a for a in argv])
    assert (code, out) == (1, "")
    assert err.startswith(f"{argv[0]}:") and err.count("\n") == 1


# Python refuses to write an integer of more than sys.get_int_max_str_digits()
# decimal digits (4300 by default); 20000 bits is about 6000 digits
_WIDE = "20000"


@pytest.mark.parametrize("argv", [
    ["measure-cylinder", "--w", "0", "--measure", "uniform",
     "--precision", _WIDE],
    ["measure-value", "--expr", "(cyl 0)", "--measure", "uniform",
     "--precision", _WIDE],
    ["regularize", "--file", "MG", "--w", "01", "--precision", _WIDE],
    ["combine", "--file", "MG", "--file", "MG", "--w", "0",
     "--precision", _WIDE],
    ["rh", "--alpha", "1/2", "--s", "3", "--t", "1", "--precision", _WIDE],
    ["enumerate", "--index", "1" * 15000],
    ["secpoly-eval", "--poly", "g1(g1(g1(g1(n1))))", "--n", str(10 ** 300)],
    ["check-bound", "--term", "(proj 0)", "--arg", "0101010101",
     "--poly", "g1(" * 13 + "n1" + ")" * 13],
], ids=lambda argv: argv[0])
def test_too_many_decimal_digits_is_exit_three(good_mg, argv):
    argv = [good_mg if a == "MG" else a for a in argv]
    code, out, err = cli(*argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"{argv[0]}:") and err.count("\n") == 1
    assert "decimal digits" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--term", "(pad 8)", "--arg", "01"],
    ["eval", "--term", "(pad 2)", "--arg", "1" * 5000],
    ["secpoly-eval", "--poly", "g8(2)"],
], ids=["pad-level", "pad-length", "growth-level"])
def test_growth_past_the_cap_is_exit_three(argv):
    code, out, err = cli(*argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"{argv[0]}:") and err.count("\n") == 1


def test_growth_product_past_the_cap_is_exit_three():
    # each factor is n1^64, about 850,000 bits, under the cap; their
    # product is refused as it grows, not built and then refused in print
    factor = "g1(" * 6 + "n1" + ")" * 6
    code, out, err = cli("secpoly-eval", "--n", "9" * 4000,
                         "--poly", " * ".join([factor] * 40))
    assert (code, out) == (3, "")
    assert err.startswith("secpoly-eval: growth value of size ")
    assert "exceeds magnitude cap" in err and err.count("\n") == 1


def test_negative_radius_is_exit_one(small_oracle):
    for oracle in ([], ["--oracle", small_oracle]):
        assert cli("secpoly-eval", "--poly", "g1(n1)", "--n", "5",
                   "--radius", "-1", *oracle) == \
            (1, "", "secpoly-eval: radius must be >= 0\n"), oracle


def test_non_ascii_file_is_a_parse_error(tmp_path):
    f = tmp_path / "t.term"
    f.write_bytes("(succ \u00e9)\n".encode("utf-8"))
    code, _, err = cli("eval", "--term-file", str(f))
    assert code == 2
    assert err.startswith("eval:") and "Traceback" not in err


@pytest.mark.parametrize("witness", ["l poly x 1", "l poly -1 1"])
def test_malformed_witness_is_a_parse_error(tmp_path, witness):
    path = tmp_path / "bad.measure"
    path.write_text(f"measure depth=0 ext=half\n~ 1 0\n{witness}\n")
    code, _, err = cli("measure-cylinder", "--w", "0", "--measure", str(path),
                       "--precision", "4")
    assert code == 2
    assert "witness" in err and "Traceback" not in err


def test_negative_rounding_precision_is_exit_one():
    # rh rounds through frac_round_at, measure-cylinder through
    # Dyadic.round_at: both refuse with one message and no traceback
    for argv in (["rh", "--alpha", "1/2", "--s", "1/3", "--t", "0"],
                 ["measure-cylinder", "--w", "01", "--measure", "uniform"]):
        assert cli(*argv, "--precision", "-2") == \
            (1, "", f"{argv[0]}: rounding precision must be >= 0\n")


def test_zero_denominator_flag_is_a_usage_error():
    code, _, err = cli("rh", "--alpha", "1/0", "--s", "1", "--t", "1")
    assert code == 2
    assert "--alpha" in err and "Traceback" not in err


# Set expressions as tuples (see `helpers.set_expressions`), with words of at
# most three bits, so each set is a union of the eight 3-bit cylinders.  The
# benchmark's reference answers for them: `ref.contains` is the truth
# table, `ref.set_measure` the measure and `ref.expr_text` the text.

_THREE_BITS = frozenset(format(i, "03b") for i in range(8))
# a built-in measure's spec, or a measure file's text with its model
_MEASURES = st.one_of(st.sampled_from(sorted(BUILTIN_MEASURES)),
                      measure_files())


def _cylinders(e):
    """The 3-bit strings whose cylinders lie in the set."""
    return frozenset(s for s in _THREE_BITS if ref.contains(e, s))


def _honest(e):
    """Does every limit's family keep one set from its index K on?"""
    if e[0] == "cyl":
        return True
    if e[0] == "limit":
        later = {_cylinders(s) for s in e[1][min(e[2], len(e[1]) - 1):]}
        return len(later) == 1 and all(map(_honest, e[1]))
    return all(map(_honest, e[1:]))


# cli() raises whatever escapes run(), so an uncaught exception, the only
# source of a traceback, fails these tests
@settings(max_examples=120)
@given(e=set_expressions(6), measure=_MEASURES, r=st.integers(0, 10))
def test_generated_set_expressions_keep_the_contract(tmp_path_factory, e,
                                                     measure, r):
    if isinstance(measure, str):
        spec = measure
        model = ref.MeasureModel.coin(BUILTIN_MEASURES[measure])
    else:
        text, model = measure
        path = tmp_path_factory.getbasetemp() / "drawn.measure"
        path.write_text(text)
        spec = str(path)
    code, out, err = cli("measure-value", "--expr", ref.expr_text(e),
                         "--measure", spec, "--precision", str(r))
    assert code in (0, 1, 2, 3) and "Traceback" not in err
    if _honest(e):
        assert code == 0, err
        m = re.fullmatch(r"(\d+)(?:/2\^(\d+))?\n", out)
        got = Fraction(int(m.group(1)), 2 ** int(m.group(2) or 0))
        assert abs(got - ref.set_measure(e, model)) <= Fraction(1, 2 ** r)


_BETS = [Fraction(k, 4) for k in (4, -4, 2, -2, 3, -3, 1, -1, 0)]


@st.composite
def _martingale_tables(draw, model):
    """A table martingale under the reference model, depth 0 to 6, as
    its entries: the root holds 0 to 3/2 in eighths, and each split bets
    b = lam * d(w), lam in [-1, 1] in quarters, giving d(w) + (1 - c) * b
    to w0 and d(w) - c * b to w1, for the split's share c, which keeps the
    averaging identity and every entry >= 0.  A null node's children get
    any such pair.  A root below 1 lets a bet lift one child to 1 while the
    mean stays below it: the transfer's give cases."""
    depth = draw(st.integers(0, 6))
    table = {"": Fraction(draw(st.integers(0, 12)), 8)}
    for w in strings_shorter_than(depth):
        c = model.conditional(w) if model.mass(w) else Fraction(1, 2)
        b = table[w] * draw(st.sampled_from(_BETS))
        table[w + "0"], table[w + "1"] = table[w] + (1 - c) * b, \
            table[w] - c * b
    return table, depth


# the regularized value at w, through `regularize --w` at precision r and in
# process, against the reference's exact path
@settings(max_examples=120)
@given(measure=_MEASURES, data=st.data(), w=st.text("01", max_size=12),
       r=st.integers(0, 16))
def test_regularized_paths_match_the_reference(tmp_path_factory, measure,
                                               data, w, r):
    if isinstance(measure, str):
        spec = measure
        model = ref.MeasureModel.coin(BUILTIN_MEASURES[measure])
    else:
        text, model = measure
        path = tmp_path_factory.getbasetemp() / "drawn.measure"
        path.write_text(text)
        spec = str(path)
    table, depth = data.draw(_martingale_tables(model), label="table")
    lines = [f"martingale measure={spec} depth={depth}"]
    lines += [f"{u or '~'} {m.numerator} {m.denominator.bit_length() - 1}"
              for u, m in table.items()]
    mg = tmp_path_factory.getbasetemp() / "drawn.mg"
    mg.write_text("\n".join(lines) + "\n")
    want = ref.regularized_path(lambda u: table[u[:depth]], model, w)[-1][0]
    code, out, err = cli("regularize", "--file", str(mg), "--w", w or "~",
                         "--precision", str(r))
    assert code == 0, err
    m = re.fullmatch(r"(\d+)(?:/2\^(\d+))?\n", out)
    got = Fraction(int(m.group(1)), 2 ** int(m.group(2) or 0))
    assert abs(got - want) <= Fraction(1, 2 ** r)
    d = load_martingale(mg.read_text(), resolve_measure)
    assert regularize(d, d.measure).value(w) == want


@settings(max_examples=120)
@given(e=set_expressions(6), data=st.data())
def test_mutated_set_expressions_keep_the_contract(e, data):
    text = ref.expr_text(e)
    i = data.draw(st.integers(0, len(text)), label="cut from")
    j = data.draw(st.integers(i, len(text)), label="cut to")
    patch = data.draw(st.text("() 01~-9acilmnoptuy\u00e9", max_size=8),
                      label="patch")
    code, _, err = cli("measure-value", "--expr", text[:i] + patch + text[j:],
                       "--measure", "uniform", "--precision", "6")
    assert code in (0, 1, 2, 3) and "Traceback" not in err


# Valid measure, martingale and oracle files, and the verbs that load each
# ("FILE" stands for its path).  The mutation tests below cut a piece out
# of one and insert format tokens; every outcome must keep the contract.
_FILE_INPUTS = {
    "measure": (
        "measure depth=2 ext=copy\n~ 1 0\n0 3 2\n1 1 2\n"
        "00 3 3\n01 3 3\n10 1 4\n11 3 4\nl poly 4 2\n",
        [["measure-cylinder", "--w", "011", "--measure", "FILE",
          "--precision", "6"]]),
    "martingale": (
        "martingale measure=uniform depth=2\n~ 1 2\n0 3 3\n1 1 3\n"
        "00 1 1\n01 1 2\n10 1 3\n11 1 3\n",
        [["regularize", "--file", "FILE", "--w", "011", "--precision", "6"],
         ["diagonalize", "--file", "FILE", "--w", "0", "--depth", "4"],
         ["verify-martingale", "--file", "FILE"]]),
    "oracle": (
        "~ 11\n0 10110\n01 1\ndefault 0\n",
        [["length", "--oracle", "FILE", "--x", "0101"]]),
}
_FILE_TOKENS = ["~", "0", "1", "01", "-1", "3", "1/3", "2^", "=", "#", " ",
                "\n", "depth=", "measure=", "ext=", "half", "copy", "l",
                "poly", "default", "martingale", "measure", "uniform",
                "biased:3/8", "99", "\u00e9"]


def _run_on_file(path, text, argv):
    path.write_text(text, encoding="utf-8")
    return cli(*[str(path) if a == "FILE" else a for a in argv])


@pytest.mark.parametrize("kind", sorted(_FILE_INPUTS))
def test_file_inputs_are_valid(tmp_path, kind):
    text, verbs = _FILE_INPUTS[kind]
    for argv in verbs:
        code, out, err = _run_on_file(tmp_path / kind, text, argv)
        assert (code, err) == (0, ""), argv


# A guard: no mutated file is known to break the contract
@pytest.mark.parametrize("kind", sorted(_FILE_INPUTS))
@settings(max_examples=100)
@given(data=st.data())
def test_mutated_files_keep_the_contract(tmp_path_factory, kind, data):
    text, verbs = _FILE_INPUTS[kind]
    i = data.draw(st.integers(0, len(text)), label="cut from")
    j = data.draw(st.integers(i, len(text)), label="cut to")
    patch = data.draw(st.lists(st.sampled_from(_FILE_TOKENS), max_size=4)
                      .map("".join), label="patch")
    path = tmp_path_factory.getbasetemp() / f"mutated-{kind}"
    for argv in verbs:
        code, _, err = _run_on_file(path, text[:i] + patch + text[j:], argv)
        assert code in (0, 1, 2, 3) and "Traceback" not in err, argv


_TERM_WORDS = ["~", "0", "01", "110"]


@st.composite
def _term_calls(draw):
    """A term text and the --oracle/--arg flags that fit its signature."""
    k, l = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    flags = ["--oracle", "ORACLE"] * k
    for word in draw(st.lists(st.sampled_from(_TERM_WORDS),
                              min_size=l, max_size=l)):
        flags += ["--arg", word]
    return draw(terms(k, l, 4)), flags


_NUMBER_TOKENS = ["0", "2", "99", "-1", "x", "\u00b2", "\u0663", "1" * 5000]
_FORM_TOKENS = ["(", ")", "proj", "pad", "oracle", "expand", "comp", "lrn",
                "br", "smash", "(const)", "(proj 0)"]


def _term_verbs(tmp_path_factory, text, flags):
    """Run the text through eval --term, eval --term-file and check-bound;
    return each (status, stdout, stderr)."""
    base = tmp_path_factory.getbasetemp()
    oracle = base / "term-calls.orc"
    oracle.write_text("~ 11\n0 10110\n01 1\ndefault 0\n")
    term_file = base / "term-calls.term"
    term_file.write_text(text, encoding="utf-8")
    flags = [str(oracle) if f == "ORACLE" else f for f in flags]
    return [cli("eval", "--term", text, *flags),
            cli("eval", "--term-file", str(term_file), *flags),
            cli("check-bound", "--term", text, "--poly",
                f"g1(n1 + L1(n1)) + {EVALUATOR_MARGIN}", *flags)]


@settings(max_examples=100)
@given(call=_term_calls())
def test_generated_terms_keep_the_contract(tmp_path_factory, call):
    text, flags = call
    code, out, err = cli("eval", "--term", text, "--print-term")
    assert (code, err) == (0, "")
    assert parse_term(out) == parse_term(text)
    by_text, by_file, bound = _term_verbs(tmp_path_factory, text, flags)
    assert by_text == by_file
    for code, _, err in (by_text, bound):
        assert code in (0, 1, 3) and "Traceback" not in err


@settings(max_examples=150)
@given(call=_term_calls(), data=st.data())
def test_mutated_terms_keep_the_contract(tmp_path_factory, call, data):
    """Replace one number of the text, then cut a run of its tokens and
    insert a few others."""
    text, flags = call
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    numbers = [n for n, tok in enumerate(tokens) if tok.isdigit()]
    if numbers:
        n = data.draw(st.sampled_from(numbers), label="number at")
        tokens[n] = data.draw(st.sampled_from(_NUMBER_TOKENS), label="number")
    i = data.draw(st.integers(0, len(tokens)), label="cut from")
    j = data.draw(st.integers(i, len(tokens)), label="cut to")
    patch = data.draw(st.lists(st.sampled_from(_FORM_TOKENS + _NUMBER_TOKENS),
                               max_size=3), label="patch")
    text = " ".join(tokens[:i] + patch + tokens[j:])
    for code, _, err in _term_verbs(tmp_path_factory, text, flags):
        assert code in (0, 1, 2, 3) and "Traceback" not in err


# Every verb with flags drawn from its own, each given a value from a pool
# of words, numbers, expressions and paths of valid input files
_VERB_FLAGS = {
    "eval": ["--term", "--term-file", "--oracle", "--arg", "--print-term",
             "--meter"],
    "check-bound": ["--term", "--term-file", "--poly", "--oracle", "--arg"],
    "length": ["--oracle", "--x", "--method"],
    "secpoly-eval": ["--poly", "--n", "--oracle", "--radius"],
    "verify-martingale": ["--file", "--measure", "--depth"],
    "regularize": ["--file", "--measure", "--w", "--precision"],
    "rh": ["--alpha", "--s", "--t", "--precision"],
    "measure-cylinder": ["--w", "--measure", "--precision"],
    "combine": ["--file", "--measure", "--w", "--precision"],
    "measure-value": ["--expr", "--measure", "--precision"],
    "diagonalize": ["--file", "--measure", "--w", "--margin", "--depth"],
    "enumerate": ["--index", "--word", "--next", "--prev", "--first"],
}
_ARGV_TOKENS = ["~", "0", "01", "110", "1/2", "-1", "3", "99", "\u00b2",
                "\u0663", "1" * 5000, "", "(", "auto", "term", "brute",
                "uniform", "biased:3/8", "(pad 2)", "(succ (proj 0))", "(ap)",
                "(cyl 0)", "(cup (cyl 0) (cyl 1))", "n1 + 1", "L1(n1)",
                "g1(n1)", "ORACLE", "MARTINGALE", "MEASURE", "TERM"]


def _argv_files(tmp_path_factory):
    """Valid oracle, martingale, measure and term files, by the placeholder
    an argv names them with."""
    base = tmp_path_factory.getbasetemp()
    paths = {}
    for kind, text in [("ORACLE", _FILE_INPUTS["oracle"][0]),
                       ("MARTINGALE", _FILE_INPUTS["martingale"][0]),
                       ("MEASURE", _FILE_INPUTS["measure"][0]),
                       ("TERM", "(succ (proj 0))\n")]:
        paths[kind] = base / f"argv-{kind.lower()}"
        paths[kind].write_text(text)
    return paths


@settings(max_examples=300)
@given(verb=st.sampled_from(sorted(_VERB_FLAGS)), data=st.data())
def test_generated_argv_keeps_the_contract(tmp_path_factory, verb, data):
    paths = _argv_files(tmp_path_factory)
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(_VERB_FLAGS[verb]),
                                         st.sampled_from(_ARGV_TOKENS)),
                               max_size=5), label="flags")
    argv = [verb] + [str(paths.get(a, a)) for pair in pairs for a in pair]
    code, _, err = cli(*argv)
    assert code in (0, 1, 2, 3) and "Traceback" not in err


_DIAGONALIZE_WORDS = ["~", "0", "1", "00", "01", "10", "11", "011"]


@st.composite
def _fitting_argv(draw):
    """A call whose flags fit each other: a growth expression with as many
    --oracle and --n flags as its L and n variables need, a term with the
    --oracle and --arg counts its signature wants, or a walk over a valid
    martingale file with a small --depth."""
    verb = draw(st.sampled_from(["secpoly-eval", "eval", "check-bound",
                                 "diagonalize"]))
    if verb == "secpoly-eval":
        k, m = draw(st.integers(1, 2)), draw(st.integers(0, 2))
        argv = [verb, "--poly", draw(growth_expressions(k, m, 3))]
        argv += ["--oracle", "ORACLE"] * k
        for _ in range(m):
            argv += ["--n", str(draw(st.integers(0, 20)))]
        return argv + ["--radius", str(draw(st.integers(0, 8)))]
    if verb == "diagonalize":
        argv = [verb, "--file", "MARTINGALE",
                "--w", draw(st.sampled_from(_DIAGONALIZE_WORDS)),
                "--depth", str(draw(st.integers(0, 12)))]
        if draw(st.booleans()):
            argv += ["--margin", str(draw(st.integers(0, 8)))]
        return argv
    text, flags = draw(_term_calls())
    argv = [verb, "--term", text, *flags]
    if verb == "check-bound":
        k, m = flags.count("--oracle"), flags.count("--arg")
        return argv + ["--poly", draw(growth_expressions(k, m, 2))]
    return argv + (["--meter"] if draw(st.booleans()) else [])


@settings(max_examples=200)
@given(argv=_fitting_argv())
def test_fitting_argv_reaches_evaluation(tmp_path_factory, argv):
    # well-formed calls pass argument parsing: none is a usage error
    paths = _argv_files(tmp_path_factory)
    code, _, err = cli(*[str(paths.get(a, a)) for a in argv])
    assert code in (0, 1, 3) and "Traceback" not in err, (argv, err)


def test_unknown_verb_is_usage_error():
    assert cli("frobnicate")[0] == 2


def test_help_exits_zero():
    assert cli("--help")[0] == 0


def test_determinism_byte_identical(good_mg):
    first = cli("regularize", "--file", good_mg, "--w", "01", "--precision", "8")
    second = cli("regularize", "--file", good_mg, "--w", "01", "--precision", "8")
    assert first == second


def test_module_entry_point(good_mg):
    proc = subprocess.run(
        [sys.executable, "-m", "cantorbet.cli", "verify-martingale",
         "--file", good_mg],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "ok\n"


# ---------------------------------------------------------------------------
# dispatch: a verb's own parser reads the flags after it
# ---------------------------------------------------------------------------

def _parse(parser, argv):
    """The namespace's fields, or the exit status and stderr of a usage
    error."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, err.getvalue()


def _pinned_argvs():
    tests = Path(__file__).parent
    for name in ("pinned_outputs.json", "pinned_terms.json"):
        for row in json.loads((tests / name).read_text()):
            yield [a.replace("{dir}", "/nonexistent") for a in row[0]]


def test_a_verbs_parser_gives_the_full_parsers_namespace():
    parser, verbs = build_parser()
    argvs = list(_pinned_argvs())
    assert len(argvs) >= 800
    for argv in argvs:
        full = _parse(parser, argv)
        assert full.pop("verb") == argv[0]
        assert _parse(verbs[argv[0]], argv[1:]) == full, argv


@pytest.mark.parametrize("argv, code", [
    ([], 2), (["-h"], 0), (["--help"], 0), (["bogus"], 2), (["--version"], 2),
])
def test_argvs_without_a_verb_go_to_the_top_level_parser(argv, code):
    parser, _ = build_parser()
    got, out, err = cli(*argv)
    assert got == code
    if code:
        assert out == ""
        assert err.startswith(parser.format_usage())
        assert err.splitlines()[-1].startswith("cantorbet: error: ")
    else:
        assert out == parser.format_help() and err == ""


def test_unrecognized_arguments_are_reported_by_the_verb():
    code, out, err = cli("measure-value", "--expr", "(cyl 0)", "--measure",
                         "uniform", "--precision", "4", "--extra")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == \
        "cantorbet measure-value: error: unrecognized arguments: --extra"
    assert err.startswith("usage: cantorbet measure-value ")
