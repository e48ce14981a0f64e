"""End-to-end checks, one per shipped guarantee.

Each test prints a single "criterion NN PASS/FAIL" line so a transcript of
this file doubles as a checklist. Tolerances here are contractual; do not
loosen them to make a failing build green.
"""

import functools
import json
import random
import time
from fractions import Fraction

from symroot.cli import main
from symroot.counting import count_word, iterate_counts, verify_commutation
from symroot.errors import EngineOverflowError
from symroot.polynomial import MonicPolynomial, iteration_matrix, parse_polynomial
from symroot.rewriting import (
    MINUS,
    PLUS,
    RleWord,
    Word,
    build_rule,
    default_initial_word,
    iterate_words,
    letter,
)

def criterion(n, description):
    def deco(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n:02d} FAIL: {description}")
                raise
            print(f"criterion {n:02d} PASS: {description}")

        return run

    return deco


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@criterion(1, "golden ratio to 1e-12 within 64 iterations, under a second")
def test_criterion_01_golden_ratio(capsys):
    t0 = time.perf_counter()
    code, d = run_json(capsys, "run", "--poly", "x^2 - x - 1", "--iters", "64", "--format", "json")
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert d["status"] == "Converged"
    assert d["iterations"] <= 64
    final = Fraction(int(d["final"]["num"]), int(d["final"]["den"]))
    assert abs(final - Fraction("1.6180339887498949")) <= Fraction(1, 10**12)
    assert elapsed < 1.0


@criterion(2, "plastic number to 1e-10, cross-index ratios within 1e-9")
def test_criterion_02_plastic_number(capsys):
    code, d = run_json(capsys, "run", "--poly", "x^3 - x - 1", "--iters", "128", "--format", "json")
    assert code == 0
    assert d["status"] == "Converged"
    assert d["iterations"] <= 128
    final = Fraction(int(d["final"]["num"]), int(d["final"]["den"]))
    assert abs(final - Fraction("1.3247179572447460")) <= Fraction(1, 10**10)
    last = d["history"][-1]["ratios"]
    assert [r["j"] for r in last] == [1, 2]
    values = [Fraction(int(r["num"]), int(r["den"])) for r in last]
    assert abs(values[0] - values[1]) <= Fraction(1, 10**9)


@criterion(3, "cube root of two to 1e-8 within 128 iterations")
def test_criterion_03_cube_root_of_two(capsys):
    code, d = run_json(capsys, "run", "--poly", "x^3 - 2", "--iters", "128", "--format", "json")
    assert code == 0
    assert d["status"] == "Converged"
    assert d["iterations"] <= 128
    final = Fraction(int(d["final"]["num"]), int(d["final"]["den"]))
    assert abs(final - Fraction("1.2599210498948732")) <= Fraction(1, 10**8)


@criterion(4, "counting commutes with rewriting on 1000 random cases in under 5s")
def test_criterion_04_commutation_fuzz():
    rng = random.Random(404)
    t0 = time.perf_counter()
    rules = {}
    for _ in range(1000):
        m = rng.randint(1, 5)
        a = tuple(rng.randint(-4, 4) for _ in range(m))
        rule = rules.get(a)
        if rule is None:
            rule = rules[a] = build_rule(MonicPolynomial(a))
        length = rng.randint(0, 50)
        w = Word(
            tuple(
                letter(rng.randint(1, m), rng.choice((PLUS, MINUS)))
                for _ in range(length)
            )
        )
        assert verify_commutation(rule, w)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0


@criterion(5, "word, run-length, and count engines agree on 50 random polynomials")
def test_criterion_05_engine_equivalence():
    rng = random.Random(505)
    for _ in range(50):
        m = rng.randint(1, 4)
        a = tuple(rng.randint(-3, 3) for _ in range(m))
        p = MonicPolynomial(a)
        rule = build_rule(p)
        M = iteration_matrix(p)
        w0 = default_initial_word()
        words = iterate_words(rule, w0, 8)
        rles = iterate_words(rule, RleWord.compress(w0), 8)
        counts = iterate_counts(M, count_word(w0, m), 8)
        assert len(words) == len(rles) == len(counts) == 9
        for w, r, v in zip(words, rles, counts):
            assert r.letters == w.letters
            assert count_word(w, m) == v


@criterion(6, "ten iterations on x^2 - x - 1 give counts (10946, 6765) exactly")
def test_criterion_06_fibonacci_counts():
    p = parse_polynomial("x^2 - x - 1")
    vs = iterate_counts(iteration_matrix(p), count_word(default_initial_word(), 2), 10)
    assert vs[10].n == (10946, 6765)


@criterion(7, "x^2 + 2x + 2 is reported NoRealLimit within 200 iterations, exit 2")
def test_criterion_07_no_real_limit(capsys):
    code, d = run_json(capsys, "run", "--poly", "x^2 + 2x + 2", "--iters", "200", "--format", "json")
    assert code == 2
    assert d["status"] == "NoRealLimit"
    assert d["iterations"] <= 200
    assert d["final"] is None


@criterion(8, "x^2 + 3x + 1 converges to -2.6180339887 but the oracle disagrees, exit 4")
def test_criterion_08_dominant_is_not_largest(capsys):
    code, d = run_json(capsys, "run", "--poly", "x^2 + 3x + 1", "--format", "json")
    assert code == 4
    assert d["status"] == "Converged"
    final = Fraction(int(d["final"]["num"]), int(d["final"]["den"]))
    assert abs(final - Fraction("-2.6180339887")) <= Fraction(1, 10**9)
    assert d["oracle"]["agrees"] is False
    assert abs(Fraction(repr(d["oracle"]["float"])) - Fraction("-0.3819660113")) <= Fraction(1, 10**9)


@criterion(9, "literal words overflow safely at depth 60 while counts stay fast")
def test_criterion_09_overflow_and_count_speed():
    p = parse_polynomial("x^2 - x - 1")
    rule = build_rule(p)
    try:
        iterate_words(rule, default_initial_word(), 60)
    except EngineOverflowError as e:
        assert e.depth == 17  # first length over the ten-million cap
        assert len(e.partial) == e.depth
    else:
        raise AssertionError("expected the word engine to refuse depth 60")
    t0 = time.perf_counter()
    vs = iterate_counts(iteration_matrix(p), count_word(default_initial_word(), 2), 60)
    elapsed = time.perf_counter() - t0
    assert len(vs) == 61
    assert all(x > 0 for x in vs[60].n)
    assert elapsed < 0.1


@criterion(10, "verify --samples 1000 --seed 7 is byte-identical across runs")
def test_criterion_10_determinism(capsys):
    argv = ["verify", "--poly", "x^3 - x - 1", "--samples", "1000", "--seed", "7"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert "commutation: 1000/1000 exact" in out1
