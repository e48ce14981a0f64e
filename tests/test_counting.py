import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from symroot import (
    MINUS,
    PLUS,
    CountVector,
    RleWord,
    Word,
    build_rule,
    count_word,
    default_initial_word,
    iterate_counts,
    iterate_words,
    iteration_matrix,
    letter,
    rewrite,
    verify_commutation,
)
from symroot.counting import _UNROLL_MAX, _run, _runner, _step, step_counts
from symroot.errors import DimensionMismatchError, IndexOutOfRangeError
from symroot.polynomial import MonicPolynomial
from symroot.rewriting import letter_text


def w(text: str) -> Word:
    if not text:
        return Word()
    return Word(
        tuple(letter(int(t[:-1]), PLUS if t[-1] == "+" else MINUS) for t in text.split())
    )


def test_count_word_basic():
    assert count_word(Word(), 2) == CountVector((0, 0))
    assert count_word(w("1+ 1-"), 2) == CountVector((0, 0))
    assert count_word(w("1+ 2- 2- 1+"), 3) == CountVector((2, -2, 0))


def test_count_word_rle_uses_multiplicities():
    r = RleWord.compress(Word((letter(1, MINUS),) * 4 + (letter(2, PLUS),) * 7))
    assert count_word(r, 2) == CountVector((-4, 7))


def test_count_word_index_out_of_range():
    with pytest.raises(IndexOutOfRangeError):
        count_word(w("3+"), 2)


def test_count_word_rejects_letters_outside_alphabet():
    # 0 is no letter: read as index abs(0) it would land in n_m
    for word in (Word((0,)), w("1+ 3-"), RleWord((0, 0))):
        with pytest.raises(IndexOutOfRangeError):
            count_word(word, 2)
    with pytest.raises(IndexOutOfRangeError, match=r"^letter 3- does not fit m = 2$"):
        count_word(w("1+ 3-"), 2)


def test_count_second_iterate_with_negative_coefficient():
    # W_2 for a=(3,-1) holds 16 of 1+, one 1-, five 2+
    rule = build_rule(MonicPolynomial((3, -1)))
    w2 = iterate_words(rule, default_initial_word(), 2)[2]
    assert Counter(map(letter_text, w2)) == {"1+": 16, "1-": 1, "2+": 5}
    assert count_word(w2, 2) == CountVector((15, 5))


def test_step_counts_examples():
    M = iteration_matrix(MonicPolynomial((1, 1)))
    assert step_counts(M, CountVector((1, 0))) == CountVector((2, 1))
    M2 = iteration_matrix(MonicPolynomial((3, -1)))
    assert step_counts(M2, CountVector((4, 1))) == CountVector((15, 5))
    assert step_counts(M2, CountVector((0, 0))) == CountVector((0, 0))
    # row 1 weighs n_1 once plus a_i n_i, row 2 is n_1 + n_2: 5 + 2*5 + 3*7, 5 + 7
    M3 = iteration_matrix(MonicPolynomial((2, 3)))
    assert step_counts(M3, CountVector((5, 7))) == CountVector((36, 12))


def test_step_counts_dimension_mismatch():
    M = iteration_matrix(MonicPolynomial((1, 1)))
    with pytest.raises(DimensionMismatchError):
        step_counts(M, CountVector((1, 2, 3)))


def test_iterate_counts_fibonacci():
    M = iteration_matrix(MonicPolynomial((1, 1)))
    vs = iterate_counts(M, CountVector.unit(2), 3)
    assert [v.n for v in vs] == [(1, 0), (2, 1), (5, 3), (13, 8)]


def test_iterate_counts_cubic():
    M = iteration_matrix(MonicPolynomial((0, 1, 1)))
    vs = iterate_counts(M, CountVector.unit(3), 2)
    assert [v.n for v in vs] == [(1, 0, 0), (1, 1, 0), (2, 2, 1)]


def test_iterate_counts_zero_is_fixed():
    M = iteration_matrix(MonicPolynomial((7, -2)))
    vs = iterate_counts(M, CountVector((0, 0)), 5)
    assert not any(any(v.n) for v in vs)


def test_fibonacci_closed_form_at_ten():
    M = iteration_matrix(MonicPolynomial((1, 1)))
    vs = iterate_counts(M, CountVector.unit(2), 10)
    assert vs[10] == CountVector((10946, 6765))
    # v_i = (F_{2i+1}, F_{2i}) for the whole run
    fib = [0, 1]
    while len(fib) < 22:
        fib.append(fib[-1] + fib[-2])
    for i, v in enumerate(vs):
        assert v.n == (fib[2 * i + 1], fib[2 * i])


def test_verify_commutation_examples():
    rule = build_rule(MonicPolynomial((1, 1)))
    assert verify_commutation(rule, Word())
    assert verify_commutation(rule, w("1+ 2-"))
    lhs = count_word(rewrite(rule, w("1+ 2-")), 2)
    assert lhs == CountVector((1, 0))


small_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=5).map(
    lambda a: MonicPolynomial(tuple(a))
)


@st.composite
def rule_word_pairs(draw, max_len=50):
    p = draw(small_polys)
    pairs = draw(
        st.lists(
            st.tuples(st.integers(1, p.degree), st.sampled_from((PLUS, MINUS))),
            max_size=max_len,
        )
    )
    return build_rule(p), Word(tuple(letter(i, s) for i, s in pairs))


@given(rule_word_pairs())
def test_commutation_holds_for_random_words(rw):
    rule, word = rw
    assert verify_commutation(rule, word)


@given(rule_word_pairs(), rule_word_pairs())
def test_count_is_additive(rw1, rw2):
    rule, u = rw1
    _, v = rw2
    m = max(rule.m, max((abs(l) for l in v), default=1))
    total = zip(count_word(u, m).n, count_word(v, m).n)
    assert count_word(Word(u.letters + v.letters), m).n == tuple(x + y for x, y in total)


# depth 6 keeps the worst literal expansion (growth factor |a_i|+2 <= 6)
# far below the cap; deeper equivalence is covered by the acceptance suite
@settings(deadline=None)
@given(small_polys, st.integers(0, 6))
def test_engine_equivalence(p, depth):
    rule = build_rule(p)
    M = iteration_matrix(p)
    vs = iterate_counts(M, CountVector.unit(p.degree), depth)
    words = iterate_words(rule, default_initial_word(), depth, cap=10**6)
    rles = iterate_words(rule, RleWord.compress(default_initial_word()), depth, cap=10**6)
    for k in range(depth + 1):
        assert count_word(words[k], p.degree) == vs[k]
        assert count_word(rles[k], p.degree) == vs[k]


@given(small_polys, st.lists(st.integers(-30, 30), min_size=1, max_size=5), st.integers(0, 10))
def test_negation_equivariance(p, raw, depth):
    v0 = CountVector(tuple((raw * p.degree)[: p.degree]))
    M = iteration_matrix(p)
    plus = iterate_counts(M, v0, depth)
    minus = iterate_counts(M, CountVector(tuple(-x for x in v0.n)), depth)
    for a, b in zip(plus, minus):
        assert b.n == tuple(-x for x in a.n)


# zero, small signed and 1000-bit counts and coefficients
step_ints = st.one_of(st.just(0), st.integers(-50, 50), st.integers(-(2**1000), 2**1000))


@settings(deadline=None)
@given(st.data())
def test_unrolled_step_matches_the_generic_step(data):
    # the loop kernel's unrolled rows at every degree it unrolls, and _run
    # just past the cap: from x = nan one step meets stop = 1 and hands back
    # _step's counts, whatever s, the strip and the pretest constant c
    m = data.draw(st.integers(2, _UNROLL_MAX + 2))
    s = data.draw(st.integers(0, m))
    strip = data.draw(st.booleans())
    a = tuple(data.draw(st.lists(step_ints, min_size=m, max_size=m)))
    n = tuple(data.draw(st.lists(step_ints, min_size=m, max_size=m)))
    c = data.draw(step_ints)
    assert _runner(m, s, strip)(a, n, math.nan, 0, 1, c, 0.0)[:3] == (1, n, _step(a, n))


def test_runner_takes_no_coefficient_text():
    # a coefficient past CPython's 4300-digit int->str limit cannot be
    # written into source, yet a freshly built loop kernel steps with it
    # exactly: its source depends on m, s and the strip alone. From x = nan
    # it hands back after one step, its counts _step's and nothing stripped,
    # with the pretest constant c past 2^53 (the exact s = 1 pretest) or not
    a, n = (10**5000, -(10**4400), 7), (3, -2, 10**4500)
    for s, c, strip in itertools.product(range(4), (-(10**4600), 5), (False, True)):
        args = (a, n, math.nan, 0, 100, c, 0.0)
        got, want = _runner.__wrapped__(3, s, strip)(*args), _run(s, strip, *args)
        assert got[:3] == want[:3] == (1, n, _step(a, n))
        assert got[5] == want[5] == 0


def test_runner_is_built_once_per_degree_and_s():
    # one compiled kernel per (m, s, strip) up to _UNROLL_MAX, each built on
    # its first use and reused after; above it, _run with s and strip bound
    _runner.cache_clear()
    keys = [(m, s, strip) for m in (2, 3, 5, _UNROLL_MAX) for s in range(m + 1)
            for strip in (False, True)]
    kernels = [_runner(*key) for key in keys]
    assert _runner.cache_info().currsize == len(keys)
    assert [_runner(*key) for key in keys] == kernels
    assert _runner.cache_info().currsize == len(keys)
    assert len({id(f) for f in kernels}) == len(keys)
    assert all(f.__name__ == "run" for f in kernels)
    for s, strip in itertools.product(range(3), (False, True)):
        f = _runner(_UNROLL_MAX + 1, s, strip)
        assert (f.func, f.args) == (_run, (s, strip))
        assert _runner(_UNROLL_MAX + 1, s, strip) is f


def test_import_compiles_no_step_kernel():
    # site off (-S): importing the CLI builds no kernel, so a run's set-up
    # time does not carry one; the first run of a degree builds its count
    # loop's kernel, and the replay of its history, which runs _step, none
    child = (
        "import symroot.cli, symroot.counting as c\n"
        "print(c._runner.cache_info().currsize)\n"
        "r = symroot.estimate_root(symroot.parse_polynomial('x^2 - x - 1'))\n"
        "print(c._runner.cache_info().currsize)\n"
        "tuple(r.history)\n"
        "print(c._runner.cache_info().currsize)\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", child],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "1", "1"]
