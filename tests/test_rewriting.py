from itertools import chain, repeat

import pytest
from hypothesis import given, strategies as st

from symroot import (
    MINUS,
    PLUS,
    EngineOverflowError,
    RleWord,
    Word,
    build_rule,
    default_initial_word,
    iterate_words,
    letter,
    rewrite,
)
from symroot.counting import verify_commutation
from symroot.errors import IndexOutOfRangeError, InvalidOptionError
from symroot.polynomial import MonicPolynomial
from symroot.rewriting import letter_text


def w(text: str) -> Word:
    """Inverse of Word.render for terse test fixtures, e.g. w("1+ 2- 1+")."""
    if not text:
        return Word()
    out = []
    for tok in text.split():
        out.append(letter(int(tok[:-1]), PLUS if tok[-1] == "+" else MINUS))
    return Word(tuple(out))


def expand(runs) -> Word:
    """The word of a rule image's (letter, multiplicity) runs."""
    return Word(tuple(chain.from_iterable(repeat(l, k) for l, k in runs)))


def flip(word: Word) -> Word:
    return Word(tuple(-l for l in word))


def test_build_rule_golden():
    rule = build_rule(MonicPolynomial((1, 1)))
    assert expand(rule.image(letter(1, PLUS))) == w("1+ 1+ 2+")
    assert expand(rule.image(letter(2, PLUS))) == w("1+ 2+")


def test_build_rule_negative_coefficient():
    rule = build_rule(MonicPolynomial((3, -1)))
    assert expand(rule.image(letter(2, PLUS))) == w("1- 2+")
    assert expand(rule.image(letter(2, MINUS))) == w("1+ 2-")


def test_build_rule_zero_power_vanishes():
    rule = build_rule(MonicPolynomial((0, 0, 2)))
    assert expand(rule.image(letter(1, PLUS))) == w("1+ 2+")
    assert expand(rule.image(letter(3, PLUS))) == w("1+ 1+ 3+")


def test_minus_images_are_sign_flips():
    rule = build_rule(MonicPolynomial((2, -3, 5)))
    for i in (1, 2, 3):
        plus = rule.image(letter(i, PLUS))
        minus = rule.image(letter(i, MINUS))
        assert minus == tuple((-l, k) for l, k in plus)


def test_rule_image_out_of_range():
    rule = build_rule(MonicPolynomial((1, 1)))
    with pytest.raises(IndexOutOfRangeError):
        rule.image(letter(3, PLUS))


def test_rewrite_examples():
    rule = build_rule(MonicPolynomial((1, 1)))
    assert rewrite(rule, Word()) == Word()
    out = rewrite(rule, w("1+ 1+ 2+"))
    assert len(out) == 8
    assert out == w("1+ 1+ 2+ 1+ 1+ 2+ 1+ 2+")
    single = rewrite(rule, w("2+"))
    assert single == expand(rule.image(letter(2, PLUS)))


def test_rewrite_rejects_foreign_letters():
    rule = build_rule(MonicPolynomial((1, 1)))
    with pytest.raises(IndexOutOfRangeError):
        rewrite(rule, w("1+ 5+"))
    with pytest.raises(IndexOutOfRangeError):
        rewrite(rule, RleWord.compress(w("5-")))


def test_foreign_letter_messages():
    rule = build_rule(MonicPolynomial((1, 1)))
    with pytest.raises(IndexOutOfRangeError, match=r"^letter 5\+ is outside the rule's alphabet \(m = 2\)$"):
        rewrite(rule, w("1+ 5+"))
    with pytest.raises(IndexOutOfRangeError, match=r"^letter 5- is outside"):
        rewrite(rule, RleWord.compress(w("5-")))
    with pytest.raises(IndexOutOfRangeError, match=r"^letter 5\+ is outside"):
        rule.image(letter(5, PLUS))
    # the cap is checked after the alphabet, so a foreign letter is named first
    with pytest.raises(IndexOutOfRangeError, match=r"^letter 3- is outside"):
        rewrite(rule, w("1+ 1+ 3-"), cap=1)


def test_iterate_words_golden():
    rule = build_rule(MonicPolynomial((1, 1)))
    words = iterate_words(rule, default_initial_word(), 2)
    assert [len(x) for x in words] == [1, 3, 8]
    assert words[0] == w("1+")


def test_iterate_words_zero_iterations():
    rule = build_rule(MonicPolynomial((1, 1)))
    assert iterate_words(rule, w("2+ 1-"), 0) == (w("2+ 1-"),)


def test_iterate_words_degree_one():
    rule = build_rule(MonicPolynomial((2,)))
    words = iterate_words(rule, default_initial_word(), 3)
    assert [len(x) for x in words] == [1, 3, 9, 27]


def test_rewrite_overflow_precheck():
    rule = build_rule(MonicPolynomial((1, 1)))
    with pytest.raises(EngineOverflowError):
        rewrite(rule, w("1+ 1+ 1+"), cap=8)
    # exactly at the cap is fine
    assert len(rewrite(rule, w("1+ 1+"), cap=6)) == 6


def test_iterate_words_overflow_carries_depth_and_partials():
    rule = build_rule(MonicPolynomial((1, 1)))
    with pytest.raises(EngineOverflowError) as e:
        iterate_words(rule, default_initial_word(), 10, cap=25)
    # lengths run 1, 3, 8, 21, 55; 55 > 25 stops iterate 4
    assert e.value.depth == 4
    assert [len(x) for x in e.value.partial] == [1, 3, 8, 21]


def test_rle_normal_form():
    # the rendering shows each maximal run of one letter once; opposite
    # signs never merge
    a, b = letter(1, PLUS), letter(2, PLUS)
    r = RleWord((a, a, a, a, a, b))
    assert r.render() == "1+^5 2+"
    assert r.letter_count == 6
    assert RleWord((a, -a)).render() == "1+ 1-"
    assert RleWord((a, b, a)).render() == "1+ 2+ 1+"


def test_rle_round_trip_and_render():
    word = w("1+ 1+ 1+ 2+ 1-")
    r = RleWord.compress(word)
    assert r.letters == word.letters
    assert r.render() == "1+^3 2+ 1-"
    assert str(r) == r.render()
    assert word.render() == "1+ 1+ 1+ 2+ 1-"


def test_letter_encoding_and_text():
    # i+ is the int i and i- is -i: the index is the absolute value
    assert letter(1, PLUS) == 1
    assert letter(3, MINUS) == -3
    assert letter(2, MINUS) == -letter(2, PLUS)
    assert Word((letter(1, PLUS),)).letters[0] == 1
    assert letter_text(letter(3, MINUS)) == "3-"
    assert letter_text(letter(12, PLUS)) == "12+"


def test_letter_validation():
    for index in (0, -1, True, 1.0, "1"):
        with pytest.raises(IndexOutOfRangeError):
            letter(index, PLUS)
    for sign in (0, 2, -2, None, True, False, 1.0, -1.0):
        with pytest.raises(InvalidOptionError):
            letter(1, sign)


@pytest.mark.parametrize("cap", [True, 0, -1, 2.5, None, "x"])
def test_rewrite_rejects_a_cap_that_is_no_positive_integer(cap):
    # the --word-cap rule: a non-bool int >= 1, checked by rewrite, and so
    # for iterate_words and verify_commutation too
    rule, w0 = build_rule(MonicPolynomial((1, 1))), default_initial_word()
    for call in (
        lambda: rewrite(rule, w0, cap=cap),
        lambda: iterate_words(rule, w0, 2, cap=cap),
        lambda: verify_commutation(rule, w0, cap=cap),
    ):
        with pytest.raises(InvalidOptionError):
            call()


small_polys = st.lists(st.integers(-4, 4), min_size=1, max_size=5).map(
    lambda a: MonicPolynomial(tuple(a))
)


@st.composite
def rule_and_letter_lists(draw, n_lists=1, max_len=50):
    p = draw(small_polys)
    rule = build_rule(p)
    lists = []
    for _ in range(n_lists):
        pairs = draw(
            st.lists(
                st.tuples(st.integers(1, p.degree), st.sampled_from((PLUS, MINUS))),
                max_size=max_len,
            )
        )
        lists.append(Word(tuple(letter(i, s) for i, s in pairs)))
    return (rule, *lists)


@given(rule_and_letter_lists(n_lists=2))
def test_rewrite_is_a_homomorphism(rw):
    rule, u, v = rw
    joined = rewrite(rule, u).letters + rewrite(rule, v).letters
    assert rewrite(rule, Word(u.letters + v.letters)) == Word(joined)


@given(rule_and_letter_lists())
def test_length_law(rw):
    rule, word = rw
    m = rule.m
    a = rule.polynomial.a
    expected = sum(abs(a[abs(l) - 1]) + (2 if abs(l) < m else 1) for l in word)
    assert len(rewrite(rule, word)) == expected


@given(rule_and_letter_lists())
def test_representation_equivalence(rw):
    rule, word = rw
    out = rewrite(rule, RleWord.compress(word))
    assert type(out) is RleWord
    assert out.letters == rewrite(rule, word).letters


@given(rule_and_letter_lists())
def test_sign_symmetry(rw):
    rule, word = rw
    assert rewrite(rule, flip(word)) == flip(rewrite(rule, word))


@given(rule_and_letter_lists())
def test_rewrite_is_deterministic(rw):
    rule, word = rw
    assert rewrite(rule, word) == rewrite(rule, word)
    r = RleWord.compress(word)
    assert rewrite(rule, r) == rewrite(rule, r)
