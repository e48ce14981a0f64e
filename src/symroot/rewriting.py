"""Signed letters, words, and the replacement rule.

Letter i+ is the int i and letter i- is the int -i, so the index of a letter
is its absolute value and its sign is its sign; in text form they are
written 1+, 1-, 2+, ... A rule built from a polynomial maps each of the 2m
signed letters to a short image word, and rewriting a word replaces every
letter by its image, in order. Adjacent opposite-sign letters are never
cancelled inside words; signs only interact later, in the count map.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, groupby, repeat

from .errors import EngineOverflowError, IndexOutOfRangeError, InvalidOptionError
from .polynomial import FrozenValue, MonicPolynomial

__all__ = [
    "PLUS",
    "MINUS",
    "letter",
    "Word",
    "RleWord",
    "build_rule",
    "rewrite",
    "iterate_words",
    "default_initial_word",
]

PLUS = 1
MINUS = -1

# literal words grow geometrically under rewriting; past this many letters
# rewriting refuses and points at the counts-only paths instead
WORD_CAP_DEFAULT = 10_000_000


def letter(index: int, sign: int) -> int:
    """The letter with a 1-based index and a sign: index for PLUS, -index for MINUS."""
    if isinstance(index, bool) or not isinstance(index, int) or index < 1:
        raise IndexOutOfRangeError(f"letter index must be a positive integer, got {index!r}")
    # True and 1.0 equal PLUS; they are rejected as a bool index is
    if isinstance(sign, bool) or not isinstance(sign, int) or sign not in (PLUS, MINUS):
        raise InvalidOptionError(f"sign must be PLUS or MINUS, got {sign!r}")
    return index if sign == PLUS else -index


def letter_text(l: int) -> str:
    """Text form of a letter, e.g. "3+" for 3 and "3-" for -3."""
    return f"{abs(l)}{'+' if l > 0 else '-'}"


class Word(FrozenValue):
    """Literal finite sequence of letters; the empty word is legal."""

    __slots__ = _fields = ("letters",)

    def __init__(self, letters: tuple[int, ...] = ()) -> None:
        self._assign(tuple(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    letter_count = property(__len__)

    def render(self) -> str:
        """Trace text form: space-separated letters, e.g. "1+ 1- 2+"."""
        return " ".join(map(letter_text, self.letters))

    def __str__(self) -> str:
        return self.render()


class RleWord(Word):
    """A Word that renders in run-length form; its letters are the word's own."""

    __slots__ = ()

    @classmethod
    def compress(cls, w: Word) -> "RleWord":
        return cls(w.letters)

    def render(self) -> str:
        """Trace text form with powers, e.g. "1+^3 2+"."""
        runs = ((l, sum(1 for _ in group)) for l, group in groupby(self.letters))
        return " ".join(f"{letter_text(l)}^{k}" if k > 1 else letter_text(l) for l, k in runs)


class ReplacementRule(FrozenValue):
    """The rule of one polynomial; images are built from it when asked."""

    __slots__ = _fields = ("polynomial",)

    def __init__(self, polynomial: MonicPolynomial) -> None:
        self._assign(polynomial)

    @property
    def m(self) -> int:
        return self.polynomial.degree

    def image(self, l: int) -> tuple[tuple[int, int], ...]:
        """The image of letter l (see build_rule) as (letter, multiplicity)
        runs, so a huge a_i costs nothing here."""
        i = abs(l)
        if not 1 <= i <= self.m:
            raise IndexOutOfRangeError(
                f"letter {letter_text(l)} is outside the rule's alphabet (m = {self.m})"
            )
        sign = PLUS if l > 0 else MINUS
        a = self.polynomial.a[i - 1]
        # letter 1 with a sign is that sign itself
        runs = [(sign if a > 0 else -sign, abs(a))] if a else []
        runs.append((l, 1))
        if i < self.m:
            runs.append((sign * (i + 1), 1))
        return tuple(runs)


def build_rule(p: MonicPolynomial) -> ReplacementRule:
    """The rule of p: letter i maps to a_i copies of letter 1 (sign-encoded),
    then the letter itself, then letter i+1 (dropped for i = m).

    The powered letter is always letter 1, whatever the row. Minus-letter
    images are the plus-letter images with every sign flipped.
    """
    return ReplacementRule(p)


def rewrite(rule: ReplacementRule, w: Word, cap: int = WORD_CAP_DEFAULT) -> Word:
    """One parallel replacement step; the output has the input's type.

    The output length is known from the letter tally and the run lengths of
    the images alone, so the cap is checked before any image or output is
    expanded. cap must be a positive integer, as --word-cap must.
    """
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise InvalidOptionError(f"cap must be a positive integer, got {cap!r}")
    tally = Counter(w.letters)
    images = {l: rule.image(l) for l in tally}
    predicted = sum(k * sum(r for _, r in images[l]) for l, k in tally.items())
    if predicted > cap:
        raise EngineOverflowError(
            f"rewrite would produce {predicted} letters, over the cap of {cap}; "
            "use `symroot run` (or iterate_counts in the library) for deep iteration"
        )
    expanded = {
        l: tuple(chain.from_iterable(repeat(x, r) for x, r in runs)) for l, runs in images.items()
    }
    return type(w)(tuple(chain.from_iterable(map(expanded.__getitem__, w.letters))))


def iterate_words(rule: ReplacementRule, w0, i: int, cap: int = WORD_CAP_DEFAULT):
    """W_0 .. W_i by repeated rewriting.

    On overflow the raised error carries the failing depth and the tuple of
    words that were completed before it.
    """
    if isinstance(i, bool) or not isinstance(i, int) or i < 0:
        raise InvalidOptionError(f"iteration count must be a nonnegative integer, got {i!r}")
    words = [w0]
    for k in range(1, i + 1):
        try:
            words.append(rewrite(rule, words[-1], cap=cap))
        except EngineOverflowError as e:
            raise EngineOverflowError(
                f"iterate {k}: {e}", depth=k, partial=tuple(words)
            ) from None
    return tuple(words)


def default_initial_word() -> Word:
    """The generic starting word: the single letter 1+ (count vector e_1)."""
    return Word((letter(1, PLUS),))
