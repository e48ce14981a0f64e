"""Signed letters, words, run-length words, and the replacement rule.

Letter i+ is the int i and letter i- is the int -i, so the index of a letter
is its absolute value and its sign is its sign; in text form they are
written 1+, 1-, 2+, ... A rule built from a polynomial maps each of the 2m
signed letters to a short image word, and rewriting a word replaces every
letter by its image, in order. Adjacent opposite-sign letters are never
cancelled inside words; signs only interact later, in the count map.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from operator import itemgetter

from .errors import EngineOverflowError, IndexOutOfRangeError
from .polynomial import MonicPolynomial

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
    if sign not in (PLUS, MINUS):
        raise ValueError(f"sign must be PLUS or MINUS, got {sign!r}")
    return index if sign == PLUS else -index


def letter_text(l: int) -> str:
    """Text form of a letter, e.g. "3+" for 3 and "3-" for -3."""
    return f"{abs(l)}{'+' if l > 0 else '-'}"


@dataclass(frozen=True)
class Word:
    """Literal finite sequence of letters; the empty word is legal."""

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    @property
    def letter_count(self) -> int:
        return len(self.letters)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def flipped(self) -> "Word":
        return Word(tuple(-l for l in self.letters))

    def render(self) -> str:
        """Trace text form: space-separated letters, e.g. "1+ 1- 2+"."""
        return " ".join(map(letter_text, self.letters))

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class RleWord:
    """Run-length compressed word: ordered (letter, multiplicity) runs.

    Multiplicities must be positive; the constructor merges adjacent runs
    that carry the same letter, so stored runs are always in normal form.
    """

    runs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        merged = []
        for l, group in groupby(self.runs, key=itemgetter(0)):
            total = 0
            for _, k in group:
                if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                    raise ValueError(f"run multiplicity must be a positive integer, got {k!r}")
                total += k
            merged.append((l, total))
        object.__setattr__(self, "runs", tuple(merged))

    @property
    def letter_count(self) -> int:
        return sum(k for _, k in self.runs)

    def expand(self) -> Word:
        return Word(tuple(chain.from_iterable(repeat(l, k) for l, k in self.runs)))

    @classmethod
    def compress(cls, w: Word) -> "RleWord":
        # one run per letter; the constructor merges them into normal form
        return cls(tuple(zip(w.letters, repeat(1))))

    def flipped(self) -> "RleWord":
        return RleWord(tuple((-l, k) for l, k in self.runs))

    def render(self) -> str:
        """Trace text form with powers, e.g. "1+^3 2+"."""
        return " ".join(
            f"{letter_text(l)}^{k}" if k > 1 else letter_text(l) for l, k in self.runs
        )

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class ReplacementRule:
    """The rule of one polynomial; images are built from it when asked."""

    polynomial: MonicPolynomial

    @property
    def m(self) -> int:
        return self.polynomial.degree

    def image(self, l: int) -> RleWord:
        """The image of letter l (see build_rule), in run-length form, so a
        huge a_i costs nothing here."""
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
        return RleWord(tuple(runs))


def build_rule(p: MonicPolynomial) -> ReplacementRule:
    """The rule of p: letter i maps to a_i copies of letter 1 (sign-encoded),
    then the letter itself, then letter i+1 (dropped for i = m).

    The powered letter is always letter 1, whatever the row. Minus-letter
    images are the plus-letter images with every sign flipped.
    """
    return ReplacementRule(p)


def rewrite(rule: ReplacementRule, w, cap: int = WORD_CAP_DEFAULT):
    """One parallel replacement step; output representation matches the input.

    The output length is known from the letter tally and the image lengths
    alone, so the cap is checked before any image or output is expanded. An
    RleWord is rewritten as its expansion and compressed again; normal form
    makes the result unique.
    """
    rle = isinstance(w, RleWord)
    if rle:
        tally = Counter()
        for l, k in w.runs:
            tally[l] += k
    else:
        tally = Counter(w.letters)
    images = {l: rule.image(l) for l in tally}
    predicted = sum(k * images[l].letter_count for l, k in tally.items())
    if predicted > cap:
        raise EngineOverflowError(
            f"rewrite would produce {predicted} letters, over the cap of {cap}; "
            "use `symroot run` (or iterate_counts in the library) for deep iteration"
        )
    expanded = {l: image.expand().letters for l, image in images.items()}
    letters = w.expand().letters if rle else w.letters
    out = Word(tuple(chain.from_iterable(map(expanded.__getitem__, letters))))
    return RleWord.compress(out) if rle else out


def iterate_words(rule: ReplacementRule, w0, i: int, cap: int = WORD_CAP_DEFAULT):
    """W_0 .. W_i by repeated rewriting.

    On overflow the raised error carries the failing depth and the tuple of
    words that were completed before it.
    """
    if i < 0:
        raise ValueError("iteration count must be nonnegative")
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
