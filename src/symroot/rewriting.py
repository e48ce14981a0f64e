"""Signed letters, words, run-length words, and the replacement rule.

Letters are written 1+, 1-, 2+, ... in text form. A rule built from a
polynomial maps each of the 2m signed letters to a short image word, and
rewriting a word replaces every letter by its image, in order. Adjacent
opposite-sign letters are never cancelled inside words; signs only interact
later, in the count map.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby, repeat
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

_SIGN_TEXT = {PLUS: "+", MINUS: "-"}


@dataclass(frozen=True)
class Letter:
    """One signed symbol with a 1-based index, rendered as e.g. "3+"."""

    index: int
    sign: int

    def __post_init__(self) -> None:
        if isinstance(self.index, bool) or not isinstance(self.index, int) or self.index < 1:
            raise IndexOutOfRangeError(
                f"letter index must be a positive integer, got {self.index!r}"
            )
        if self.sign not in (PLUS, MINUS):
            raise ValueError(f"sign must be PLUS or MINUS, got {self.sign!r}")

    def flipped(self) -> "Letter":
        return letter(self.index, -self.sign)

    def __str__(self) -> str:
        return f"{self.index}{_SIGN_TEXT[self.sign]}"


_letter_cache: dict[tuple[int, int], Letter] = {}


def letter(index: int, sign: int) -> Letter:
    """Shared Letter instances: long words hold many references, few objects."""
    key = (index, sign)
    got = _letter_cache.get(key)
    if got is None:
        got = _letter_cache.setdefault(key, Letter(index, sign))
    return got


@dataclass(frozen=True)
class Word:
    """Literal finite sequence of letters; the empty word is legal."""

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    @property
    def letter_count(self) -> int:
        return len(self.letters)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def flipped(self) -> "Word":
        return Word(tuple(l.flipped() for l in self.letters))

    def render(self) -> str:
        """Trace text form: space-separated letters, e.g. "1+ 1- 2+"."""
        return " ".join(str(l) for l in self.letters)

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class RleWord:
    """Run-length compressed word: ordered (letter, multiplicity) runs.

    Multiplicities must be positive; the constructor merges adjacent runs
    that carry the same letter, so stored runs are always in normal form.
    """

    runs: tuple[tuple[Letter, int], ...] = ()

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
        out: list[Letter] = []
        for l, k in self.runs:
            out.extend([l] * k)
        return Word(tuple(out))

    @classmethod
    def compress(cls, w: Word) -> "RleWord":
        # one run per letter; the constructor merges them into normal form
        return cls(tuple(zip(w.letters, repeat(1))))

    def __add__(self, other: "RleWord") -> "RleWord":
        return RleWord(self.runs + other.runs)

    def flipped(self) -> "RleWord":
        return RleWord(tuple((l.flipped(), k) for l, k in self.runs))

    def render(self) -> str:
        """Trace text form with powers, e.g. "1+^3 2+"."""
        return " ".join(f"{l}^{k}" if k > 1 else str(l) for l, k in self.runs)

    def __str__(self) -> str:
        return self.render()


def signed_power(index: int, sign: int, k: int) -> RleWord:
    """|k| copies of the letter, with the sign flipped when k < 0; empty at k = 0."""
    if k == 0:
        return RleWord()
    out_sign = sign if k > 0 else -sign
    return RleWord(((letter(index, out_sign), abs(k)),))


@dataclass(frozen=True)
class ReplacementRule:
    """Images of all 2m signed letters for one polynomial's rule."""

    polynomial: MonicPolynomial
    images: dict

    def __post_init__(self) -> None:
        # image lengths let rewrite check its cap before building anything;
        # literal images are expanded only once a rewrite that uses them has
        # passed that check, so a huge coefficient costs nothing until then
        lengths = {l: img.letter_count for l, img in self.images.items()}
        object.__setattr__(self, "_lengths", lengths)
        object.__setattr__(self, "_expanded", {})

    @property
    def m(self) -> int:
        return self.polynomial.degree

    def image(self, l: Letter) -> RleWord:
        got = self.images.get(l)
        if got is None:
            raise IndexOutOfRangeError(
                f"letter {l} is outside the rule's alphabet (m = {self.m})"
            )
        return got


def build_rule(p: MonicPolynomial) -> ReplacementRule:
    """The rule of p: letter i maps to a_i copies of letter 1 (sign-encoded),
    then the letter itself, then letter i+1 (dropped for i = m).

    The powered letter is always letter 1, whatever the row. Minus-letter
    images are the plus-letter images with every sign flipped.
    """
    m = p.degree
    images: dict[Letter, RleWord] = {}
    for i in range(1, m + 1):
        tail: list[tuple[Letter, int]] = [(letter(i, PLUS), 1)]
        if i < m:
            tail.append((letter(i + 1, PLUS), 1))
        plus_image = RleWord(signed_power(1, PLUS, p.a[i - 1]).runs + tuple(tail))
        images[letter(i, PLUS)] = plus_image
        images[letter(i, MINUS)] = plus_image.flipped()
    return ReplacementRule(p, images)


def _check_cap(rule: ReplacementRule, pairs, cap: int) -> None:
    # the output length follows from (letter, multiplicity) pairs alone
    lengths = rule._lengths
    try:
        predicted = sum(k * lengths[l] for l, k in pairs)
    except KeyError as e:
        raise IndexOutOfRangeError(
            f"letter {e.args[0]} is outside the rule's alphabet (m = {rule.m})"
        ) from None
    if predicted > cap:
        raise EngineOverflowError(
            f"rewrite would produce {predicted} letters, over the cap of {cap}; "
            "use `symroot run` (or iterate_counts in the library) for deep iteration"
        )


def rewrite(rule: ReplacementRule, w, cap: int = WORD_CAP_DEFAULT):
    """One parallel replacement step; output representation matches the input.

    The output length is known from letter counts alone, so the cap is
    checked before anything is materialized. An RleWord is rewritten as its
    expansion and compressed again; normal form makes the result unique.
    """
    if isinstance(w, RleWord):
        _check_cap(rule, w.runs, cap)
        return RleWord.compress(rewrite(rule, w.expand(), cap))
    counts = Counter(w.letters)
    _check_cap(rule, counts.items(), cap)
    expanded = rule._expanded
    for l in counts.keys() - expanded.keys():
        expanded[l] = rule.images[l].expand().letters
    out_letters: list[Letter] = []
    for l in w.letters:
        out_letters.extend(expanded[l])
    return Word(tuple(out_letters))


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
