"""Count vectors and the exact matrix picture of rewriting.

The count of a word is n_j = (number of j+ letters) - (number of j- letters).
One rewrite step acts on counts as the fixed integer matrix I + C(p), the
identity plus the companion matrix of p; the step reads its rows straight
off p's coefficients, and verify_commutation checks that identity on
concrete words with exact integer equality. All arithmetic is arbitrary
precision; entries grow geometrically with iteration depth and that is fine.
"""

from __future__ import annotations

from collections import Counter
from operator import add, mul

from .errors import DimensionMismatchError, IndexOutOfRangeError, InvalidOptionError
from .errors import NonIntegerCoefficientError
from .polynomial import FrozenValue, MonicPolynomial
from .rewriting import WORD_CAP_DEFAULT, ReplacementRule, Word, letter_text, rewrite

__all__ = ["CountVector", "count_word", "iterate_counts", "verify_commutation"]


class CountVector(FrozenValue):
    """m exact signed letter counts."""

    __slots__ = _fields = ("n",)

    def __init__(self, n: tuple[int, ...]) -> None:
        n = tuple(n)
        if not n:
            raise DimensionMismatchError("count vector needs at least one entry")
        for i, v in enumerate(n, start=1):
            if isinstance(v, bool) or not isinstance(v, int):
                raise NonIntegerCoefficientError(f"n[{i}] = {v!r} is not an exact integer")
        self._assign(n)

    @property
    def m(self) -> int:
        return len(self.n)

    @classmethod
    def unit(cls, m: int) -> "CountVector":
        """e_1, the count of the word "1+"."""
        return cls(tuple(1 if k == 0 else 0 for k in range(m)))


def count_word(w: Word, m: int) -> CountVector:
    """Letter counts of a Word."""
    n = [0] * m
    for l, k in Counter(w.letters).items():
        i = abs(l)
        if not 1 <= i <= m:
            raise IndexOutOfRangeError(f"letter {letter_text(l)} does not fit m = {m}")
        n[i - 1] += k if l > 0 else -k
    return CountVector(tuple(n))


def _step(a: tuple[int, ...], n: tuple[int, ...]) -> tuple[int, ...]:
    # the one count step (I + C(p)) n, read off p's a_1..a_m: row 1 is
    # n_1 + sum a_i n_i and row i is n_(i-1) + n_i, with no multiplication
    # by the matrix's ones. The deep loop and the history replay call it on
    # raw tuples, so no CountVector is built or checked per step
    return (sum(map(mul, a, n), n[0]), *map(add, n, n[1:]))


def step_counts(p: MonicPolynomial, v: CountVector) -> CountVector:
    """Exact action of one rewrite step on a count vector: the matrix I + C(p).

    Row 1 is n_1 + a_1 n_1 + ... + a_m n_m and row i is n_(i-1) + n_i, for
    the a_i of p. Cost is O(m) big-integer operations.
    """
    if p.degree != v.m:
        raise DimensionMismatchError(f"matrix is {p.degree}x{p.degree}, vector has {v.m} entries")
    return CountVector(_step(p.a, v.n))


def iterate_counts(p: MonicPolynomial, v0: CountVector, max_i: int):
    """v_0 .. v_max_i under repeated step_counts, all exact."""
    if max_i < 0:
        raise InvalidOptionError("iteration count must be nonnegative")
    out = [v0]
    for _ in range(max_i):
        out.append(step_counts(p, out[-1]))
    return tuple(out)


def verify_commutation(rule: ReplacementRule, w: Word, cap: int = WORD_CAP_DEFAULT) -> bool:
    """Check count(rewrite(w)) == step_counts(p, count(w)), exactly.

    True for every word, since the rule and the step both come from the
    rule's polynomial p; the literal rewrite side is the independent oracle
    here.
    """
    m = rule.m
    lhs = count_word(rewrite(rule, w, cap=cap), m)
    rhs = step_counts(rule.polynomial, count_word(w, m))
    return lhs == rhs
