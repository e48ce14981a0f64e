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
from functools import cache
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
    # by the matrix's ones. It works at any degree and is the reference for
    # the unrolled kernels of _stepper, which the loops call instead
    return (sum(map(mul, a, n), n[0]), *map(add, n, n[1:]))


# the largest degree whose step _stepper unrolls: a kernel's compile time and
# code grow with m (about 0.1 ms and 1.4 KiB at m = 3, 1 ms and 7 KiB at 64),
# its lead over _step shrinks (3x at m = 3 on 64-bit counts, 1.8x at 64, and
# none at 64 on 1000-bit counts, where the big-int arithmetic is the step),
# and near m = 3000 the unrolled sum no longer compiles at all
_UNROLL_MAX = 64


@cache
def _stepper(m: int):
    # the count step for degree m, fetched once before a loop: up to
    # _UNROLL_MAX, straight-line code that unpacks a and n into locals and
    # adds and multiplies them with no map, slice, sum or star (about a third
    # of _step's time at m = 3 on Python 3.11), built by exec from a source
    # that depends on the int m alone, so no coefficient or count text ever
    # reaches exec; compiled once per degree on first use. Above _UNROLL_MAX
    # it is _step itself
    if m > _UNROLL_MAX:
        return _step
    a = [f"a{i}" for i in range(m)]
    n = [f"n{i}" for i in range(m)]
    row_1 = " + ".join(["n0", *map("{}*{}".format, a, n)])
    rows = "".join(f" {x} + {y}," for x, y in zip(n, n[1:]))
    scope: dict = {}
    exec(f"def step(a, n):\n {', '.join(a)}, = a\n {', '.join(n)}, = n\n return ({row_1},{rows})",
         scope)
    return scope["step"]


def _check_dimension(p: MonicPolynomial, v: CountVector) -> None:
    if p.degree != v.m:
        raise DimensionMismatchError(f"matrix is {p.degree}x{p.degree}, vector has {v.m} entries")


def step_counts(p: MonicPolynomial, v: CountVector) -> CountVector:
    """Exact action of one rewrite step on a count vector: the matrix I + C(p).

    Row 1 is n_1 + a_1 n_1 + ... + a_m n_m and row i is n_(i-1) + n_i, for
    the a_i of p. Cost is O(m) big-integer operations.
    """
    _check_dimension(p, v)
    return CountVector(_stepper(p.degree)(p.a, v.n))


def iterate_counts(p: MonicPolynomial, v0: CountVector, max_i: int):
    """v_0 .. v_max_i under repeated step_counts, all exact."""
    if isinstance(max_i, bool) or not isinstance(max_i, int) or max_i < 0:
        raise InvalidOptionError(f"iteration count must be a nonnegative integer, got {max_i!r}")
    _check_dimension(p, v0)
    step, a, n = _stepper(p.degree), p.a, v0.n
    out = [v0]
    for _ in range(max_i):
        n = step(a, n)
        out.append(CountVector(n))
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
