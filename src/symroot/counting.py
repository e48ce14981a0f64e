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
from functools import cache, partial, reduce
from math import nan
from operator import add, mul, or_

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
    # by the matrix's ones. It works at any degree; step_counts, iterate_counts
    # and the history replay call it, and it is the reference for the rows
    # that _runner's kernels unroll
    return (sum(map(mul, a, n), n[0]), *map(add, n, n[1:]))


# the largest degree whose loop _runner unrolls: a kernel's compile time and
# code grow with m (0.2 ms at m = 3, 1 ms at 64), the unrolled rows' lead over
# _step shrinks (3x at m = 3 on 64-bit counts, 1.8x at 64, and none at 64 on
# 1000-bit counts, where the big-int arithmetic is the step), and near m =
# 3000 the unrolled sum no longer compiles at all
_UNROLL_MAX = 64


def _rows(m: int) -> tuple[str, str, str]:
    # the source text of one unrolled count step at degree m: the names
    # "a0, ..., a(m-1)" and "n0, ..., n(m-1)", and the new counts
    # "a0*n0 + ... + a(m-1)*n(m-1), n0 + n1, ..., n(m-2) + n(m-1)", row 1
    # for a0 = 1 + a_1, each with no map, slice, sum or star. Every name
    # and operator is written from the int m alone
    a = [f"a{i}" for i in range(m)]
    n = [f"n{i}" for i in range(m)]
    rows = [" + ".join(map("{}*{}".format, a, n)), *map("{} + {}".format, n, n[1:])]
    return ", ".join(a), ", ".join(n), ", ".join(rows)


# _run's float of n_1/n_2 divides the counts directly while |n_2| <
# 2^_DIRECT_BITS, correctly rounded; longer counts are shifted to their top
# 64 bits first. On Python 3.11 int / int takes 0.04 us on 20-bit counts,
# 0.5 us at 1000 bits and 3.5 us at 15600, and the top-bit quotient 0.4-0.8
# us at any size, so the shift pays only on long counts
_DIRECT_BITS = 1000
# strip the counts' common power of two every so many steps: a shift of a
# negative big int costs several adds, so stripping every step costs more
# than the bits it saves
_STRIP_EVERY = 32
# the s = 1 cycle pretest reads the float x_k while |c| < 2^_EXACT_FLOAT_BITS,
# where every integer c is a double
_EXACT_FLOAT_BITS = 53


def _run(s, strip, a, n, x, k, stop, c, tol_f):
    # the count loop's common step, at any degree: from v_k = n and x = x_k,
    # the float of n_1/n_2 (nan if it has none), step on while nothing but
    # the count step can happen at the new k, and return (k, v_(k-1), v_k,
    # x_(k-1), x_k, shift) at the first k where something might, for the
    # loop to decide by its exact rules: k == stop; x_k is nan or not
    # certainly more than tol_f from x_(k-1), by _certainly_apart's test,
    # inline; or, for s < m, v_k passes the cycle pretest n_s == n_(s+1) c,
    # c being entry s - 1 of v_s (for s = 0, entry m - 1 of e_1, which is 0).
    # If strip, every _STRIP_EVERY steps, before its float, v_k drops the
    # common power of two of its counts, and shift sums the bits dropped in
    # this call, for the caller to put back; v_(k-1) is as it was before
    # that strip. Every rule compares ratios or is homogeneous in v_k, so
    # none sees a strip; the caller asks for it only where some v_k can be
    # all even (estimation._iterate). x_k is nan when n_2 = 0 or the
    # quotient is past the double range; nan passes no comparison, so that
    # step is handed back.
    # Otherwise x_k is divided directly while |n_2| < 2^_DIRECT_BITS,
    # correctly rounded. Above, both counts shift right by one amount t, so
    # that the shorter keeps 64 bits (no shift if it has fewer, and then x_k
    # is correctly rounded too), and int / int rounds the quotient
    # correctly. A count u of 64 bits or more has |(u >> t) - u/2^t| < 1 <=
    # 2^-63 |u/2^t| (>> floors, for either sign), and (1 + e)/(1 + f) with
    # |e|, |f| < 2^-63 is within 2^-62 (1 + 2^-62) of 1. So x_k is within
    # 2^-53 relative, or 2^-1075 absolute if subnormal, of a quotient within
    # 2^-61 relative of n_1/n_2, which _certainly_apart's proof covers. For
    # s = 1 and |c| < 2^53 the pretest is x_k == c, with no product: a
    # revisit of v_1 = (c, 1, 0, ..., 0) has n_1/n_2 = c exactly, a double,
    # and x_k rounds to it. Divided directly, x_k is the correctly rounded
    # c; from the top bits, the quotient is within 2^-62 (1 + 2^-62) |c| of
    # c, less than half the gap from c to either neighbouring double, so it
    # rounds to c too (c = 0 leaves n_1 = 0 and x_k = +-0). The compiled
    # kernels of _runner keep this contract, and this is their reference
    hi = 1 << _DIRECT_BITS
    near = s == 1 and -(1 << _EXACT_FLOAT_BITS) < c < 1 << _EXACT_FLOAT_BITS
    shift = 0
    while True:
        prev, n = n, _step(a, n)
        k += 1
        if strip and not k % _STRIP_EVERY:
            z = reduce(or_, n)
            t = (z & -z).bit_length() - 1  # -1 for the zero vector, which keeps it
            if t > 0:
                n = tuple(v >> t for v in n)
                shift += t
        try:
            if -hi < n[1] < hi:
                y = n[0] / n[1]
            else:
                t = max(min(n[0].bit_length(), n[1].bit_length()) - 64, 0)
                y = (n[0] >> t) / (n[1] >> t)
        except (ZeroDivisionError, OverflowError):
            y = nan
        if (k == stop or not abs(x - y) > tol_f + 2**-50 * (abs(x) + abs(y)) + 2**-1000
                or (y == c if near else s < len(n) and n[s - 1] == n[s] * c)):
            break
        x = y
    return k, prev, n, x, y, shift


# _run's loop with the step of _rows inline and the counts in locals; the
# template's fields are filled from ints alone. Row 1 reads a0 as 1 + a_1, so
# that it costs no add of n0. {strip} is _STRIP_SOURCE for a kernel that
# strips and empty for one that does not, whose shift stays 0
_RUN_SOURCE = """\
def run(a, n, x, k, stop, c, tol_f):
    {a}, = a
    a0 += 1
    {n}, = n
    hi = 1 << {bits}
    lo = -hi
    near = {near}
    if near:
        c = float(c)
    shift = 0
    while True:
        {p} = {n}
        {n} = {rows}
        k += 1
{strip}        try:
            if lo < n1 < hi:
                y = n0 / n1
            else:
                t = max(min(n0.bit_length(), n1.bit_length()) - 64, 0)
                y = (n0 >> t) / (n1 >> t)
        except (ZeroDivisionError, OverflowError):
            y = nan
        if k == stop or not abs(x - y) > tol_f + 2**-50 * (abs(x) + abs(y)) + 2**-1000{pretest}:
            break
        x = y
    return k, ({p},), ({n},), x, y, shift
"""
_STRIP_SOURCE = """\
        if not k % {every}:
            z = {union}
            t = (z & -z).bit_length() - 1
            if t > 0:
                {n} = {stripped}
                shift += t
"""


@cache
def _runner(m: int, s: int, strip: bool):
    # _run for degree m >= 2, s, the multiplicity of -1 as a root of p
    # (0 <= s <= m), and whether the counts are stripped, fetched once before
    # the count loop: up to _UNROLL_MAX, compiled once per (m, s, strip) on
    # first use from _RUN_SOURCE; above it, _run itself with s and strip
    # bound. (x-3)^2 (x+1)'s 20000 steps take about 9 ms in its kernel,
    # which hands back twice, at k = 1 and at the budget (Python 3.11)
    if m > _UNROLL_MAX:
        return partial(_run, s, strip)
    a, n, rows = _rows(m)
    near = "False"
    if s == 0:
        pretest = f" or not n{m - 1}"
    elif s == 1:
        # x_k == c while c is a double, n0 == n1 * c past that, as in _run
        near = f"-{1 << _EXACT_FLOAT_BITS} < c < {1 << _EXACT_FLOAT_BITS}"
        pretest = " or (y == c if near else n0 == n1 * c)"
    elif s < m:
        pretest = f" or n{s - 1} == n{s} * c"
    else:
        pretest = ""
    names = n.split(", ")
    p = ", ".join(f"p{i}" for i in range(m))
    stripping = ""
    if strip:
        stripping = _STRIP_SOURCE.format(every=_STRIP_EVERY, union=" | ".join(names), n=n,
                                         stripped=", ".join(f"{x} >> t" for x in names))
    # exec is only ever handed the text of _rows and of ints, so no
    # coefficient or count text ever reaches it
    scope = {"nan": nan}
    exec(_RUN_SOURCE.format(a=a, n=n, p=p, rows=rows, bits=_DIRECT_BITS, near=near,
                            strip=stripping, pretest=pretest), scope)
    return scope["run"]


def _check_dimension(p: MonicPolynomial, v: CountVector) -> None:
    if p.degree != v.m:
        raise DimensionMismatchError(f"matrix is {p.degree}x{p.degree}, vector has {v.m} entries")


def step_counts(p: MonicPolynomial, v: CountVector) -> CountVector:
    """Exact action of one rewrite step on a count vector: the matrix I + C(p).

    Row 1 is n_1 + a_1 n_1 + ... + a_m n_m and row i is n_(i-1) + n_i, for
    the a_i of p. Cost is O(m) big-integer operations.
    """
    _check_dimension(p, v)
    return CountVector(_step(p.a, v.n))


def iterate_counts(p: MonicPolynomial, v0: CountVector, max_i: int):
    """v_0 .. v_max_i under repeated step_counts, all exact."""
    if isinstance(max_i, bool) or not isinstance(max_i, int) or max_i < 0:
        raise InvalidOptionError(f"iteration count must be a nonnegative integer, got {max_i!r}")
    _check_dimension(p, v0)
    a, n = p.a, v0.n
    out = [v0]
    for _ in range(max_i):
        n = _step(a, n)
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
