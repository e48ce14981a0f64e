"""Root estimates from count ratios, convergence calls, and diagnostics.

When the count-vector direction settles, it settles onto a geometric profile
(r^(m-1), ..., r, 1), so every consecutive-entry ratio estimates the same
number r, a root of the polynomial. Every decision here is exact on integers
and rationals; floats and the counts' top bits only decide comparisons whose
answer a proved error bound already fixes, and floats appear otherwise only
in rendered output. An independent oracle, a grid scan certified by a Sturm
sequence of integer polynomials and then one bisection on its count, finds
the largest real root, repeated and close roots included; the scan starts
above a bound that follows the positive roots, not at the coefficient
bound. The same count decides whether the ratios landed on it, because the
dominant direction can belong to a root other than the largest real one.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from enum import Enum
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import index, mul

from .counting import CountVector, _runner, _step
from .errors import DegreeTooSmallError, InvalidOptionError
from .polynomial import FrozenValue, MonicPolynomial

TYPE_CHECKING = False  # typing costs a run's import time; type checkers read it
if TYPE_CHECKING:
    from typing import TextIO

__all__ = [
    "DEFAULT_TOL",
    "Status",
    "ratio_estimates",
    "estimate_root",
    "oracle_largest_real_root",
]

DEFAULT_TOL = Fraction(1, 10**12)
DEFAULT_MAX_ITERS = 256
# bits of the shortest count that the settle check's top-bit filter keeps:
# its products are about twice this wide, and for counts of like size it
# leaves to the full-width products only ratio gaps within about
# 2^-(_TOP_BITS - 8) of tol, relative to the ratios
_TOP_BITS = 128


class Status(str, Enum):
    """Why a run stopped; every status but MaxIterationsReached is decided exactly.

    Converged: the last two count vectors carry all ratios and agree within
    tol. DegenerateStart: the count vector is exactly zero. NoRealLimit: the
    count vector became proportional to an earlier one, so the ratios repeat
    forever. MaxIterationsReached: no exact rule decided within the budget;
    the ratios may still be settling or may never settle.
    """

    CONVERGED = "Converged"
    MAX_ITERATIONS_REACHED = "MaxIterationsReached"
    DEGENERATE_START = "DegenerateStart"
    NO_REAL_LIMIT = "NoRealLimit"


class RatioEstimate(namedtuple("RatioEstimate", "j numerator denominator iteration")):
    """n_j / n_(j+1) at one iteration, kept unreduced; denominator never zero."""

    __slots__ = ()

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


class History(FrozenValue, Sequence):
    """The ratio estimates of v_0 .. v_k of one run, replayed on demand.

    Iterating replays the count steps from v_0 = e_1, the counts of the word
    1+, and yields each entry once, keeping none, so a run's memory does not
    grow with its iterations. len() and [-1] cost O(1); any other int index
    replays up to it, which costs O(i). Two histories of the same run are
    equal.
    """

    __slots__ = _fields = ("p", "length", "last")

    def __init__(self, p: MonicPolynomial, length: int, last: tuple[RatioEstimate, ...]) -> None:
        self._assign(p, length, last)

    def __repr__(self) -> str:  # without last, which the replay shows
        return f"History(p={self.p!r}, length={self.length!r})"

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[tuple[RatioEstimate, ...]]:
        a, n = self.p.a, CountVector.unit(self.p.degree).n
        for k in range(self.length):
            if k:
                n = _step(a, n)
            yield tuple(_estimates(n, k))

    def __reversed__(self) -> Iterator[tuple[RatioEstimate, ...]]:
        # one replay; the mixin's would replay up to every index in turn
        return reversed(tuple(self))

    def __getitem__(self, i: int) -> tuple[RatioEstimate, ...]:
        k = range(self.length)[index(i)]  # IndexError past either end
        return self.last if k == self.length - 1 else next(islice(self, k, None))


@contextmanager
def _any_int_digits():
    # options and coefficients on input and exact counts on deep runs pass
    # CPython's int<->str digit limit (4300 by default); lift it for one
    # command or one JSON document and restore the caller's. Pythons without
    # the setter (3.10.0-3.10.6) have no limit.
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class ConvergenceReport(FrozenValue):
    """Everything one estimate_root run decided and saw along the way.

    history holds the ratio estimates of every iterate v_0 .. v_k: a History
    that replays them from v_0 = e_1 when read. After a consulted oracle, the
    agreement is decided by exact Sturm counts. True proves the largest real
    root, r, is the real root nearest final_estimate: no root lies above it,
    or bisecting the window above it, which holds r, shows every lower root
    farther. False means another real root is at least as near, or 64
    halvings of that window could not show that none is. A discrepancy above
    tol alone is no disagreement, since the settle rule bounds the last step,
    not the distance to the root. A consulted oracle that finds no real root
    leaves oracle_root None and the agreement False. The CLI exits 4 when the
    agreement is False.
    """

    __slots__ = _fields = ("polynomial", "status", "iterations_used", "history", "final_estimate",
                           "oracle_root", "oracle_agreement", "oracle_discrepancy", "note")

    def __init__(
        self, polynomial: MonicPolynomial, status: Status, iterations_used: int,
        history: History, final_estimate: Fraction | None, oracle_root: Fraction | None,
        oracle_agreement: bool | None, oracle_discrepancy: Fraction | None, note: str | None,
    ) -> None:
        self._assign(polynomial, status, iterations_used, history, final_estimate,
                     oracle_root, oracle_agreement, oracle_discrepancy, note)

    @_any_int_digits()
    def to_json_dict(self) -> dict:
        """Stable JSON shape; integers that may exceed doubles go as strings."""
        history = [_json_entry(i, ests) for i, ests in enumerate(self.history)]
        return {**self._json_head(), "history": history}

    @_any_int_digits()
    def write_json(self, out: TextIO) -> None:
        """Write json.dumps(self.to_json_dict(), indent=2) to out, byte for
        byte, one history entry at a time, so a deep run's document is never
        held whole."""
        import json  # only JSON output needs it; a table or TSV run skips its import
        head = json.dumps({**self._json_head(), "history": []}, indent=2)
        out.write(head[:-4])  # history is the last key: the text ends in "[]\n}"
        sep = "[\n"
        for i, ests in enumerate(self.history):
            entry = json.dumps(_json_entry(i, ests), indent=2)
            out.write(sep + "    " + entry.replace("\n", "\n    "))
            sep = ",\n"
        out.write("\n  ]\n}")

    def _json_head(self) -> dict:
        final = None
        if self.final_estimate is not None:
            final = {
                "num": str(self.final_estimate.numerator),
                "den": str(self.final_estimate.denominator),
                "float": _json_float(self.final_estimate),
            }
        oracle = None
        if self.oracle_agreement is not None:
            root = self.oracle_root  # None: the oracle found no real root
            root_f = None if root is None else _json_float(root)
            oracle = {"float": root_f, "agrees": self.oracle_agreement}
        return {
            "polynomial": {
                "degree": self.polynomial.degree,
                "a": [str(v) for v in self.polynomial.a],
            },
            "status": self.status.value,
            "iterations": self.iterations_used,
            "final": final,
            "oracle": oracle,
        }


def _json_entry(i: int, ests: tuple[RatioEstimate, ...]) -> dict:
    return {
        "iter": i,
        "ratios": [{"j": r.j, "num": str(r.numerator), "den": str(r.denominator)} for r in ests],
    }


def _json_float(x: Fraction) -> float | None:
    # JSON has no infinity: past the double range the float is null, and the
    # exact num/den still carry the value
    try:
        return float(x)
    except OverflowError:
        return None


def ratio_estimates(v: CountVector, iteration: int = 0) -> list[RatioEstimate]:
    """One estimate per adjacent index pair with a nonzero denominator.

    Zero denominators are transient early on (e.g. an e_1 start), so those
    j are skipped rather than treated as errors.
    """
    if v.m < 2:
        raise DegreeTooSmallError(
            "ratios need degree >= 2; a degree 1 polynomial shows its root directly"
        )
    return _estimates(v.n, iteration)


def _estimates(n: tuple[int, ...], iteration: int) -> list[RatioEstimate]:
    return [
        RatioEstimate(j, n[j - 1], n[j], iteration) for j in range(1, len(n)) if n[j] != 0
    ]


def _within(a: int, b: int, c: int, d: int, tol: Fraction) -> bool:
    # |a/b - c/d| <= tol as one integer comparison, with no gcd; b, d nonzero
    return abs(a * d - c * b) * tol.denominator <= tol.numerator * abs(b * d)


def _below(a: int, b: int, c: int, d: int) -> bool:
    # a/b < c/d as one integer comparison, with no gcd; b, d nonzero. Both
    # sides times b d, whose sign decides the direction
    return a * d < c * b if (b > 0) == (d > 0) else a * d > c * b


def _top_cross(a: int, b: int, c: int, d: int) -> tuple[int, int, int] | None:
    # (X, Y, e) from the four counts shifted right by one s, so that the
    # shortest keeps _TOP_BITS bits: X = a'd' - c'b' and Y = b'd' for
    # a' = a >> s, ..., and e = |a'| + |b'| + |c'| + |d'| + 2. Then
    # |(ad - cb) - 2^2s X| < 2^2s e and |bd - 2^2s Y| < 2^2s e: >> floors for
    # either sign, so a = 2^s a' + r with 0 <= r < 2^s, d = 2^s d' + q
    # likewise, and ad - 2^2s a'd' = 2^s (a' q + d' r) + r q is less than
    # 2^2s (|a'| + |d'| + 1) in size. None when s <= 0: the counts are
    # short, and the exact products cheap
    s = min(a.bit_length(), b.bit_length(), c.bit_length(), d.bit_length()) - _TOP_BITS
    if s <= 0:
        return None
    a, b, c, d = a >> s, b >> s, c >> s, d >> s
    return a * d - c * b, b * d, abs(a) + abs(b) + abs(c) + abs(d) + 2


def _top_within(a: int, b: int, c: int, d: int, tol: Fraction) -> bool:
    # _within(a, b, c, d, tol), decided on the top bits when they can: by
    # _top_cross, |ad - cb| < 2^2s (|X| + e) and |bd| > 2^2s (|Y| - e), so the
    # first test proves |ad - cb| T_den < T_num |bd|; and |ad - cb| > 2^2s
    # (|X| - e), |bd| < 2^2s (|Y| + e), so the second proves the opposite.
    # The full-width products decide only what falls between the two tests
    top = _top_cross(a, b, c, d)
    if top is not None:
        x, y, e = top
        x, y = abs(x), abs(y)
        if (x + e) * tol.denominator <= tol.numerator * (y - e):
            return True
        if (x - e) * tol.denominator >= tol.numerator * (y + e):
            return False
    return _within(a, b, c, d, tol)


def _top_below(a: int, b: int, c: int, d: int) -> bool:
    # _below(a, b, c, d), decided on the top bits when they can: by
    # _top_cross, ad - cb lies strictly between 2^2s (X - e) and 2^2s (X + e),
    # so it has X's sign once |X| >= e
    top = _top_cross(a, b, c, d)
    if top is not None and abs(top[0]) >= top[2]:
        return (top[0] < 0) == ((b > 0) == (d > 0))
    return _below(a, b, c, d)


def _profile_agrees(d: tuple[int, ...], tol: Fraction) -> bool:
    # all m-1 ratios d[j-1]/d[j] are defined and agree pairwise within tol,
    # which is to say their largest and smallest do: found exactly in m-2
    # steps, then one _within, unless they are one ratio (always so at m = 2)
    if 0 in d[1:]:
        return False
    lo = hi = 1
    for j in range(2, len(d)):
        if _top_below(d[j - 1], d[j], d[lo - 1], d[lo]):
            lo = j
        elif _top_below(d[hi - 1], d[hi], d[j - 1], d[j]):
            hi = j
    return lo == hi or _top_within(d[hi - 1], d[hi], d[lo - 1], d[lo], tol)


def _settled(prev: tuple[int, ...] | None, cur: tuple[int, ...], tol: Fraction) -> bool:
    # converged means: both of the last two count vectors carry all m-1
    # ratios, the ratios agree pairwise within tol in each, and no ratio
    # moved by more than tol between the two; _within is scale-invariant, so
    # the raw counts decide exactly as their reduced ratios would
    return (
        prev is not None
        and _profile_agrees(prev, tol)
        and _profile_agrees(cur, tol)
        and all(
            _top_within(prev[j - 1], prev[j], cur[j - 1], cur[j], tol) for j in range(1, len(cur))
        )
    )


def _float_tol(tol: Fraction) -> float:
    # float(tol) rounded up (an ulp is at most 2^-52 relative or 2^-1074);
    # inf past the double range
    try:
        tol_f = float(tol)
    except OverflowError:
        return float("inf")
    return tol_f if tol_f >= tol else tol_f * (1 + 2**-52) + 2**-1074


def _certainly_apart(x: float, y: float, tol_f: float) -> bool:
    # True only if the exact ratios X, Y behind x, y have |X - Y| > tol.
    # Let u = 2^-53 and S = |x| + |y|. By counting._run's proof, truncation
    # and rounding put x within (u + 2^-61)|X| + 2^-1074 of X, and y likewise,
    # so |X - Y| >= |x - y| - 1.01 u S - 2^-1072. Each operation below rounds
    # by at most u relative (2^-1075 absolute if subnormal), so when the test
    # passes, |x - y| > (1 - 4u)(tol_f + 8u S + 2^-1000) - 2^-1075, which
    # holds too when |x - y| overflows to inf, and tol_f <= 1.01 S. Hence
    # |X - Y| > tol_f + (8 - 4.1 - 1.01) u S > tol_f >= tol: the margin 8u S
    # = 2^-50 S covers the truncation's 2^-61 S with 2.8u S to spare, and
    # 2^-1000 the absolute terms. An overflow to inf on the right can only
    # stop a rejection. The count kernel (counting._run) runs this test
    # inline, word for word
    return abs(x - y) > tol_f + 2**-50 * (abs(x) + abs(y)) + 2**-1000


def _iterate(
    p: MonicPolynomial, max_iters: int, tol: Fraction
) -> tuple[Status, int, tuple[int, ...]]:
    # the count iteration of a degree >= 2 polynomial from v_0 = e_1, the
    # counts of the word 1+, until one stop rule fires; returns (status,
    # iterations_used, last counts) and keeps no history, which History
    # replays from v_0 on demand. Every rule decides exactly on the counts;
    # a float only skips settle tests whose answer it already knows. Each
    # step reads one float, x_k ~ n_1/n_2, which the count kernel computes
    # (nan if n_2 = 0 or past the double range, as at v_0 = e_1, and no
    # comparison passes on nan). The settle rule needs pair 0 within tol, so
    # x_(k-1) and x_k certainly apart rule it out; only the steps they cannot
    # decide reach _settled, which decides on the counts. The loop carries
    # v_k / 2^shift, v_k over the common power of two of its counts, which
    # the kernel strips every counting._STRIP_EVERY steps, and hands back
    # the raw v_k once, on return. No decision changes: the step is linear;
    # _profile_agrees, _settled and the cycle rule's identity compare ratios
    # or are homogeneous in v_k, so each is blind to its scale. When
    # R = I + C(p) is nilpotent mod 2, as when p = (x+1)^m mod 2, the counts
    # gain a factor 2 at least every m steps: (x-3)^2 (x+1) gains 2 bits a
    # step, and by step 20000 39996 of its 40014 bits are the common power
    # of two. The steps where no rule can act, nearly all of them, run in
    # the kernel of _runner for (m, s), fetched once before the loop: it
    # steps, strips, reads its own float of x_k and hands back v_(k-1), v_k,
    # x_(k-1), x_k and the bits it stripped at the first k that the settle
    # filter cannot rule out, that passes the cycle pretest below, that is s
    # or that is max_iters; the loop decides that k here
    a, m = p.a, p.degree
    n = CountVector.unit(m).n
    tol_f = _float_tol(tol)
    # the cycle rule compares v_k with one vector, v_s. v_k = R^k e_1, and
    # e_1 is a cyclic vector of R, so its minimal polynomial is q(mu) =
    # p(mu - 1) = mu^s q'(mu), q'(0) != 0: s is the multiplicity of -1 as a
    # root of p, found by synthetic division of [1, -a_1, ..., -a_m] by x + 1.
    # v_k = c v_u (u < k, c != 0) holds exactly when q divides
    # mu^u (mu^d - c), d = k - u: when u >= s and q' divides mu^d - c. Then
    # v_(s+d) = c v_s too, so the first revisit with d >= 2, where a rule
    # that kept every direction would fire, is to v_s. v_s has n_(s+1) = 1,
    # an odd count that no strip touches, and zeros after it, so v_k is
    # proportional to v_s exactly when v_k = n_(s+1) v_s, which entry s - 1
    # tests first; for s = 0 that is n_m, where e_1 is 0, so the pretest
    # reads n_m == 0. For s = 1, while entry 0 of v_1, 1 + a_1, is under
    # 2^53 in size, it reads x_k == 1 + a_1, which no revisit fails
    # (counting._run). The same s decides DegenerateStart with no test of
    # the counts: v_k = 0 exactly when q divides mu^k, and q has degree m,
    # so only when q = mu^m, that is s = m, and then first at k = m; the
    # test stands first in the step, where a zero vector was tested before
    c, s = [1, *(-x for x in a)], 0
    while not (c := list(accumulate(c, lambda b, x: x - b)))[-1]:
        c, s = c[:-1], s + 1
    run = _runner(m, s)
    prev = v_s = None
    x_prev = x = math.nan  # no float before v_0, nor of v_0
    k = shift = 0
    while True:
        if k == s == m:
            status = Status.DEGENERATE_START
            break
        if not _certainly_apart(x_prev, x, tol_f) and _settled(prev, n, tol):
            status = Status.CONVERGED
            break
        if k == s:
            v_s = n
        elif k > s + 1 and n[s - 1] == n[s] * v_s[s - 1] and n == tuple(n[s] * y for y in v_s):
            # the direction sequence is exactly periodic, so the ratios can
            # never settle; calling it now saves waiting out max_iters
            status = Status.NO_REAL_LIMIT
            break
        if k == max_iters:
            status = Status.MAX_ITERATIONS_REACHED
            break
        stop, c = (s, 0) if k < s else (max_iters, v_s[s - 1])
        k, prev, n, x_prev, x, t = run(a, n, x, k, stop, c, tol_f)
        shift += t
    return status, k, tuple(x << shift for x in n)


def _positive(x, name: str) -> Fraction:
    # x as a Fraction above 0; InvalidOptionError otherwise, inf, nan, "1/0",
    # "x" and bools included (Fraction(True) would be 1)
    try:
        if isinstance(x, bool):
            raise ValueError
        x = Fraction(x)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise InvalidOptionError(f"{name} must be a finite number, got {x!r}") from None
    if x <= 0:
        raise InvalidOptionError(f"{name} must be positive")
    return x


def estimate_root(
    p: MonicPolynomial,
    *,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol=DEFAULT_TOL,
    compare_oracle: bool = True,
) -> ConvergenceReport:
    """Iterate the count map and read the root off the settling ratios.

    The run starts from the word 1+, counts e_1. Each step applies the
    iteration matrix to the m letter counts; the literal words those counts
    belong to are never built. The run stops at the first exact rule that
    fires (zero vector, settled ratios, or a count vector proportional to an
    earlier one) and otherwise reports MaxIterationsReached after max_iters
    steps; it never guesses a status.
    """
    tol = _positive(tol, "tol")
    if not isinstance(max_iters, int) or isinstance(max_iters, bool) or max_iters < 1:
        raise InvalidOptionError(f"max_iters must be a positive integer, got {max_iters!r}")

    if p.degree == 1:
        # no adjacent pair exists, but no iteration is needed either:
        # the root is a_1 exactly
        status, iterations_used, last = Status.CONVERGED, 0, ()
        final = Fraction(p.a[0])
        note = "degree 1: the root equals a_1 exactly; no ratio iteration needed"
    else:
        status, iterations_used, n = _iterate(p, max_iters, tol)
        last = tuple(_estimates(n, iterations_used))
        # a settled direction carries every ratio, so the first is n_1/n_2
        final = last[0].value if status is Status.CONVERGED else None
        note = None
    history = History(p, iterations_used + 1, last)

    oracle_root = agreement = discrepancy = None
    if status is Status.CONVERGED and compare_oracle:
        oracle_root, agreement = _cross_check(p, final, tol)
        if oracle_root is not None:
            discrepancy = abs(final - oracle_root)
    return ConvergenceReport(
        polynomial=p,
        status=status,
        iterations_used=iterations_used,
        history=history,
        final_estimate=final,
        oracle_root=oracle_root,
        oracle_agreement=agreement,
        oracle_discrepancy=discrepancy,
        note=note,
    )


_GRID_CELLS = 8192
# the grid scan asks the Sturm count whether any root is left below it once
# every so many cells: a scan that stops within the first 1024 cells pays
# no count, and one that walks them all pays at most eight, V(-B) included
_SCAN_CHECK_EVERY = 1024
# halvings of the window before the nearest-root test gives up; each costs a
# few Sturm counts, and only runs that no cheaper test decides reach it
_NEAREST_HALVINGS = 64


def _cauchy_bound(p: MonicPolynomial) -> int:
    # B = 1 + max |a_i|: every root of p lies strictly inside (-B, B) (Cauchy)
    return 1 + max(map(abs, p.a))


def _root_bound(p: MonicPolynomial) -> int | Fraction:
    # min(B, U), U a dyadic bound on the positive roots by the local-max-
    # quadratic rule (Akritas, Strzebonski & Vigklas 2008): each negative
    # c_i, highest i first, pairs with the positive c_j, j > i, that gives the
    # least (2^t |c_i| / c_j)^(1/(j-i)) on c_j's t-th use, and U is the
    # largest such root, 0 with no negative c_i. Any pairing bounds the
    # roots: the fractions 2^-t of each c_j sum to less than 1, and
    # c_j x^j / 2^t >= |c_i| x^i above the pair's root, so p > 0 above U.
    # Floats only choose the pair; its root is rounded up exactly to a
    # multiple of 2^-16, far finer than the grid step 2B/8192 >= 2^-12
    c = [-x for x in reversed(p.a)] + [1]  # c[k] multiplies x^k
    uses = [0] * len(c)
    u = 0
    for i in range(p.degree - 1, -1, -1):
        if c[i] < 0:
            j = min((j for j in range(i + 1, len(c)) if c[j] > 0),
                    key=lambda j: (uses[j] + 1 + math.log2(-c[i]) - math.log2(c[j])) / (j - i))
            uses[j] += 1
            scaled = -((c[i] << uses[j] + 16 * (j - i)) // c[j])  # ceil(|c_i| 2^(t+16(j-i)) / c_j)
            u = max(u, Fraction(_ceil_root(scaled, j - i), 1 << 16))
    return min(_cauchy_bound(p), u)


def _ceil_root(n: int, k: int) -> int:
    # the least r >= 0 with r^k >= n, for n >= 0: integer Newton from
    # 2^ceil(bits/k), above the root, down to the floor root
    if n <= 1:
        return n
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x + (x**k < n)


def _sturm_sequence(p: MonicPolynomial) -> list[list[int]]:
    # p, p', then each member is minus the pseudo-remainder of the two before
    # it, made primitive, down to g, the last nonzero one, a gcd of p and p';
    # all of them divided by g. Sign variations along it then count the
    # distinct real roots of p (Sturm 1829), and the count stays exact at a
    # repeated root, where the undivided members all vanish. Each member is a
    # positive multiple of the Euclidean one, so every sign is the same
    f = [1, *(-a for a in p.a)]
    seq = [f, [c * (len(f) - 1 - i) for i, c in enumerate(f[:-1])]]
    while r := _pdiv(seq[-2], seq[-1])[1]:
        seq.append(_primitive([-c for c in r]))
    return [_primitive(_pdiv(q, seq[-1])[0]) for q in seq]


def _pdiv(u: list[int], v: list[int]) -> tuple[list[int], list[int]]:
    # quotient and remainder of |v[0]|^(len(u) - len(v) + 1) u by v, integer
    # coefficients descending, len(u) >= len(v): positive multiples of the
    # exact ones, and every // is exact. The remainder has no leading zeros
    scale = abs(v[0]) ** (len(u) - len(v) + 1)
    u, q = [c * scale for c in u], []
    while len(u) >= len(v):
        c = u[0] // v[0]
        q.append(c)
        for i in range(1, len(v)):
            u[i] -= c * v[i]
        del u[0]
    while u and u[0] == 0:
        del u[0]
    return q, u


def _primitive(q: list[int]) -> list[int]:
    g = math.gcd(*q)
    return [c // g for c in q]


def _variations(sturm: list[list[int]], x: Fraction) -> tuple[int, bool]:
    # (V(x), p(x) = 0) from one pass: V(x) counts sign changes along the
    # sequence at x, zeros skipped, and drops from a to b > a by the distinct
    # roots of p in (a, b]; p vanishes where its first member, p / gcd(p, p'),
    # does. Member q of degree d at x = a/b (lowest terms, b > 0) is read as
    # b^d q(a/b) = sum c_i a^(d-i) b^i, of q(x)'s sign, by homogeneous Horner
    # with no Fraction to reduce, the powers of b shared by every member
    a, b = x.numerator, x.denominator
    b_pows = list(accumulate(repeat(b, len(sturm[0]) - 1), mul))
    values = []
    for q in sturm:
        value = q[0]
        for c, b_i in zip(q[1:], b_pows):
            value = value * a + c * b_i
        values.append(value)
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:])), not values[0]


def _nearest_is_largest(
    sturm: list[list[int]], final: Fraction, hi: Fraction, v_top: int
) -> bool:
    # True if the largest real root, r, is the real root nearest final, given
    # r <= hi and v_top = V(B), B above every root. With no root above final,
    # every other root lies below r <= final. Otherwise r lies in (final, hi],
    # and a lower root is at least as near exactly when it lies at or above
    # 2 final - r: bisect (lo, hi] on the count, keeping r in it; once r is
    # the only root there, one in [2 final - lo, lo] is nearer and none in
    # [2 final - hi, lo] proves none is. Each window counts its roots as V at
    # its left end, less V(lo), plus whether p vanishes there; while lo is
    # final, the first window is final alone, which the first pass read.
    # False if _NEAREST_HALVINGS halvings show neither, as they never do when
    # two roots are equally near
    lo, (v_lo, at_root) = final, _variations(sturm, final)
    if v_lo == v_top or at_root:
        return v_lo == v_top  # a root at final below r is nearer than r
    for _ in range(_NEAREST_HALVINGS):
        if v_lo - v_top == 1:
            if lo != final:
                v, zero = _variations(sturm, 2 * final - lo)
                if v + zero > v_lo:
                    return False
            v, zero = _variations(sturm, 2 * final - hi)
            if v + zero == v_lo:
                return True
        mid = (lo + hi) / 2
        v_mid = _variations(sturm, mid)[0]
        if v_mid > v_top:
            lo, v_lo = mid, v_mid
        else:
            hi = mid
    return False


def _cross_check(
    p: MonicPolynomial, final: Fraction, tol: Fraction
) -> tuple[Fraction | None, bool]:
    # the oracle's root, within tol of the largest real root r, and whether r
    # is the real root nearest final, from one Sturm chain and one V(B). hi is
    # final + |final - root| + tol >= r, summed with no gcd of two long
    # denominators (0.04 against 0.37 ms on close_pair's 15600-bit final)
    sturm = _sturm_sequence(p)
    v_top = _variations(sturm, _cauchy_bound(p))[0]
    root = _largest_real_root(p, tol, sturm, v_top)
    if root is None:
        return None, False  # with no real root, final has none to agree with
    hi = max(root, 2 * final - root) + tol
    return root, _nearest_is_largest(sturm, final, hi, v_top)


def oracle_largest_real_root(p: MonicPolynomial, precision) -> Fraction | None:
    """Largest real root to within `precision`, or None if p has none.

    Every root lies strictly inside (-B, B) for the coefficient bound
    B = 1 + max |c_k| (Cauchy), and no root lies above the local-max-quadratic
    bound U on the positive roots (Akritas, Strzebonski & Vigklas 2008), 0
    when no coefficient is negative. The scan walks the grid of 8192 cells
    over [-B, B] from the right, starting at the first grid point above
    min(B, U), and stops at the first grid zero or sign change.
    A Sturm sequence of p, each member an integer polynomial whose signs are
    read by integer Horner, then counts the distinct roots to the right of
    that point, repeated roots included. Every 1024 cells the scan also asks
    the count whether any root is left below it; if none is, it ends at -B at
    once, where the full scan would end. A grid zero with none to its right
    is returned exactly. Otherwise the largest root is bisected on the Sturm
    count to a half-width of `precision`: inside the cell when its sign change
    is the only root to the right, and from B down otherwise (several roots
    in one cell, a root of even multiplicity, or a root right of a grid zero).
    A midpoint that is the largest root is returned exactly.
    """
    precision = _positive(precision, "precision")
    sturm = _sturm_sequence(p)
    return _largest_real_root(p, precision, sturm, _variations(sturm, _cauchy_bound(p))[0])


def _largest_real_root(
    p: MonicPolynomial, precision: Fraction, sturm: list[list[int]], v_top: int
) -> Fraction | None:
    if p.degree == 1:
        return Fraction(p.a[0])
    bound = _cauchy_bound(p)
    step = Fraction(2 * bound, _GRID_CELLS)
    # the scan starts below hi, the first grid point above min(B, U), or B.
    # p is monic with no root above min(B, U), so p > 0 at hi and at every
    # grid point a scan from B would walk before it: the first grid point
    # with p <= 0 from the right is the rightmost grid zero or the left end
    # of the rightmost sign change, where a full scan from -B would settle.
    # Failing both, lo ends at -B with p(-B) > 0; a skipped checkpoint could
    # fire only if p had no real root, and then the scan ends at -B anyway
    start = min(math.floor((_root_bound(p) + bound) / step) + 1, _GRID_CELLS)
    hi = Fraction(-bound) + step * start
    top = Fraction(bound)
    # (V(-B), False), read at the first checkpoint the scan reaches; p(lo) > 0
    # at every checkpoint, so the pairs there are equal when the counts are
    v_bottom = None
    for t in range(start - 1, -1, -1):
        lo = Fraction(-bound) + step * t
        flo = p.eval_at(lo)
        if flo <= 0:
            break
        if t and t % _SCAN_CHECK_EVERY == 0:
            # no root in (-B, lo], as V(-B) = V(lo) shows, and p(lo) > 0: p
            # stays positive down to -B, so the scan would end there without
            # a break. Take that end state now (hi is read only after a
            # break on p(lo) < 0)
            if v_bottom is None:
                v_bottom = _variations(sturm, -bound)
            if _variations(sturm, lo) == v_bottom:
                lo = Fraction(-bound)
                flo = p.eval_at(lo)
                break
        hi = lo
    right = _variations(sturm, lo)[0] - v_top  # distinct roots in (lo, B]
    if right == 0:
        return lo if flo == 0 else None
    if flo >= 0 or right > 1:
        # the cell's sign change, from p(lo) < 0 to p(hi) > 0, is the largest
        # root only when it is the one root right of lo; otherwise (several
        # roots right of lo, lo a grid zero, or lo = -B past roots of even
        # multiplicity only) the largest root lies somewhere in (lo, B]
        hi = top
    # bisect on the count, keeping the largest root in (lo, hi]: a root lies
    # above mid exactly when V(mid) > v_top = V(B), and with none above,
    # p(mid) = 0, read in the same pass, makes mid the root
    while hi - lo > 2 * precision:
        mid = (lo + hi) / 2
        v_mid, at_root = _variations(sturm, mid)
        if v_mid > v_top:
            lo = mid
        elif at_root:
            return mid
        else:
            hi = mid
    return (lo + hi) / 2
