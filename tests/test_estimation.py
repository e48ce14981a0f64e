import functools
import hashlib
import itertools
import math
import operator
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from symroot import (
    CountVector,
    Status,
    build_rule,
    default_initial_word,
    estimate_root,
    from_coefficients,
    iterate_counts,
    iterate_words,
    iteration_matrix,
    letter,
    oracle_largest_real_root,
    parse_polynomial,
    ratio_estimates,
)
from symroot import counting, estimation
from symroot.counting import _run, _runner, step_counts
from symroot.errors import DegreeTooSmallError, InvalidOptionError, SymrootError
from symroot.estimation import (
    _BRACKET_BITS,
    _below,
    _cauchy_bound,
    _certainly_apart,
    _float_tol,
    _iterate,
    _nearest_is_largest,
    _profile_agrees,
    _root_bound,
    _settled,
    _sturm_sequence,
    _top_below,
    _top_within,
    _variations,
    _within,
)
from symroot.polynomial import MonicPolynomial

GOLDEN = parse_polynomial("x^2 - x - 1")
TOL = Fraction(1, 10**12)

small_polys = st.lists(st.integers(-3, 3), min_size=2, max_size=4).map(
    lambda a: MonicPolynomial(tuple(a))
)


def test_ratio_estimates_examples():
    ests = ratio_estimates(CountVector((13, 8)))
    assert [(r.j, r.numerator, r.denominator) for r in ests] == [(1, 13, 8)]
    ests = ratio_estimates(CountVector((2, 2, 1)))
    assert [(r.j, r.value) for r in ests] == [(1, Fraction(1)), (2, Fraction(2))]
    assert ratio_estimates(CountVector((5, 0))) == []


def test_ratio_estimates_degree_too_small():
    with pytest.raises(DegreeTooSmallError):
        ratio_estimates(CountVector((3,)))


def test_ratio_values_are_unreduced():
    (r,) = ratio_estimates(CountVector((10, 4)), iteration=3)
    assert (r.numerator, r.denominator, r.iteration) == (10, 4, 3)
    assert r.value == Fraction(5, 2)


def test_golden_ratio_converges():
    rep = estimate_root(GOLDEN)
    assert rep.status is Status.CONVERGED
    assert rep.iterations_used <= 64
    assert abs(rep.final_estimate - Fraction("1.6180339887498949")) <= TOL
    assert rep.oracle_agreement is True
    assert rep.oracle_discrepancy <= 2 * TOL + 2 * TOL
    assert len(rep.history) == rep.iterations_used + 1


def test_plastic_number_converges():
    rep = estimate_root(parse_polynomial("x^3 - x - 1"))
    assert rep.status is Status.CONVERGED
    assert abs(rep.final_estimate - Fraction("1.3247179572447460")) <= Fraction(1, 10**10)
    last = rep.history[-1]
    assert [r.j for r in last] == [1, 2]
    assert abs(last[0].value - last[1].value) <= Fraction(1, 10**9)


def test_cube_root_of_two_converges():
    rep = estimate_root(parse_polynomial("x^3 - 2"))
    assert rep.status is Status.CONVERGED
    assert abs(rep.final_estimate - Fraction("1.2599210498948732")) <= Fraction(1, 10**8)


def test_no_real_roots_is_called_early():
    rep = estimate_root(parse_polynomial("x^2 + 2x + 2"))
    assert rep.status is Status.NO_REAL_LIMIT
    assert rep.iterations_used <= 200
    assert rep.final_estimate is None
    assert rep.oracle_root is None


def test_dominance_failure_is_flagged_not_hidden():
    rep = estimate_root(parse_polynomial("x^2 + 3x + 1"))
    assert rep.status is Status.CONVERGED
    assert abs(rep.final_estimate - Fraction("-2.6180339887")) <= Fraction(1, 10**9)
    assert rep.oracle_agreement is False
    assert abs(rep.oracle_root - Fraction("-0.3819660113")) <= Fraction(1, 10**9)


@pytest.mark.parametrize("text, converges_at", [("x^12 - x - 1", 721), ("x^3 + 2x - 2", 561)])
def test_slow_real_dominance_is_undecided_not_no_real_limit(text, converges_at):
    # a complex sub-dominant pair makes the ratios oscillate while they
    # shrink; the budget running out decides nothing about the limit
    p = parse_polynomial(text)
    rep = estimate_root(p, compare_oracle=False)
    assert (rep.status, rep.iterations_used) == (Status.MAX_ITERATIONS_REACHED, 256)
    assert rep.final_estimate is None
    rep = estimate_root(p, max_iters=1000)
    assert (rep.status, rep.iterations_used) == (Status.CONVERGED, converges_at)
    assert rep.oracle_agreement is True


def test_statuses_match_the_dominant_root_theory():
    # the counts are R^k e_1 with R = I + C, whose eigenvalues are 1 + lambda,
    # and e_1 is cyclic: the ratios converge to the root maximizing
    # |1 + lambda| when it is real and unique, and never settle when two
    # distinct roots tie for it; the counts reach zero only when R is
    # nilpotent, for p = (x+1)^m
    mpmath = pytest.importorskip("mpmath")
    same = mpmath.mpf(10) ** -30  # relative distance below which roots coincide
    seen = set()
    with mpmath.workdps(60):
        for m in (2, 3):
            for c in itertools.product(range(-3, 4), repeat=m):
                if c[0] == 0:
                    continue
                rep = estimate_root(from_coefficients(c + (1,)), compare_oracle=False)
                x_plus_1 = c == tuple(math.comb(m, i) for i in range(m))
                assert (rep.status is Status.DEGENERATE_START) == x_plus_1, c
                if rep.status not in (Status.NO_REAL_LIMIT, Status.CONVERGED):
                    continue
                seen.add(rep.status)
                roots = []  # distinct roots of p
                for r in mpmath.polyroots((1,) + c[::-1], maxsteps=400, extraprec=400):
                    if not any(abs(r - z) <= same * max(1, abs(r)) for z in roots):
                        roots.append(mpmath.mpc(r))
                gain = [abs(1 + z) for z in roots]
                leaders = [z for z, g in zip(roots, gain) if g >= max(gain) * (1 - same)]
                if rep.status is Status.NO_REAL_LIMIT:
                    assert len(leaders) >= 2, c
                    continue
                (z,) = leaders
                assert abs(z.imag) <= same, c
                final = mpmath.mpf(rep.final_estimate.numerator) / rep.final_estimate.denominator
                assert abs(final - z.real) <= mpmath.mpf(10) ** -9, c
    assert seen == {Status.NO_REAL_LIMIT, Status.CONVERGED}


@pytest.mark.parametrize("m", range(2, 8))
def test_degenerate_start_reached_mid_run(m):
    # e_1 is cyclic for R = I + C(p), so R^k e_1 = 0 only when the
    # characteristic polynomial p(mu - 1) of R is mu^m: for p = (x+1)^m,
    # where e_1 dies at step m exactly
    rep = estimate_root(from_coefficients([math.comb(m, i) for i in range(m + 1)]))
    assert (rep.status, rep.iterations_used) == (Status.DEGENERATE_START, m)
    assert rep.final_estimate is None and rep.oracle_root is None


def test_degree_one_returns_root_with_note():
    rep = estimate_root(parse_polynomial("x - 2"))
    assert rep.status is Status.CONVERGED
    assert rep.final_estimate == 2
    assert rep.iterations_used == 0
    assert rep.note is not None
    assert rep.oracle_root == 2
    assert rep.oracle_agreement is True
    assert tuple(rep.history) == ((),)
    assert type(rep.history) is type(estimate_root(GOLDEN).history)


def test_invalid_options_rejected():
    # a tol or precision that is no positive finite number is an
    # InvalidOptionError, never the OverflowError or ZeroDivisionError of
    # Fraction(inf) or "1/0"; it is both a SymrootError, the package's one
    # base class, and a ValueError, which callers caught before it existed
    def rejected(call, *args, **kwargs):
        with pytest.raises(InvalidOptionError) as caught:
            call(*args, **kwargs)
        assert isinstance(caught.value, SymrootError) and isinstance(caught.value, ValueError)

    for bad in (0, -1, math.inf, -math.inf, math.nan, "1/0", "inf", "x", True):
        rejected(estimate_root, GOLDEN, tol=bad)
        rejected(oracle_largest_real_root, GOLDEN, bad)
    for bad in (0, -1, 1.0, True, "5"):
        rejected(estimate_root, GOLDEN, max_iters=bad)
    for bad in (-1, True, False, 1.0, "1"):
        rejected(iterate_counts, GOLDEN, CountVector.unit(2), bad)
        rejected(iterate_words, build_rule(GOLDEN), default_initial_word(), bad)
    rejected(letter, 1, 0)


def test_convergence_residual_bound():
    # |p(final)| stays below C*tol with C from the coefficients and the
    # estimate's own magnitude
    for text, tol in (
        ("x^2 - x - 1", TOL),
        ("x^3 - x - 1", TOL),
        ("x^3 - 2", TOL),
        ("x^2 + 3x + 1", TOL),
    ):
        p = parse_polynomial(text)
        rep = estimate_root(p, tol=tol)
        assert rep.status is Status.CONVERGED
        f = rep.final_estimate
        growth = max(Fraction(1), abs(f)) ** (p.degree - 1)
        c = 10 * p.degree * growth * (1 + sum(abs(v) for v in p.a))
        assert abs(p.eval_at(f)) <= c * tol


def test_oracle_consistency_when_agreeing():
    for text in ("x^2 - x - 1", "x^3 - x - 1", "x^3 - 2"):
        rep = estimate_root(parse_polynomial(text))
        assert rep.oracle_agreement is True
        assert abs(rep.final_estimate - rep.oracle_root) <= 2 * TOL + 2 * TOL


def test_monotone_refinement_on_golden():
    phi = oracle_largest_real_root(GOLDEN, Fraction(1, 10**40))
    M = iteration_matrix(GOLDEN)
    vs = iterate_counts(M, CountVector.unit(2), 40)
    errors = [abs(Fraction(v.n[0], v.n[1]) - phi) for v in vs[1:]]
    for earlier, later in zip(errors, errors[1:]):
        assert later < earlier


def test_oracle_examples():
    root = oracle_largest_real_root(GOLDEN, TOL)
    assert abs(root - Fraction("1.6180339887498949")) <= 2 * TOL
    assert oracle_largest_real_root(parse_polynomial("x - 2"), TOL) == 2
    assert oracle_largest_real_root(parse_polynomial("x^2 + 2x + 2"), TOL) is None


def test_oracle_finds_repeated_roots():
    # (x-1)^2 never changes sign, and (x-3)^2 (x+1) changes sign only at -1;
    # the Sturm count sees both double roots
    assert abs(oracle_largest_real_root(parse_polynomial("x^2 - 2x + 1"), TOL) - 1) <= TOL
    assert abs(oracle_largest_real_root(parse_polynomial("x^3 - 5x^2 + 3x + 9"), TOL) - 3) <= TOL


@pytest.mark.parametrize(
    "text, root",
    [
        ("x^3 - x - 1", Fraction(1456542797515, 1099511627776)),
        ("x^3 - 2", Fraction(5541191377755, 4398046511104)),
        ("x^12 - x - 1", Fraction(1167867350731, 1099511627776)),
        ("x^24 - 3x^23 + x^5 - 7", Fraction(3298534880571, 1099511627776)),
        ("x^2 - x - 1", Fraction(1779047184767, 1099511627776)),
        ("x^2 + 3x + 1", Fraction(-419976070785, 1099511627776)),
        ("x^3 - 5x^2 + 3x + 9", Fraction(54043195528451485, 18014398509481984)),
        ("x^2 - 201x + 10100", Fraction(1819454249457678561, 18014398509481984)),
        (
            "x^3 - 200x^2 + 9899x + 10100",
            Fraction(7452484605778648507071, 73786976294838206464),
        ),
        # (x-3)^2: even multiplicity and no negative root, so the scan stops
        # past the last root, at a Sturm checkpoint
        ("x^2 - 6x + 9", Fraction(26388279066625, 8796093022208)),
        # (x+100)(x+101): both roots negative and in one cell, which no
        # checkpoint before them may skip
        ("x^2 + 201x + 10100", Fraction(-1801439850948196095, 18014398509481984)),
        ("x^4 - 2x^2 + 1", Fraction(4398046511103, 4398046511104)),  # (x-1)^2 (x+1)^2
        # (x-1)(x+8191): B = 8192 puts the grid on the even integers, and the
        # first midpoint of the cell (0, 2] is the root, returned exactly
        ("x^2 + 8190x - 8191", Fraction(1)),
        # x (x-3)^2: the scan stops at the grid zero 0, and the double root
        # right of it lies past that cell, so it is bisected from B
        ("x^3 - 6x^2 + 9x", Fraction(26388279066625, 8796093022208)),
        # x (x+1): the root bound is 0, and the scan starts at the grid zero
        # 0, the point just below the first grid point above it; no sign
        # change, so 0 is returned exactly
        ("x^2 + x", Fraction(0)),
        # the root 3.702 and the root bound (2 * 9535)^(1/7) = 4.088 share a
        # cell of width 2.33, so the first cell scanned holds the sign change,
        # and the bisection stays inside it
        ("x^7 - 9535", Fraction(1042111472942095, 281474976710656)),
    ],
)
def test_oracle_fractions_pinned(text, root):
    # in the first six and (x-1)(x+8191), the rightmost sign change holds the
    # only root right of its cell, so the count bisection stays inside that
    # cell; the double roots, the close pairs, which share one cell, and the
    # root right of a grid zero are bisected from B
    assert oracle_largest_real_root(parse_polynomial(text), TOL) == root


# SHA-256 of oracle_largest_real_root(p, 10^-12) for every a in [-3, 3]^2
# and [-2, 2]^3 with a_m != 0, then the ten distinct polynomials of the
# benchmark's corpus and deep workloads. Computed on commit 47f93b7, so a
# rework of the grid scan or the bisection must keep every oracle Fraction
ORACLE_BENCH_POLYS = [
    "x^2 - x - 1", "x^3 - x - 1", "x^3 - 2", "x^2 + 3x + 1", "x^2 + 2x + 2",
    "x^3 - 5x^2 + 3x + 9", "x^12 - x - 1", "x^24 - 3x^23 + x^5 - 7",
    "x^2 - 201x + 10100", "x^3 - 200x^2 + 9899x + 10100",
]
ORACLE_SHA256 = "99454fc61d3f69ceb72e17ee4646caa9b2ef5f124fa88049f1a12c48d3276316"


def test_oracle_outputs_pinned():
    polys = [
        MonicPolynomial(a)
        for m, r in ((2, 3), (3, 2))
        for a in itertools.product(range(-r, r + 1), repeat=m)
        if a[-1]
    ]
    polys += map(parse_polynomial, ORACLE_BENCH_POLYS)
    h = hashlib.sha256()
    for p in polys:
        h.update(f"{p.a} {oracle_largest_real_root(p, TOL)}\n".encode())
    assert h.hexdigest() == ORACLE_SHA256


def _times(f, g):
    # product of two ascending coefficient lists
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _dense_polys(rng, degrees):
    # a_1..a_(m-1) in -9..9 and a_m in 1..9, every coefficient drawn
    return [
        MonicPolynomial(tuple(rng.randint(-9, 9) for _ in range(m - 1)) + (rng.randint(1, 9),))
        for m in degrees
    ]


# SHA-256 of oracle_largest_real_root(p, 10^-12) and of estimate_root(p,
# tol=10^-6)'s status, final, oracle root and agreement, over 20 seeded dense
# polynomials of degree 5-24 and 10 products (x^2 + bx + c)^2 (x + d), b, c,
# d in -5..5, whose repeated quadratic factors the sparse pins lack. Computed
# on commit 61f4e0b, whose Sturm chain was built by division over Fraction
DENSE_ORACLE_SHA256 = "56a2f949916f3cc0f51b67903f48bb4150893ed5669b98c87dc51f680b1017fa"


def test_dense_oracle_outputs_pinned():
    rng = random.Random(24)
    polys = _dense_polys(rng, [rng.randint(5, 24) for _ in range(20)])
    for _ in range(10):
        b, c, d = (rng.randint(-5, 5) for _ in range(3))
        polys.append(from_coefficients(_times(_times([c, b, 1], [c, b, 1]), [d, 1])))
    h = hashlib.sha256()
    for p in polys:
        rep = estimate_root(p, tol=Fraction(1, 10**6))
        h.update(
            f"{p.a} {oracle_largest_real_root(p, TOL)} {rep.status.name} {rep.final_estimate}"
            f" {rep.oracle_root} {rep.oracle_agreement}\n".encode()
        )
    assert h.hexdigest() == DENSE_ORACLE_SHA256


def test_sturm_members_are_primitive_integer_polynomials():
    # each member is a positive multiple of the Euclidean one divided by the
    # gcd of its coefficients, so the chain stays small where dividing over
    # the rationals and clearing denominators does not
    polys = [parse_polynomial(text) for text in ORACLE_BENCH_POLYS]
    polys += [from_coefficients(_from_roots(r)) for r in ((3, 3, -1), (1, 1, 1, 2, 2), (0, 0, -2, -2, 5))]
    polys += _dense_polys(random.Random(5), range(5, 49, 7))
    for p in polys:
        for q in _sturm_sequence(p):
            assert all(type(c) is int for c in q) and math.gcd(*q) == 1, (p.a, q)
    p48 = _dense_polys(random.Random(3), (24, 48))[1]
    assert sum(c.bit_length() for q in _sturm_sequence(p48) for c in q) < 10**6


def test_cross_check_reads_each_sturm_point_once(monkeypatch):
    # the oracle and the agreement rule share one count at B, the oracle's
    # bisection reads p(mid) = 0 off the count at mid, each agreement
    # window is counted at its left end alone, and a scan that a checkpoint
    # ends at -B reuses V(-B) and the checkpoints' counts, which the
    # bisection from (-B, B) meets again as its first midpoints. 18 passes
    # at 18 distinct points on the seeded dense degree-48 polynomial
    # (Converged at tol 10^-6, agreement False); close_pair's 20000-step run
    # ends its scan at the checkpoint x = 0, and the oracle on x^2 + 1, with
    # no real root, at V(0) = V(-B)
    p = _dense_polys(random.Random(3), (24, 48))[1]
    points = []

    def counted(sturm, x):
        points.append(x)
        return _variations(sturm, x)

    monkeypatch.setattr(estimation, "_variations", counted)
    rep = estimate_root(p, tol=Fraction(1, 10**6), max_iters=5000)
    assert rep.status is Status.CONVERGED and rep.oracle_agreement is False
    assert points.count(_cauchy_bound(p)) == 1
    assert len(points) <= 18 and len(set(points)) == len(points)
    points.clear()
    p = parse_polynomial("x^2 - 201x + 10100")
    rep = estimate_root(p, max_iters=20000)
    assert rep.status is Status.CONVERGED and rep.oracle_agreement is True
    assert 0 in points and -_cauchy_bound(p) in points
    assert len(set(points)) == len(points)
    points.clear()
    assert oracle_largest_real_root(parse_polynomial("x^2 + 1"), TOL) is None
    assert len(points) == 3 and len(set(points)) == 3


def _close_pair_sample():
    # (x - a)^2 - c, roots a +- sqrt c, c in 1..3: the grid step is about
    # a^2 / 4096, so past |a| = 64 both roots share a cell or two; a third
    # factor (x - b) sits left, right or between them
    rng = random.Random(1024)
    polys = []
    for _ in range(24):
        a, c = rng.choice((-1, 1)) * rng.randint(30, 300), rng.randint(1, 3)
        pair = (a * a - c, -2 * a, 1)
        if rng.random() < 0.5:
            b = rng.randint(-400, 400)
            pair = tuple(-b * x + y for x, y in zip(pair + (0,), (0,) + pair))
        polys.append(pair)
    return polys


@pytest.mark.parametrize("coeffs", _close_pair_sample(), ids=str)
def test_oracle_on_close_pairs_matches_sympy(coeffs, monkeypatch):
    # the scan that stops at a Sturm checkpoint ends where the full scan
    # ends, and both give sympy's largest real root
    sympy = pytest.importorskip("sympy")
    p = from_coefficients(coeffs)
    got = oracle_largest_real_root(p, TOL)
    assert abs(got - _sympy_largest_real_root(sympy, coeffs)) <= 2 * TOL
    monkeypatch.setattr(estimation, "_SCAN_CHECK_EVERY", 10**9)  # never checks
    assert oracle_largest_real_root(p, TOL) == got


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(
            lambda roots: from_coefficients(_from_roots(roots))
        ),
        small_polys,
    ),
    st.sampled_from((1, 5, 64)),
)
def test_stopped_scan_ends_where_the_full_scan_ends(p, every):
    # integer roots (repeated ones too) or small coefficients, checked at
    # every cell, every 5th or every 64th: the oracle answers as the scan
    # with no checkpoint does
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation, "_SCAN_CHECK_EVERY", 10**9)
        full = oracle_largest_real_root(p, TOL)
        mp.setattr(estimation, "_SCAN_CHECK_EVERY", every)
        assert oracle_largest_real_root(p, TOL) == full


def _sympy_largest_real_root(sympy, coeffs):
    roots = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x")).real_roots()
    return Fraction(str(sympy.N(max(roots), 40))) if roots else None


def _from_roots(roots):
    c = [1]  # ascending coefficients of the product of the (x - r)
    for r in roots:
        c = [-r * a + b for a, b in zip(c + [0], [0] + c)]
    return tuple(c)


def _oracle_sample():
    rng = random.Random(1829)
    polys = [
        _from_roots((100, 101)),
        _from_roots((100, 101, -1)),
        _from_roots((3, 3, -1)),
        _from_roots((100, 101, 102)),
        (2, 2, 1),  # x^2 + 2x + 2, no real root
    ]
    for _ in range(20):  # repeated and clustered integer roots
        polys.append(_from_roots([rng.randint(-3, 3) for _ in range(rng.randint(2, 4))]))
    for _ in range(30):
        m = rng.randint(2, 4)
        polys.append((rng.choice((-1, 1)) * rng.randint(1, 9),)
                     + tuple(rng.randint(-9, 9) for _ in range(m - 1)) + (1,))
    return polys


@pytest.mark.parametrize("coeffs", _oracle_sample(), ids=str)
def test_oracle_matches_sympy_real_roots(coeffs):
    sympy = pytest.importorskip("sympy")
    want = _sympy_largest_real_root(sympy, coeffs)
    got = oracle_largest_real_root(from_coefficients(coeffs), TOL)
    if want is None:
        assert got is None
    else:
        assert abs(got - want) <= 2 * TOL


def _sparse_sample():
    # the deep shapes: degree up to 24, a few terms, coefficients up to 10^6
    rng = random.Random(1908)
    polys = []
    for _ in range(24):
        m = rng.randint(2, 24)
        c = [0] * m + [1]  # ascending, monic
        for k in rng.sample(range(m), rng.randint(1, min(m, 4))):
            c[k] = rng.randint(-10**6, 10**6)
        polys.append(tuple(c))
    return polys


sparse_polys = st.integers(2, 24).flatmap(
    lambda m: st.dictionaries(st.integers(0, m - 1), st.integers(-10**6, 10**6), max_size=4).map(
        lambda c: MonicPolynomial(tuple(c.get(i, 0) for i in range(m)))
    )
)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(
            lambda roots: from_coefficients(_from_roots(roots))
        ),
        small_polys,
        sparse_polys,
    )
)
def test_scan_from_the_root_bound_ends_where_the_scan_from_b_ends(p):
    # p > 0 on every grid point above the bound, so the scan that starts
    # there returns what the scan from B returns, to the last bit
    got = oracle_largest_real_root(p, TOL)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimation, "_root_bound", _cauchy_bound)
        assert oracle_largest_real_root(p, TOL) == got


@pytest.mark.parametrize("coeffs", _oracle_sample() + _close_pair_sample() + _sparse_sample(),
                         ids=str)
def test_root_bound_is_above_every_real_root(coeffs):
    # sympy counts the roots in [bound, oo) on its own; one there must be
    # the bound itself, which only a bound of 0 can be
    sympy = pytest.importorskip("sympy")
    bound = _root_bound(from_coefficients(coeffs))
    poly = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"))
    at = sympy.Rational(bound.numerator, bound.denominator)
    assert 0 <= bound <= _cauchy_bound(from_coefficients(coeffs))
    assert poly.count_roots(at) == (poly.eval(at) == 0)


def test_root_bound_pins():
    # no negative coefficient: no positive root, and the bound is 0
    assert _root_bound(parse_polynomial("x^2 + 3x + 1")) == 0
    # (x-100)(x-101): 2 * 201 / 1, where B = 10101
    assert 402 <= _root_bound(parse_polynomial("x^2 - 201x + 10100")) < 403
    # x^12 - x - 1: 4^(1/12) on the second use of x^12, rounded up
    assert 1.1224 < _root_bound(parse_polynomial("x^12 - x - 1")) < 1.1226
    # (x-3)^2 (x+1): 2 * 5 = 10 is B itself
    p = parse_polynomial("x^3 - 5x^2 + 3x + 9")
    assert _root_bound(p) == _cauchy_bound(p) == 10


def _sqrt_in(c, a, b):
    # sqrt c in [a, b], exactly: a <= sqrt c when a <= 0 or a^2 <= c
    return (a <= 0 or a * a <= c) and b >= 0 and b * b >= c


@settings(max_examples=200)
@given(
    st.one_of(
        st.tuples(st.lists(st.integers(-4, 4), min_size=1, max_size=5), st.just(0), st.just(0)),
        # (x - r)(x^2 - c)^k: the gcd of p and p' is (x^2 - c)^(k-1), no
        # product of linear factors
        st.tuples(
            st.integers(-4, 4).map(lambda r: [r]),
            st.sampled_from([c for c in range(2, 13) if math.isqrt(c) ** 2 != c]),
            st.integers(1, 3),
        ),
    ),
    st.fractions(-5, 5, max_denominator=4),
    st.fractions(0, 6, max_denominator=4),
)
def test_sturm_count_is_exact_at_repeated_roots_and_endpoints(case, a, width):
    # endpoints often land on a root, repeated or not
    roots, c, k = case
    b = a + width
    coeffs = functools.reduce(_times, [[-c, 0, 1]] * k, list(_from_roots(roots)))
    want = len({r for r in roots if a <= r <= b})
    if k:
        want += _sqrt_in(c, a, b) + _sqrt_in(c, -b, -a)
    p = from_coefficients(coeffs)
    sturm = _sturm_sequence(p)
    (v_a, zero_a), (v_b, zero_b) = _variations(sturm, a), _variations(sturm, b)
    assert v_a - v_b + zero_a == want
    assert zero_a == (p.eval_at(a) == 0) and zero_b == (p.eval_at(b) == 0)


def _full_width_variations(sturm, x):
    # (V(x), p(x) = 0) read at x itself, as every point was read before the
    # bracket: member q of degree d at x = a/b as b^d q(a/b) by homogeneous
    # Horner, the powers of b shared by every member
    a, b = x.numerator, x.denominator
    b_pows = list(itertools.accumulate(itertools.repeat(b, len(sturm[0]) - 1), operator.mul))
    values = []
    for q in sturm:
        value = q[0]
        for c, b_i in zip(q[1:], b_pows):
            value = value * a + c * b_i
        values.append(value)
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:])), not values[0]


@st.composite
def sturm_chains_and_points(draw):
    # p = (x - r_1)...(x - r_k) (x^2 - c) times a small monic factor,
    # repeated roots too, and one point: a rational with a long
    # denominator, of any size from near 0 to past 2^64; a dyadic whose
    # denominator 2^j is short, at the bracket's threshold or past it; a
    # point within 2^-70 of one of the r_i or of +-sqrt(c) (known to
    # 2^-400), so that a bracket of width 2^-64 or less often holds it; or
    # a long integer
    roots = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=4))
    c = draw(st.sampled_from((2, 3, 5, 10, 4)))
    factor = draw(st.lists(st.integers(-5, 5), max_size=2)) + [1]
    p = from_coefficients(_times(_times(_from_roots(roots), [-c, 0, 1]), factor))
    kind = draw(st.sampled_from(("long", "dyadic", "near a root", "integer")))
    if kind == "long":
        den = draw(st.integers(2, 2**400))
        x = Fraction(draw(st.integers(-50 * den, 50 * den)), den) * 2 ** draw(st.integers(0, 120))
    elif kind == "dyadic":
        j = draw(st.integers(_BRACKET_BITS - 8, 3 * _BRACKET_BITS))
        x = Fraction(draw(st.integers(-(50 << j), 50 << j)) | 1, 1 << j)
    elif kind == "near a root":
        sqrt_c = Fraction(math.isqrt(c << 800), 2**400)
        root = draw(st.sampled_from([*roots, sqrt_c, -sqrt_c]))
        den = draw(st.integers(2**140, 2**400))
        x = root + Fraction(draw(st.integers(-(den >> 70), den >> 70)), den)
    else:
        x = Fraction(draw(st.integers(-(2**3000), 2**3000)))
    return _sturm_sequence(p), x


@settings(max_examples=300, deadline=None)
@given(sturm_chains_and_points())
@example((_sturm_sequence(from_coefficients(_from_roots([3, 5, -1]))), 3 - Fraction(1, 2**200 + 1)))
@example((_sturm_sequence(from_coefficients(_from_roots([3, 3, 5]))), Fraction(3 * 2**129 - 1, 2**129)))
def test_bracketed_sturm_count_matches_the_full_width_count(case):
    # _variations reads a point with a long denominator at two short
    # dyadics around it first, and at full width only when a root lies
    # between them: the pair it returns is the full-width pair
    sturm, x = case
    assert _variations(sturm, x) == _full_width_variations(sturm, x)


def test_long_points_are_read_at_full_width_only_next_to_a_root(monkeypatch):
    # (x-3)(x-5)(x+1): a 300-bit denominator away from every root takes two
    # reads of at most _BRACKET_BITS + 1 bits; within 2^-200 below the root
    # 3, the bracket (3 - 2^-62, 3] holds it, and a third read is at x
    # itself; as far above it, the bracket (3, 3 + 2^-62] holds none
    sturm = _sturm_sequence(from_coefficients(_from_roots([3, 5, -1])))
    read, reads = estimation._variations_at, []

    def spied(sturm, a, b):
        reads.append(max(a.bit_length(), b.bit_length()))
        return read(sturm, a, b)

    monkeypatch.setattr(estimation, "_variations_at", spied)
    far, off = Fraction(4 * 2**300 + 1, 2**300 + 1), Fraction(1, 2**200 + 1)
    for x, count in ((far, 2), (-far, 2), (3 + off, 2), (3 - off, 3)):
        reads.clear()
        assert _variations(sturm, x) == _full_width_variations(sturm, x)
        assert len(reads) == count and max(reads[:2]) <= _BRACKET_BITS + 1
    assert reads[2] > 200


@pytest.mark.parametrize(
    "text", ["x^2 - 201x + 10100", "x^3 - 200x^2 + 9899x + 10100"]  # (x-100)(x-101)(x+1)
)
def test_close_pairs_agree_by_the_nearest_root_rule(text):
    # the ratios contract by 101/102 per step, so the settled estimate sits
    # about 1e-10 below 101 at tol 1e-12: past 4 tol, but 101 is still the
    # real root nearest it
    rep = estimate_root(parse_polynomial(text), max_iters=20000)
    assert rep.status is Status.CONVERGED
    assert abs(rep.oracle_root - 101) <= TOL
    assert rep.oracle_discrepancy > 4 * TOL
    assert rep.oracle_agreement is True


def test_estimate_above_every_root_agrees():
    # (x-1)(x-2) at tol 1 settles at 46/19, above both roots: 1 also lies
    # within discrepancy + tol of it, but 2 is the real root nearest it
    rep = estimate_root(parse_polynomial("x^2 - 3x + 2"), tol=1)
    assert rep.final_estimate == Fraction(46, 19)
    assert rep.oracle_agreement is True
    # x^2 + 3x + 1 settles near its lower root, with the larger one above it
    rep = estimate_root(parse_polynomial("x^2 + 3x + 1"))
    assert rep.final_estimate < -2
    assert rep.oracle_agreement is False
    # (x-1)(x^2+2x-1) at tol 1 settles at 3/4, between sqrt 2 - 1 and 1,
    # with both in the window; 1 is nearer
    rep = estimate_root(parse_polynomial("x^3 + x^2 - 3x + 1"), tol=1)
    assert rep.final_estimate == Fraction(3, 4)
    assert rep.oracle_agreement is True


def test_coarse_agreement_matches_sympy_nearest_root():
    # on a seeded sample of the coarse sweep (degree 2-3, coefficients
    # -5..5, tol 1/100 to 2), False means another real root lies at least as
    # near the estimate as the largest, and True that none lies nearer
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    sweep = [
        (a, tol)
        for m in (2, 3)
        for a in itertools.product(range(-5, 6), repeat=m)
        if a[-1]
        for tol in (Fraction(1, 100), Fraction(1, 10), Fraction(1, 2), 1, 2)
    ]
    slack = sympy.Float("1e-40", 60)
    false_seen = 0
    for a, tol in random.Random(1501).sample(sweep, 50):
        rep = estimate_root(MonicPolynomial(a), tol=tol)
        if rep.oracle_root is None:
            # not converged, or converged with no real root to agree with
            assert rep.oracle_agreement is (False if rep.status is Status.CONVERGED else None)
            continue
        f = sympy.Rational(rep.final_estimate.numerator, rep.final_estimate.denominator)
        poly = sympy.Poly([1, *(-c for c in a)], x)
        *lower, r = sorted({sympy.N(z, 60) for z in poly.real_roots()})
        d = [abs(z - f) - abs(r - f) for z in lower]
        if rep.oracle_agreement:
            assert all(e > -slack for e in d), (a, tol)
        else:
            assert any(e < slack for e in d), (a, tol)
            false_seen += 1
    assert false_seen >= 3


def test_equally_near_roots_do_not_agree():
    # (x-1)(x-2): 3/2 is as near 1 as 2, and 8/5 is nearer 2; the window
    # (3/2, 2] ends on 2 itself, so the tie is not hidden by the bisection
    sturm = _sturm_sequence(parse_polynomial("x^2 - 3x + 2"))
    v_top = _variations(sturm, Fraction(4))[0]
    for hi in (Fraction(2), Fraction(5, 2)):
        assert _nearest_is_largest(sturm, Fraction(3, 2), hi, v_top) is False
        assert _nearest_is_largest(sturm, Fraction(8, 5), hi, v_top) is True


def test_oracle_picks_rightmost_root():
    # roots -3, 1, 2
    p = parse_polynomial("x^3 - 7x + 6")
    root = oracle_largest_real_root(p, TOL)
    assert abs(root - 2) <= TOL


def test_eigenvector_profile_check():
    # geometric profiles pass at tol 0; a spread of 2 fails at 1/1000; a zero
    # among entries 2..m fails at every tol
    assert _profile_agrees((4, 2, 1), Fraction(0))
    assert _profile_agrees((13, 8), Fraction(0))
    assert not _profile_agrees((3, 1, 1), Fraction(1, 1000))
    assert not _profile_agrees((1, 0, 1), Fraction(1))


@settings(max_examples=60)
@given(
    small_polys,
    st.lists(st.integers(-9, 9), min_size=4, max_size=4),
    st.integers(min_value=-5, max_value=5).filter(lambda c: c != 0),
    st.integers(0, 10),
)
def test_ratio_values_are_scale_invariant(p, raw, c, depth):
    v0 = CountVector(tuple(raw[: p.degree]))
    M = iteration_matrix(p)
    base = iterate_counts(M, v0, depth)
    scaled = iterate_counts(M, CountVector(tuple(c * x for x in v0.n)), depth)
    for u, s in zip(base, scaled):
        if not any(u.n):
            assert not any(s.n)
            continue
        ru = ratio_estimates(u)
        rs = ratio_estimates(s)
        assert [(r.j, r.value) for r in ru] == [(r.j, r.value) for r in rs]


def _direction(v):
    # reference: the counts divided by their gcd, first nonzero entry
    # positive; equal directions are exactly the proportional count vectors
    g = 0
    for x in v.n:
        g = math.gcd(g, abs(x))
    s = 1 if next(x for x in v.n if x != 0) > 0 else -1
    return tuple((x // g) * s for x in v.n)


def _fraction_settled(prev, cur, m, tol):
    # reference: the settle rule on reduced Fraction ratios of the raw counts
    want = m - 1
    if prev is None or len(prev) != want or len(cur) != want:
        return False
    for ests in (prev, cur):
        for x in ests:
            for y in ests:
                if abs(x.value - y.value) > tol:
                    return False
    return all(abs(x.value - y.value) <= tol for x, y in zip(prev, cur))


TOLS = (Fraction(0), Fraction(1, 10**12), Fraction(1, 1000), Fraction(1, 3), Fraction(1), Fraction(7, 2))


@st.composite
def count_vectors(draw, m):
    # near-geometric profiles (p^(m-1-i) q^i plus small noise) reach both
    # answers of the settle rule; a large common factor must not matter
    p = draw(st.integers(-6, 6))
    q = draw(st.integers(-6, 6))
    noise = draw(st.lists(st.integers(-1, 1), min_size=m, max_size=m))
    n = [p ** (m - 1 - i) * q**i + e for i, e in enumerate(noise)]
    if draw(st.booleans()):
        n = draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m))
    scale = draw(st.sampled_from((1, -1, 4**40, -3 * 4**40)))
    v = CountVector(tuple(scale * x for x in n))
    assume(any(v.n))
    return v


@st.composite
def count_vector_pairs(draw):
    m = draw(st.integers(2, 5))
    return draw(count_vectors(m)), draw(count_vectors(m))


@settings(max_examples=300)
@given(count_vector_pairs())
def test_direction_settle_rule_matches_fraction_rule(pair):
    # the loop settles on raw counts; the gcd-normalized directions and the
    # reduced Fraction ratios must give the same answer
    u, w = pair
    prev, cur = _direction(u), _direction(w)
    assert not _settled(None, w.n, TOLS[1])
    for tol in TOLS[1:]:
        want = _fraction_settled(ratio_estimates(u), ratio_estimates(w), u.m, tol)
        assert _settled(u.n, w.n, tol) == _settled(prev, cur, tol) == want


@st.composite
def boundary_vectors(draw):
    # two count vectors whose ratios sit r + c tol apart with c in {0, 1},
    # each nudged by 0 or +-1/den: the exact settle rule's boundary. Ratios
    # run from 10^-1100 past 10^1100, a zero ratio makes a zero denominator,
    # and common factors reach 2^3000; with the nudges at 1/2^12000, counts
    # pass 10^4 bits
    tol = Fraction(draw(st.integers(1, 999)), 7) * Fraction(10) ** draw(st.integers(-400, 400))
    m = draw(st.integers(2, 4))
    r = Fraction(draw(st.integers(-(10**6), 10**6)), draw(st.integers(1, 10**6)))
    r *= Fraction(10) ** draw(st.integers(-1100, 1100))
    den = draw(st.sampled_from((3, 10**20, 10**400, 2**3000, 2**12000)))
    vectors = []
    for _ in range(2):
        ratios = [
            r + draw(st.integers(0, 1)) * tol + Fraction(draw(st.integers(-1, 1)), den)
            for _ in range(m - 1)
        ]
        n = [Fraction(1)]
        for x in reversed(ratios):
            n.insert(0, x * n[0])
        lcm = math.lcm(*(x.denominator for x in n))
        scale = draw(st.sampled_from((1, -1, 3, 2**3000, -(3**1000))))
        vectors.append(tuple(int(x * lcm) * scale for x in n))
    return vectors[0], vectors[1], tol


def _kernel_float(run, a, b):
    # x_k, the float a count kernel reads for n_1/n_2 = a/b (nan if it has
    # none): at m = 2 and s = 2 (no cycle pretest), one step from (1, b - 1)
    # with coefficients (a - 1, 0) lands on (a, b) and meets stop = 1, and
    # strips nothing before k = 32
    k, prev, n, x_prev, x, shift = run((a - 1, 0), (1, b - 1), math.nan, 0, 1, 0, 0.0)
    assert (k, n, shift) == (1, (a, b), 0) and math.isnan(x_prev)
    return x


def _same_float(x, y):
    return x == y or math.isnan(x) and math.isnan(y)


def _lands_on(run, w, x, tol_f):
    # the k at which a kernel hands back after one step lands on w's first
    # two counts from x_0 = x: 1 unless it certainly rules out settling
    return run((w[0] - 1, 0), (1, w[1] - 1), x, 0, 100, 0, tol_f)[0]


KERNELS_M2 = [_runner(2, 2, True), functools.partial(_run, 2, True)]  # compiled, reference
_K = 3**700  # 1110 bits: past 2^1000, and short enough for an example's repr


@settings(max_examples=400, deadline=None)
@given(boundary_vectors())
@example(((13, 8), (21, 13), Fraction(1, 100)))  # n_2 < 2^1000: direct quotients
@example(((100 * _K, _K), (100 * _K + 1, _K), Fraction(1, _K)))  # top-bit quotients
@example(((100, 1), (100 * _K + 1, _K), Fraction(1, _K)))  # one of each
@example(((-256, 1), (-767, 3), Fraction(1, 3)))  # exactly tol apart, floats more than tol_f
def test_float_filter_never_overrides_the_exact_settle_rule(case):
    # settled counts: x_k = n_1/n_2 of the two sides, as a count kernel
    # reads it (compiled or reference: divided directly while |n_2| < 2^1000,
    # from the top bits above), is not certainly more than tol apart; and a
    # kernel step that lands on w from u's float hands back
    u, w, tol = case
    tol_f = _float_tol(tol)
    if _settled(u, w, tol):
        for run in KERNELS_M2:
            xu, xw = _kernel_float(run, *u[:2]), _kernel_float(run, *w[:2])
            assert not _certainly_apart(xu, xw, tol_f)
            assert _lands_on(run, w, xu, tol_f) == 1


def _full_width_settled(u, w, tol):
    # reference: the settle rule on every pair of ratios, each compared by
    # the full-width _within, with no filter and no max/min shortcut
    def agrees(d):
        return 0 not in d[1:] and all(
            _within(d[i - 1], d[i], d[j - 1], d[j], tol)
            for i in range(1, len(d))
            for j in range(1, len(d))
        )

    return (
        agrees(u)
        and agrees(w)
        and all(_within(u[j - 1], u[j], w[j - 1], w[j], tol) for j in range(1, len(u)))
    )


@settings(max_examples=300, deadline=None)
@given(boundary_vectors())
def test_top_bit_filter_matches_the_full_width_rule(case):
    # the settle check decides on ~128 top bits where the proved error bound
    # allows; every decision must be the full-width one
    u, w, tol = case
    assert _settled(u, w, tol) == _full_width_settled(u, w, tol)
    pairs = [(d[j - 1], d[j]) for d in (u, w) for j in range(1, len(d)) if d[j]]
    for (a, b), (c, d) in itertools.product(pairs, repeat=2):
        assert _top_within(a, b, c, d, tol) == _within(a, b, c, d, tol)
        assert _top_below(a, b, c, d) == _below(a, b, c, d)


def test_top_bit_filter_boundary_cases():
    # one ratio (m = 2) and all-equal ratios agree at tol 0 with no product;
    # a 15600-bit profile one unit off is apart by 1/(100 K), which only the
    # full-width products see
    k = 3**9842  # 15600 bits
    assert k.bit_length() == 15600
    assert _profile_agrees((k + 1, k), Fraction(0))
    assert _profile_agrees((-k, 7), Fraction(0))
    assert _profile_agrees((8 * k, 4 * k, 2 * k, k), Fraction(0))
    assert _profile_agrees((-27 * k, 18 * k, -12 * k, 8 * k), Fraction(0))
    off = (100**2 * k + 1, 100 * k, k)
    gap = Fraction(1, 100 * k)
    assert not _profile_agrees(off, gap - Fraction(1, 2**32000))
    assert _profile_agrees(off, gap)
    assert not _settled((100 * k, k), (100 * k + 1, k), gap)
    assert _settled((100 * k, k), (100 * k + 1, k), Fraction(1, k))
    assert _top_below(100 * k, k, 100 * k + 1, k)
    assert not _top_below(100 * k + 1, k, 100 * k, k)
    assert not _top_below(-100 * k, -k, 100 * k, k)


@st.composite
def wide_counts(draw):
    # counts of similar or unrelated sizes up to about 2^3000, either sign,
    # zeros included
    m = draw(st.integers(2, 5))
    base = draw(st.integers(0, 3000))
    spread = draw(st.sampled_from((2, 80, 3000)))
    n = []
    for _ in range(m):
        bits = min(3000, max(0, base + draw(st.integers(-spread, spread))))
        n.append(draw(st.integers(-(2**bits), 2**bits)))
    return tuple(n)


@settings(max_examples=400, deadline=None)
@given(wide_counts())
def test_kernel_float_stays_within_the_proved_bound(n):
    # x_k, a count kernel's float of n_1/n_2 = a/b, compiled and reference
    # alike, for every adjacent pair of counts of similar or unrelated sizes:
    # nan exactly on a zero b or past the double range; the correctly rounded
    # quotient while |b| < 2^1000 or either count has at most 64 bits; and
    # otherwise within (2^-53 + 2^-61)|X| + 2^-1074 of X = a/b, the error
    # _certainly_apart's margin is proved to cover
    rel, tiny = Fraction(1, 2**53) + Fraction(1, 2**61), Fraction(1, 2**1074)
    for a, b in zip(n, n[1:]):
        got = [_kernel_float(run, a, b) for run in KERNELS_M2]
        assert _same_float(*got)
        x = got[0]
        if b == 0:
            assert math.isnan(x)
            continue
        want = Fraction(a, b)
        if abs(b) < 2**1000 or min(a.bit_length(), b.bit_length()) <= 64:
            rounded = estimation._json_float(want)
            assert _same_float(x, math.nan if rounded is None else rounded)
        elif math.isnan(x):
            assert abs(want) > 2**1023
        else:
            assert abs(Fraction(x) - want) <= rel * abs(want) + tiny


def _shifted(q):
    # p(x) = q(x + 1) for q's ascending integer coefficients, q monic
    c = [q[-1]]
    for x in reversed(q[:-1]):
        c = [x + c[0], *(u + w for u, w in zip(c[1:], c)), c[-1]]
    return from_coefficients(c)


def test_cycle_rule_fires_when_one_side_overflows():
    # q = mu (mu^2 - r mu + r^2) with r = 2^1100: the roots r e^(+-i pi/3)
    # of q' give v_4 = -r^3 v_1, so the cycle rule fires at k = 4, where
    # n_1/n_2 is past the double range and x_4 nan
    r = 2**1100
    p = _shifted([0, r * r, -r, 1])
    n = _iterate(p, 60, TOL)[2]
    assert all(math.isnan(_kernel_float(run, n[0], n[1])) for run in KERNELS_M2)
    assert _check_against_unbounded_rule(p) == (Status.NO_REAL_LIMIT, 4)


@pytest.mark.parametrize(
    "tol",
    [Fraction(1, 3), Fraction(1, 10**400), Fraction(1, 10**1100), Fraction(3, 2**1074), Fraction(10) ** 308,
     Fraction(2) ** 1024, Fraction(10) ** 400, Fraction(1, 2), Fraction(10**17 + 1, 10**17)],
)
def test_float_tol_rounds_up(tol):
    tol_f = _float_tol(tol)
    assert tol_f >= tol
    assert tol_f == float("inf") or Fraction(tol_f) - tol <= max(tol / 2**51, Fraction(1, 2**1073))


def test_float_filter_rejects_clearly_apart_ratios():
    assert _certainly_apart(1.0, 1.5, _float_tol(Fraction(1, 3)))
    assert not _certainly_apart(1.0, 1.5, _float_tol(Fraction(1, 2)))
    assert _certainly_apart(2.0, 1.0, _float_tol(Fraction(1, 2)))
    # opposite ratios past the double range differ by inf in floats, which
    # must not count as more than an infinite tol
    u, w, tol = (15 * 10**307, 1), (-15 * 10**307, 1), Fraction(10) ** 400
    assert _settled(u, w, tol)
    assert not _certainly_apart(1.5e308, -1.5e308, _float_tol(tol))


@pytest.mark.parametrize(
    "tol, status, iterations",
    [(10**400, Status.CONVERGED, 2), (Fraction(1, 10**400), Status.MAX_ITERATIONS_REACHED, 256)],
)
def test_tol_past_the_double_range(tol, status, iterations):
    # float(10**400) raises OverflowError, and 10^-400 rounds to 0.0
    rep = estimate_root(GOLDEN, tol=tol, compare_oracle=False)
    assert (rep.status, rep.iterations_used) == (status, iterations)


DEEP_PINS = [
    (  # (x-100)(x-101)
        "x^2 - 201x + 10100", Status.CONVERGED, 2337,
        Fraction(1819454249457678561, 18014398509481984), True,
        "48e8f5f4b9c8e9974234e77108cfcb954bef828e12269d79ad26ce16d8b41f7f",
    ),
    (  # (x-100)(x-101)(x+1)
        "x^3 - 200x^2 + 9899x + 10100", Status.CONVERGED, 2339,
        Fraction(7452484605778648507071, 73786976294838206464), True,
        "7266a138fe5c6965e8c31af034d0fa3618fe4057334b2c771183148c918268d3",
    ),
    (  # (x-3)^2 (x+1): never settles, so the oracle is not consulted
        "x^3 - 5x^2 + 3x + 9", Status.MAX_ITERATIONS_REACHED, 20000, None, None, None,
    ),
    (
        "x^12 - x - 1", Status.CONVERGED, 721,
        Fraction(1167867350731, 1099511627776), True,
        "6297f547106818909c5fca2fb878c10e57ae3a6ce21c8b76a18db8b971b119ca",
    ),
]


@pytest.mark.parametrize(
    "text, status, iterations, oracle, agrees, final_sha256",
    DEEP_PINS,
    ids=[f"{text}-{status.value}-{iterations}" for text, status, iterations, *_ in DEEP_PINS],
)
def test_deep_runs_pinned(text, status, iterations, oracle, agrees, final_sha256):
    # the run keeps a few count vectors, not one per iterate: the history of
    # (x-3)^2 (x+1) alone, kept whole, peaks at 160 MiB. final's num and den
    # have up to 15605 bits; hex() needs no lift of the int digit limit
    tracemalloc.start()
    try:
        rep = estimate_root(parse_polynomial(text), max_iters=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.status, rep.iterations_used) == (status, iterations)
    assert (rep.oracle_root, rep.oracle_agreement) == (oracle, agrees)
    final = rep.final_estimate
    if final_sha256 is None:
        assert final is None
    else:
        digits = f"{final.numerator:x}/{final.denominator:x}"
        assert hashlib.sha256(digits.encode()).hexdigest() == final_sha256
    assert peak < 8 * 2**20


@settings(max_examples=300)
@given(st.integers(2, 5).flatmap(count_vectors))
def test_profile_check_matches_fraction_rule(v):
    ests = ratio_estimates(v)
    for tol in TOLS:
        want = len(ests) == v.m - 1 and all(
            abs(x.value - y.value) <= tol for x in ests for y in ests
        )
        assert _profile_agrees(v.n, tol) == want


@settings(max_examples=300)
@given(
    st.lists(st.integers(-30, 30), min_size=2, max_size=7),
    st.sampled_from([-1, 0, 1]),
)
def test_profile_agrees_matches_the_pairwise_rule(d, nudge):
    # tol at, just below and just above the exact spread of the ratios, so
    # the max and min must be found exactly, whatever the signs
    d = tuple(d)
    if 0 in d[1:]:
        assert not _profile_agrees(d, Fraction(10**6))
        return
    ratios = [Fraction(d[j - 1], d[j]) for j in range(1, len(d))]
    tol = max(Fraction(0), max(ratios) - min(ratios) + Fraction(nudge, 10**6))
    want = all(abs(x - y) <= tol for x in ratios for y in ratios)
    assert _profile_agrees(d, tol) is want


def _unbounded_cycle_rule(p, v, max_iters, tol):
    # reference: the loop with every visited direction kept; (status, k) for
    # the settle, zero and cycle rules, or MaxIterationsReached at the budget
    M = iteration_matrix(p)
    seen = {}
    prev = None
    for k in range(max_iters + 1):
        if not any(v.n):
            return Status.DEGENERATE_START, k
        d = _direction(v)
        if _settled(prev, d, tol):
            return Status.CONVERGED, k
        if k - seen.setdefault(d, k) >= 2:
            return Status.NO_REAL_LIMIT, k
        prev = d
        v = step_counts(M, v)
    return Status.MAX_ITERATIONS_REACHED, max_iters


def _check_against_unbounded_rule(p, max_iters=60):
    got = _iterate(p, max_iters, TOL)[:2]
    assert got == _unbounded_cycle_rule(p, CountVector.unit(p.degree), max_iters, TOL)
    return got


def test_cycle_memory_bounded_exactly():
    # R is singular here (p(-1) = 0, s = 1), so v_0 never recurs; the first
    # revisit returns to v_1, six steps on: d_7 = d_1
    got = _check_against_unbounded_rule(parse_polynomial("x^4 + 2x^2 - 3"))
    assert got == (Status.NO_REAL_LIMIT, 7)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=2, max_size=6))
def test_cycle_rule_matches_unbounded_memory(a):
    _check_against_unbounded_rule(MonicPolynomial(tuple(a)))


@functools.cache
def _cyclotomic(n):
    # Phi_n's ascending coefficients: mu^n - 1 divided by Phi_d for every
    # proper divisor d of n, each division exact and from the top
    c = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            f = _cyclotomic(d)
            q = [0] * (len(c) - len(f) + 1)
            for i in reversed(range(len(q))):
                q[i] = c[i + len(f) - 1]
                for j, y in enumerate(f):
                    c[i + j] -= q[i] * y
            c = q
    return c


@st.composite
def revisits_to_v_s(draw):
    # p(x) = q(x + 1) with q = mu^s Phi_n(mu / r) r^phi(n), times mu - c or
    # not. From e_1, whose minimal polynomial is q, v_k revisits v_s once
    # q' = q / mu^s divides mu^(k-s) - C, as at k = s + n with no linear
    # factor, and with one whose root is a root of q' times a root of unity
    s = draw(st.integers(0, 3))
    f = _cyclotomic(draw(st.integers(1, 12)))
    r = draw(st.sampled_from((1, 2, 3, -2, 2**200)))
    q = [0] * s + [x * r ** (len(f) - 1 - i) for i, x in enumerate(f)]
    if draw(st.booleans()):
        c = draw(st.sampled_from((r, -r, 2 * r, 1, -3)))
        q = [y - c * x for x, y in zip(q + [0], [0] + q)]
    assume(len(q) >= 3)
    return _shifted(q)


@settings(max_examples=200, deadline=None)
@given(revisits_to_v_s())
def test_cycle_rule_matches_unbounded_memory_on_revisits_to_v_s(p):
    # the coefficient strategies above rarely give p a root at -1, so s >= 1
    # is drawn here: a rule that compared v_k with v_0 alone would miss these
    _check_against_unbounded_rule(p)


def _revisits_of_v_1(n, r, e):
    # p(x) = q(x + 1) with q = mu Phi_n(mu / r) r^phi(n), times mu - e if e:
    # s = 1, and with e = +-r or 0 every root of q' = q / mu is r times a
    # root of unity, so some v_k revisits v_1, with counts near r^(k-1)
    f = _cyclotomic(n)
    q = [x * r ** (len(f) - 1 - i) for i, x in enumerate(f)]
    if e:
        q = [y - e * x for x, y in zip(q + [0], [0] + q)]
    return _shifted([0, *q])


@pytest.mark.parametrize(
    "n, r, e, c, k",
    [
        (3, 1, 0, -3, 4),  # short counts: x_k divided directly
        (20, 2**200, 0, -8, 11),  # 2000-bit counts: x_k from the top bits
        (4, 2**53 + 2, 2**53 + 2, 2**53 - 1, 5),  # 212-bit counts, c just below 2^53
        (20, 2**53 + 8, 2**53 + 8, 2**53 - 1, 21),  # 1060-bit counts, top bits
        (20, 2**53 - 10, -(2**53 - 10), -(2**53) + 1, 21),
        (20, 2**53 + 9, 2**53 + 9, 2**53, 21),  # |c| >= 2^53: the exact pretest
        (20, 2**53 - 9, -(2**53 - 9), -(2**53), 21),
        (20, 2**53 + 10, 2**53 + 10, 2**53 + 1, 21),  # c is no double
        (4, 2**300, 2**300, 2**300 - 3, 5),
    ],
)
def test_cycle_rule_finds_revisits_of_v_1_on_either_pretest(n, r, e, c, k):
    # s = 1: while |c| < 2^53, c = 1 + a_1 = entry 0 of v_1, the kernels'
    # cycle pretest is x_k == c, which the revisit's float must meet
    # whether it was divided directly or from the top bits; past that, the
    # exact n_1 == n_2 c. Each run stops at the revisit v_k = r^(k-1) v_1 or
    # -r^(k-1) v_1, where the rule that keeps every direction stops
    p = _revisits_of_v_1(n, r, e)
    assert 1 + p.a[0] == c
    assert _check_against_unbounded_rule(p) == (Status.NO_REAL_LIMIT, k)
    v = _iterate(p, 60, TOL)[2]
    assert abs(v[1]) == r ** (k - 1) and v[0] == c * v[1]
    if abs(c) < 2**53:
        assert all(_kernel_float(run, v[0], v[1]) == c for run in KERNELS_M2)


def test_count_kernel_hands_back_only_where_a_rule_may_act(monkeypatch):
    # the deep workload's polynomials at 20000 iterations: the kernel
    # strips its own counts, so each step it hands back is s, the budget, a
    # step the settle filter cannot rule out, or one that passes the cycle
    # pretest; none is there for a strip. (x-3)^2 (x+1) hands back twice
    seen = []

    def counted(m, s, strip):
        kernel = counting._runner(m, s, strip)

        def run(a, n, x, k, stop, c, tol_f):
            got = kernel(a, n, x, k, stop, c, tol_f)
            k, _, n, x_prev, y, _ = got
            if s == 1 and abs(c) < 2**53:
                pretest = y == c
            else:
                pretest = s < m and n[s - 1] == n[s] * c
            seen.append((k, k == stop or not _certainly_apart(x_prev, y, tol_f) or pretest))
            return got

        return run

    monkeypatch.setattr(estimation, "_runner", counted)
    for text in ("x^2 - 201x + 10100", "x^3 - 200x^2 + 9899x + 10100", "x^3 - 5x^2 + 3x + 9",
                 "x^12 - x - 1"):
        seen.clear()
        _iterate(parse_polynomial(text), 20000, TOL)
        assert all(why for _, why in seen), text
        if text == "x^3 - 5x^2 + 3x + 9":
            assert [k for k, _ in seen] == [1, 20000]


def _check_replayed_history(p, max_iters, tol=TOL):
    # the loop from e_1 hands back the raw counts of the eager iteration,
    # and estimate_root's replayed history matches the eager one too.
    # Returns (status, iterations_used, last counts)
    status, k, n = _iterate(p, max_iters, tol)
    vectors = iterate_counts(iteration_matrix(p), CountVector.unit(p.degree), k)  # every vector kept
    assert n == vectors[-1].n
    rep = estimate_root(p, max_iters=max_iters, tol=tol, compare_oracle=False)
    assert (rep.status, rep.iterations_used) == (status, k)
    eager = tuple(tuple(ratio_estimates(v, iteration=i)) for i, v in enumerate(vectors))
    assert tuple(rep.history) == eager
    assert len(rep.history) == len(eager)
    assert rep.history[-1] == eager[-1]
    want = eager[-1][0].value if status is Status.CONVERGED else None
    assert rep.final_estimate == want
    return status, k, n


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=2, max_size=6),
    st.integers(1, 60),
    st.sampled_from((TOL, Fraction(1, 1000))),
)
def test_replayed_history_matches_eager_history(a, max_iters, tol):
    _check_replayed_history(MonicPolynomial(tuple(a)), max_iters, tol)


@pytest.mark.parametrize(
    "text, max_iters, status",
    [
        ("x^2 - x - 1", 60, Status.CONVERGED),
        ("x^2 - 3x + 1", 60, Status.CONVERGED),
        ("x^2 + x + 1", 60, Status.NO_REAL_LIMIT),
        ("x^3 - x - 1", 7, Status.MAX_ITERATIONS_REACHED),
        ("x^2 + 2x + 1", 60, Status.DEGENERATE_START),
        ("x^3 + 3x^2 + 3x + 1", 60, Status.DEGENERATE_START),
    ],
)
def test_replayed_history_on_every_status(text, max_iters, status):
    assert _check_replayed_history(parse_polynomial(text), max_iters)[0] is status


def _x_plus_1_mod_2(m, t):
    # a_i = C(m, i) + 2 t_i, so p = x^m - a_1 x^(m-1) - ... - a_m is
    # (x+1)^m mod 2: R = I + C(p) is nilpotent mod 2, and the counts gain a
    # factor 2 at least every m steps
    return MonicPolynomial(tuple(math.comb(m, i) % 2 + 2 * t[i - 1] for i in range(1, m + 1)))


def _check_raw_counts(p, max_iters, tol=TOL):
    # the loop's last counts are raw: they match the eager history and the
    # replay, and its decisions match the rule that keeps every direction
    got = _check_replayed_history(p, max_iters, tol)
    assert got[:2] == _unbounded_cycle_rule(p, CountVector.unit(p.degree), max_iters, tol)
    return got


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 7).flatmap(lambda m: st.lists(st.integers(-2, 2), min_size=m, max_size=m)),
    st.integers(1, 200),
    st.sampled_from((TOL, Fraction(1, 1000))),
)
def test_stripped_loop_matches_the_raw_counts(t, max_iters, tol):
    # the loop carries the counts over their common power of two, and every
    # decision and the returned counts match the raw iteration
    _check_raw_counts(_x_plus_1_mod_2(len(t), t), max_iters, tol)


@st.composite
def wide_polys(draw):
    # a_1 of 0 to 1100 bits, either sign, or -2, and small a_2 .. a_m: from
    # e_1, x_k is None where n_2 is zero, as at k = 2 when a_1 = -2, and
    # where n_1/n_2 overflows, as at k = 1 when |a_1| passes 2^1024
    a = draw(st.lists(st.integers(-3, 3), min_size=2, max_size=4))
    a[0] = draw(st.just(-2) | st.integers(0, 1100).flatmap(lambda b: st.integers(-(2**b), 2**b)))
    return MonicPolynomial(tuple(a))


@settings(max_examples=150, deadline=None)
@given(
    wide_polys(),
    st.integers(1, 40),
    st.sampled_from((TOL, Fraction(1, 1000), Fraction(1), Fraction(10**400))),
)
def test_loop_matches_the_references_where_x_k_is_none(p, max_iters, tol):
    # the polynomials and tols where x_k is None or overflows: status, k and
    # raw counts match the rule that keeps every direction and the eager replay
    _check_raw_counts(p, max_iters, tol)


# SHA-256 of _iterate's (status, k, raw counts) from e_1 for every
# a in [-3, 3]^m with a_m != 0, m in {2, 3}: budget 256 at four tols, and
# 3000 at 10^-12. Computed on commit 492d351, whose loop read every float
# ratio and filed first visits by zero pattern, before x_k decided the filters
LOOP_RUNS = [(256, TOL), (256, Fraction(1, 1000)), (256, Fraction(1)), (256, Fraction(10**400)), (3000, TOL)]
LOOP_SHA256 = "c6d9e620fdada27a6693ccf5dfabc49f78a0c8878eb0a719afa8912656d8a21d"


def test_loop_outcomes_pinned():
    h = hashlib.sha256()
    for m in (2, 3):
        for a in itertools.product(range(-3, 4), repeat=m):
            if a[-1]:
                p = MonicPolynomial(a)
                for max_iters, tol in LOOP_RUNS:
                    status, k, n = _iterate(p, max_iters, tol)
                    h.update(f"{status.value} {k} {n}\n".encode())
    assert h.hexdigest() == LOOP_SHA256


def _times_x_plus_1(c, s):
    # c (ascending) times (x + 1)^s
    for _ in range(s):
        c = [x + y for x, y in zip([0, *c], [*c, 0])]
    return c


def test_compiled_kernels_match_the_plain_loop(monkeypatch):
    # a seeded sweep of _iterate, once on the plain _run at every degree,
    # which always strips, and once on the compiled kernels, each of whose
    # calls is checked against that _run on the same arguments: the same
    # (status, k, counts) and the same hand-backs and strips. A kernel
    # strips exactly when p = (x+1)^m mod 2, and one that does not hands
    # back all six fields as the stripping _run does, so that _run never
    # found a bit to drop either. It covers s = 0..3 from (x+1)^s factors,
    # p on both sides of the mod 2 rule, budgets under 32 and off multiples
    # of 32, a zero n_2 (a_1 = -2 at k = 2), counts past the double range,
    # DegenerateStart, NoRealLimit at v_s with s >= 1, and s = 1 revisits of
    # v_1 on the float pretest (|1 + a_1| < 2^53) and on the exact one
    rng = random.Random(2025)
    polys = [
        from_coefficients(_times_x_plus_1([rng.randint(-3, 3) for _ in range(d)] + [1], s))
        for s in range(4) for d in (1, 2, 3) for _ in range(6) if s + d >= 2
    ]
    polys += [from_coefficients(_times_x_plus_1([1], m)) for m in (2, 3, 4)]  # (x+1)^m
    polys += [MonicPolynomial((-2, 3)), MonicPolynomial((-2, -1, 2)), MonicPolynomial((2**1100, 1))]
    polys += [parse_polynomial(t) for t in ("x^4 + 2x^2 - 3", "x^2 + x + 1", "x^2 - 201x + 10100",
                                            "x^3 - 5x^2 + 3x + 9")]
    polys += [_revisits_of_v_1(20, r, r) for r in (2**53 + 8, 2**53 + 9)]
    # (x+1)^m mod 2 with no factor x + 1 over the integers, and the same
    # with one a_i moved by 1, which leaves the rule
    for m in (2, 3, 5, 6, 8):
        p = _x_plus_1_mod_2(m, [rng.randint(-2, 2) for _ in range(m)])
        i = rng.randrange(m)
        polys += [p, MonicPolynomial(tuple(x + (j == i) for j, x in enumerate(p.a)))]
    seen = set()

    def checked(p, m, s, strip):
        assert strip == all((x - math.comb(m, i)) % 2 == 0 for i, x in enumerate(p.a, 1))
        compiled, plain = counting._runner(m, s, strip), functools.partial(_run, s, True)

        def run(*args):
            got, want = compiled(*args), plain(*args)
            assert got[:3] == want[:3] and got[5] == want[5]
            assert _same_float(got[3], want[3]) and _same_float(got[4], want[4])
            n = got[2]
            seen.add(("s", s))
            seen.add(("strip", strip))
            seen.add(("stripped", got[5] > 0))
            if s == 1 and got[0] < args[4] and n[0] == n[1] * args[5]:
                seen.add(("s = 1 revisit, float pretest", abs(args[5]) < 2**53))
            seen.add(("zero n_2", n[1] == 0))
            seen.add(("past doubles", max(abs(x) for x in n).bit_length() > 1100))
            return got

        return run

    for p in polys:
        for max_iters in (1, 5, 31, 33, 47, 100, 3000):
            for tol in (TOL, Fraction(1, 1000), Fraction(1), Fraction(10**400)):
                monkeypatch.setattr(estimation, "_runner",
                                    lambda m, s, strip: functools.partial(_run, s, True))
                want = _iterate(p, max_iters, tol)
                monkeypatch.setattr(estimation, "_runner", functools.partial(checked, p))
                assert _iterate(p, max_iters, tol) == want
                seen.add(want[0])
    assert {("s", s) for s in range(4)} | {("zero n_2", True), ("past doubles", True)} <= seen
    assert {("strip", False), ("strip", True), ("stripped", True),
            ("s = 1 revisit, float pretest", True), ("s = 1 revisit, float pretest", False)} <= seen
    assert set(Status) <= seen
    # one of the sweep's NoRealLimit runs is at v_s with s = 1: d_7 = d_1
    p = parse_polynomial("x^4 + 2x^2 - 3")
    monkeypatch.setattr(estimation, "_runner", functools.partial(checked, p))
    assert _iterate(p, 60, TOL)[:2] == (Status.NO_REAL_LIMIT, 7)


def test_stripped_loop_returns_the_raw_counts_of_a_deep_run():
    # (x-3)^2 (x+1): 1 + lambda is 4, 4 and 0, so the counts gain 2 bits a
    # step, 39996 of the 40014 bits by step 20000, and all of them come back
    p = parse_polynomial("x^3 - 5x^2 + 3x + 9")
    rep = estimate_root(p, max_iters=20000, compare_oracle=False)
    v = CountVector.unit(3)
    for _ in range(20000):
        v = step_counts(p, v)
    z = functools.reduce(operator.or_, v.n)
    assert ((z & -z).bit_length() - 1, max(x.bit_length() for x in v.n)) == (39996, 40014)
    assert rep.history[-1] == tuple(ratio_estimates(v, iteration=20000))


def test_first_visit_filed_stripped_is_revisited():
    # p = (x+1)^64 - 3 2^64 has R^64 = 3 2^64 I, so v_64 = 3 2^64 e_1
    # revisits v_0 = e_1 (s = 0). The strips at k = 32 and 64 leave the loop
    # comparing 3 e_1 with v_0, and the raw counts come back
    p = from_coefficients([math.comb(64, i) - 3 * 2**64 * (i == 0) for i in range(65)])
    status, k, n = _check_raw_counts(p, 80)
    assert (status, k, n) == (Status.NO_REAL_LIMIT, 64, (3 * 2**64,) + (0,) * 63)


def test_history_is_a_read_only_sequence():
    rep = estimate_root(GOLDEN, compare_oracle=False)
    h, eager = rep.history, tuple(rep.history)
    n = len(h)
    assert n == rep.iterations_used + 1 == len(eager)
    assert (h[0], h[-1], h[-n], h[n - 1], h[3]) == (eager[0], eager[-1], eager[0], eager[-1], eager[3])
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            h[i]
    with pytest.raises(TypeError):
        h[2:9]
    assert tuple(reversed(h)) == eager[::-1]
    # equal and hashed alike for the same run, unequal for another budget
    again = estimate_root(GOLDEN, compare_oracle=False)
    assert again.history == h and hash(again.history) == hash(h)
    assert again == rep
    assert estimate_root(GOLDEN, max_iters=8, compare_oracle=False).history != h


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int<->str digit limit"
)
def test_json_dict_passes_the_int_digit_limit():
    # (x-100)(x-101) converges at 2337 with 15601-bit counts, past the
    # 4300-digit limit; the caller's own limit comes back afterwards
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        p = parse_polynomial("x^2 - 201x + 10100")
        d = estimate_root(p, max_iters=20000, compare_oracle=False).to_json_dict()
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(d["history"]) == 2338
    assert len(d["history"][-1]["ratios"][0]["num"]) > 4300
    assert len(d["final"]["num"]) > 4300
