"""Command line front end: run, trace, and verify subcommands.

Exit codes: 0 converged (and the oracle, when consulted, agrees), 1 a verify
check found a counterexample, 2 the ratios did not settle (NoRealLimit,
MaxIterationsReached, DegenerateStart), 3 bad input or options, 4 converged
but the oracle found no real root, or the Sturm counts could not show that
its largest real root is the real root nearest the estimate, 5 trace/verify
hit the word-length cap, 141 the reader of stdout closed it early (128 +
SIGPIPE).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from .counting import CountVector, count_word, iterate_counts, verify_commutation
from .errors import EngineOverflowError, NonIntegerCoefficientError, SymrootError
from .estimation import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    ConvergenceReport,
    Status,
    estimate_root,
)
from .polynomial import (
    MAX_EXPONENT,
    MonicPolynomial,
    _any_int_digits,
    from_coefficients,
    parse_polynomial,
)
from .rewriting import (
    MINUS,
    PLUS,
    WORD_CAP_DEFAULT,
    RleWord,
    Word,
    build_rule,
    default_initial_word,
    iterate_words,
    letter,
    rewrite,
)

__all__ = ["main"]

_SIGNS = (PLUS, MINUS)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this CLI reserves 2 for non-convergence,
    # so option problems are remapped to 3
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


_INT = re.compile(r"\s*[+-]?[0-9]+\s*")  # int() also reads "_" and non-ASCII digits


def _int_at_least(low: int | None = None):
    def read(text: str) -> int:
        if not _INT.fullmatch(text):
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        value = int(text)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value

    return read


def _positive_fraction(text: str) -> Fraction:
    # Fraction's time grows faster than a decimal exponent's magnitude
    # (1e-3000000 takes seconds), while written-out digits cost time linear
    # in their length; so the exponent is bounded as --poly's is
    exponent = re.search(r"[eE][-+]?([\d_]+)", text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise argparse.ArgumentTypeError(f"exponent above {MAX_EXPONENT}: {text!r}")
    # Fraction() also reads underscores and non-ASCII digits
    if not text.isascii() or "_" in text:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _add_poly_args(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--poly", metavar="TEXT", help='polynomial text, e.g. "x^2 - x - 1"')
    group.add_argument(
        "--coeffs",
        metavar="C0,C1,...,CM",
        help="ascending integer coefficients with the leading one equal to 1",
    )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="symroot",
        description=(
            "Approximate the largest real root of an integer monic polynomial by "
            "iterating its letter-replacement rule and reading off count ratios."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="iterate and report convergence")
    _add_poly_args(run)
    run.add_argument("--iters", type=_int_at_least(1), default=DEFAULT_MAX_ITERS, metavar="N")
    run.add_argument("--tol", type=_positive_fraction, default=DEFAULT_TOL, metavar="DECIMAL")
    run.add_argument("--format", choices=("table", "json", "tsv"), default="table")
    run.add_argument("--no-oracle", action="store_true", help="skip the numeric cross-check")

    trace = sub.add_parser("trace", help="print the first words of the rewriting sequence")
    _add_poly_args(trace)
    trace.add_argument("--depth", type=_int_at_least(0), default=6, metavar="N")
    trace.add_argument("--engine", choices=("word", "rle"), default="word")
    trace.add_argument("--word-cap", type=_int_at_least(1), default=WORD_CAP_DEFAULT, metavar="N")

    verify = sub.add_parser("verify", help="randomized cross-checks of the engines")
    _add_poly_args(verify)
    verify.add_argument("--samples", type=_int_at_least(1), default=1000, metavar="N")
    verify.add_argument("--seed", type=_int_at_least(), default=1, metavar="N")
    verify.add_argument("--depth", type=_int_at_least(0), default=6, metavar="N")
    verify.add_argument("--word-cap", type=_int_at_least(1), default=WORD_CAP_DEFAULT, metavar="N")

    return parser


def _polynomial_from_args(args) -> MonicPolynomial:
    if args.coeffs is not None:
        parts = args.coeffs.split(",")
        if not all(map(_INT.fullmatch, parts)):
            raise NonIntegerCoefficientError(
                f"--coeffs entries must be integers, got {args.coeffs!r}"
            )
        return from_coefficients([int(s) for s in parts])
    return parse_polynomial(args.poly)


def _float_text(value: Fraction) -> str:
    # a double rounds values past its range to +-inf, where float() raises
    try:
        return f"{float(value):.17g}"
    except OverflowError:
        return "inf" if value > 0 else "-inf"


def _print_table(report: ConvergenceReport) -> None:
    print(f"polynomial: {report.polynomial.render()}")
    print("engine: counts")
    print(f"{'iter':>6}  {'j':>3}  {'ratio':<24}  exact")
    for i, ests in enumerate(report.history):
        if not ests:
            print(f"{i:>6}  {'-':>3}  (no defined ratios)")
            continue
        for r in ests:
            print(f"{i:>6}  {r.j:>3}  {_float_text(r.value):<24}  {r.numerator}/{r.denominator}")
    print(f"status: {report.status.value}")
    print(f"iterations: {report.iterations_used}")
    if report.note:
        print(f"note: {report.note}")
    if report.final_estimate is not None:
        f = report.final_estimate
        print(f"final: {_float_text(f)} = {f.numerator}/{f.denominator}")
    if report.oracle_root is not None:
        print(f"oracle largest real root: {_float_text(report.oracle_root)}")
        answer = "yes" if report.oracle_agreement else "NO"
        print(f"oracle agreement: {answer} (discrepancy {_float_text(report.oracle_discrepancy)})")
    elif report.oracle_agreement is False:  # consulted, and found no real root
        print("oracle largest real root: none")
        print("oracle agreement: NO (no real root)")


def _print_tsv(report: ConvergenceReport) -> None:
    for i, ests in enumerate(report.history):
        for r in ests:
            print(f"{i}\t{r.j}\t{r.numerator}\t{r.denominator}\t{_float_text(r.value)}")


def cmd_run(p: MonicPolynomial, args) -> int:
    report = estimate_root(
        p, max_iters=args.iters, tol=args.tol, compare_oracle=not args.no_oracle
    )
    if args.format == "json":
        report.write_json(sys.stdout)
        print()
    elif args.format == "tsv":
        _print_tsv(report)
    else:
        _print_table(report)
    if report.status is Status.CONVERGED:
        return 4 if report.oracle_agreement is False else 0
    return 2


def _trace_line(w, m: int) -> str:
    counts = count_word(w, m)
    return f"{w.render()}  n=({', '.join(str(x) for x in counts.n)})"


def cmd_trace(p: MonicPolynomial, args) -> int:
    rule = build_rule(p)
    w0 = default_initial_word()
    if args.engine == "rle":
        w0 = RleWord.compress(w0)
    try:
        words = iterate_words(rule, w0, args.depth, cap=args.word_cap)
    except EngineOverflowError as e:
        for w in e.partial:
            print(_trace_line(w, p.degree))
        print(f"error: overflow at depth {e.depth}: {e}", file=sys.stderr)
        return 5
    for w in words:
        print(_trace_line(w, p.degree))
    return 0


def cmd_verify(p: MonicPolynomial, args) -> int:
    import random  # only verify draws samples; a run skips its import
    rule = build_rule(p)
    m = p.degree
    cap = args.word_cap
    rng = random.Random(args.seed)
    print(f"polynomial: {p.render()}")
    print(f"samples: {args.samples}  seed: {args.seed}")
    for i in range(args.samples):
        length = rng.randint(0, 50)
        w = Word(tuple(letter(rng.randint(1, m), rng.choice(_SIGNS)) for _ in range(length)))
        if not verify_commutation(rule, w, cap=cap):
            print("FAIL: counting does not commute with rewriting")
            print(f"counterexample (sample {i}): {w.render()}")
            print(f"n(W) = {count_word(w, m).n}")
            print(f"n(rewrite(W)) = {count_word(rewrite(rule, w, cap=cap), m).n}")
            return 1
    print(f"commutation: {args.samples}/{args.samples} exact")

    words = iterate_words(rule, default_initial_word(), args.depth, cap=cap)
    counts = iterate_counts(p, CountVector.unit(m), args.depth)
    for k in range(args.depth + 1):
        cw = count_word(words[k], m)
        if cw != counts[k]:
            print(f"FAIL: engine mismatch at depth {k}")
            print(f"word engine:   {cw.n}")
            print(f"counts engine: {counts[k].n}")
            return 1
    # an RleWord is a Word that only renders its runs: it has the word's own
    # letters, so the word check above covers the rle engine too
    print(f"engines: word, rle, counts identical through depth {args.depth}")
    print("PASS")
    return 0


def _glue_coeff_values(argv: list[str]) -> list[str]:
    # argparse reads a bare "-1,-1,1" as an unknown flag, so fold values that
    # look like negative-led coefficient lists into --coeffs=... form
    glued = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if tok == "--coeffs" and nxt[:1] == "-" and nxt[1:2].isdigit():
            glued.append(f"--coeffs={nxt}")
            i += 2
            continue
        glued.append(tok)
        i += 1
    return glued


def _dispatch(argv: list[str]) -> int:
    try:
        with _any_int_digits():
            args = _build_parser().parse_args(_glue_coeff_values(argv))
            p = _polynomial_from_args(args)
            if args.command == "run":
                return cmd_run(p, args)
            if args.command == "trace":
                return cmd_trace(p, args)
            return cmd_verify(p, args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 3
    except EngineOverflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except SymrootError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    try:
        code = _dispatch(list(sys.argv[1:] if argv is None else argv))
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that nothing more
        # is written, not even the flush at exit, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
