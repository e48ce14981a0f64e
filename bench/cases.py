"""The benchmark's inputs: three workloads of fixed cases, and the known defects.

Each case is one call into symroot. Library cases call `estimate_root` on a
polynomial text with a given iteration budget; CLI cases run
`python -m symroot.cli` with an argument list. The reference outcome of every
case is pinned in reference.json (written by make_reference.py from mpmath);
the defects the program shows today are pinned in KNOWN_DEFECTS below, so a
run can tell a known wrong answer from a new one.

This module imports nothing from symroot: the orchestrator and the reference
generator use it without loading the program.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_BUDGET = 256  # symroot's default max_iters
DEEP_BUDGET = 20000
TOL_EXPONENT = 12  # symroot's default tol is 10**-12

BIG = 10**20


@dataclass(frozen=True)
class Case:
    """One call. `poly` is the polynomial text, or None for a `--coeffs` call,
    whose ascending coefficients are in `coeffs`."""

    id: str
    kind: str  # "lib" or "cli"
    poly: str | None
    budget: int = DEFAULT_BUDGET
    coeffs: tuple[int, ...] | None = None
    argv: tuple[str, ...] = ()  # CLI arguments after `python -m symroot.cli`

    @property
    def command(self) -> str:
        return self.argv[0] if self.argv else "estimate_root"


def _lib(case_id: str, poly: str, budget: int = DEFAULT_BUDGET) -> Case:
    return Case(case_id, "lib", poly, budget)


CORPUS = (
    _lib("golden", "x^2 - x - 1"),
    _lib("plastic", "x^3 - x - 1"),
    _lib("cbrt2", "x^3 - 2"),
    _lib("neg_dominant", "x^2 + 3x + 1"),
    _lib("complex_pair", "x^2 + 2x + 2"),
    _lib("double_root", "x^3 - 5x^2 + 3x + 9"),  # (x-3)^2 (x+1)
    _lib("deg12", "x^12 - x - 1"),
    _lib("deg24", "x^24 - 3x^23 + x^5 - 7"),
)

DEEP = (
    _lib("close_pair", "x^2 - 201x + 10100", DEEP_BUDGET),  # (x-100)(x-101)
    _lib("close_pair_neg", "x^3 - 200x^2 + 9899x + 10100", DEEP_BUDGET),  # (x-100)(x-101)(x+1)
    _lib("double_root", "x^3 - 5x^2 + 3x + 9", DEEP_BUDGET),  # (x-3)^2 (x+1)
    _lib("deg12", "x^12 - x - 1", DEEP_BUDGET),
)

VERIFY_SAMPLES = 1000
TRACE_DEPTH = 14
VERIFY_DEPTH = 12


def cli_cases(seed: int) -> tuple[Case, ...]:
    """The CLI workload; the seed is passed through as `verify --seed`."""
    big = (BIG * (BIG + 1), -(2 * BIG + 1), 1)  # (x - 10^20)(x - 10^20 - 1)
    return (
        Case("trace", "cli", "x^2 - x - 1",
             argv=("trace", "--poly", "x^2 - x - 1", "--depth", str(TRACE_DEPTH))),
        Case("verify", "cli", "x^3 - x - 1",
             argv=("verify", "--poly", "x^3 - x - 1", "--samples", str(VERIFY_SAMPLES),
                   "--depth", str(VERIFY_DEPTH), "--seed", str(seed))),
        Case("run_json", "cli", "x^3 - x - 1",
             argv=("run", "--poly", "x^3 - x - 1", "--format", "json")),
        Case("run_big", "cli", None, coeffs=big,
             argv=("run", "--coeffs", ",".join(str(c) for c in big))),
    )


WORKLOADS = ("corpus", "deep", "cli")

# the speed.py kernel whose work is most like each workload's dominant cost:
# the grid oracle on corpus, big-integer settle checks on deep
SPEED_KERNEL = {"corpus": "fraction", "deep": "bigint", "cli": "fraction"}


def workload_cases(workload: str, seed: int) -> tuple[Case, ...]:
    if workload == "corpus":
        return CORPUS
    if workload == "deep":
        return DEEP
    if workload == "cli":
        return cli_cases(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# What the program does today where it differs from the reference. A call
# that matches neither its reference nor its entry here is a new defect and
# makes the run incorrect. Keys are (workload, case id); values list only the
# outcome fields that differ from the reference.
KNOWN_DEFECTS = {
    ("corpus", "deg12"): {
        "fields": {"status": "NoRealLimit"},
        "why": "false NoRealLimit at 256 iterations: the dominant root 1.0622 is real "
               "and the iteration converges at 721",
    },
    ("deep", "close_pair"): {
        "fields": {"oracle": None},
        "why": "the grid oracle puts both roots 100 and 101 in one cell and returns None",
    },
    ("deep", "close_pair_neg"): {
        "fields": {"exit": 4, "oracle": False},
        "why": "the grid oracle returns -1 instead of 101, a false dominance alarm (exit 4)",
    },
    ("cli", "run_big"): {
        "fields": {"exit": 3, "status": None},
        "why": "the table renderer hits CPython's 4300-digit int-to-str limit and the "
               "blanket ValueError handler reports bad input (exit 3) before the status "
               "line, instead of exit 2 with MaxIterationsReached",
    },
}

# Polynomials whose largest real root the oracle misses today. The traced run
# asks the oracle about every library case, so these show in
# estimation.oracle_hit_share; the double root shows nowhere else, because
# no call that consults the oracle converges on it. Any other miss is new.
KNOWN_ORACLE_MISSES = {
    "x^3 - 5x^2 + 3x + 9": "the double root 3 does not change sign; the oracle returns -1",
    "x^2 - 201x + 10100": "both roots in one grid cell; the oracle returns None",
    "x^3 - 200x^2 + 9899x + 10100": "roots 100 and 101 in one grid cell; the oracle returns -1",
}
