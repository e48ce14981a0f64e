"""Largest-real-root approximation for integer monic polynomials.

The method: turn p(x) = x^m - a_1 x^(m-1) - ... - a_m into a replacement
rule over 2m signed letters, iterate it, and read rational root approximants
off the ratios of consecutive letter counts. Counting commutes with
rewriting through a fixed integer matrix, so the deep iterations run as an
exact big-integer power iteration instead of on literal words.
"""

from .counting import CountVector, count_word, iterate_counts, verify_commutation
from .errors import EngineOverflowError, SymrootError
from .estimation import (
    DEFAULT_TOL,
    Status,
    estimate_root,
    oracle_largest_real_root,
    ratio_estimates,
)
from .polynomial import from_coefficients, iteration_matrix, parse_polynomial
from .rewriting import (
    MINUS,
    PLUS,
    RleWord,
    Word,
    build_rule,
    default_initial_word,
    iterate_words,
    letter,
    rewrite,
)

__version__ = "0.1.0"

__all__ = [
    "SymrootError",
    "EngineOverflowError",
    "parse_polynomial",
    "from_coefficients",
    "iteration_matrix",
    "PLUS",
    "MINUS",
    "letter",
    "Word",
    "RleWord",
    "build_rule",
    "rewrite",
    "iterate_words",
    "default_initial_word",
    "CountVector",
    "count_word",
    "iterate_counts",
    "verify_commutation",
    "Status",
    "ratio_estimates",
    "estimate_root",
    "oracle_largest_real_root",
    "DEFAULT_TOL",
]
