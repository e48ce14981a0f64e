"""Exact integer monic polynomials.

Everything downstream works with the form p(x) = x^m - a_1 x^(m-1) - ... - a_m.
Users hand in ordinary polynomial text or an ascending coefficient list, and
the sign flip into the a_i happens here, on input. Three places in the
estimation module flip them back to p's own coefficients 1, -a_1, ..., -a_m:
the Sturm sequence, the root bound and the cycle rule's synthetic division
by x + 1.
"""

from __future__ import annotations

import operator

from .errors import (
    EmptyInputError,
    ExponentTooLargeError,
    NonIntegerCoefficientError,
    NotMonicError,
    PolynomialSyntaxError,
    ZeroDegreeError,
)

__all__ = ["MAX_EXPONENT", "parse_polynomial", "from_coefficients", "iteration_matrix"]

# the largest exponent parse_polynomial accepts: the parsed degree sets the
# length of the coefficient tuple and of every count vector, so text of a few
# bytes must not ask for gigabytes
MAX_EXPONENT = 100_000


def _exact_int(value, context: str) -> int:
    # bool is an int subclass; a True coefficient is almost surely a bug
    if isinstance(value, bool):
        raise NonIntegerCoefficientError(f"{context} = {value!r} is not an exact integer")
    try:
        return operator.index(value)
    except TypeError:
        raise NonIntegerCoefficientError(f"{context} = {value!r} is not an exact integer") from None


class FrozenValue:
    """An immutable value: __init__ sets the fields named in _fields, which
    subclasses inherit, once by _assign(*values); it equals only an object of
    its own class with equal fields and hashes, shows, pickles and copies as
    them. Not a dataclass, whose import loads inspect and ast."""

    __slots__ = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__qualname__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


class MonicPolynomial(FrozenValue):
    """p(x) = x^m - a_1 x^(m-1) - ... - a_m with exact integer a_i.

    Note the built-in minus signs: a=(1, 1) is x^2 - x - 1, while
    x^2 + 3x + 1 has a=(-3, -1).
    """

    __slots__ = _fields = ("a",)

    def __init__(self, a: tuple[int, ...]) -> None:
        a = tuple(_exact_int(value, f"a[{i}]") for i, value in enumerate(a, start=1))
        if not a:
            raise ZeroDegreeError("degree must be at least 1")
        self._assign(a)

    @property
    def degree(self) -> int:
        return len(self.a)

    def eval_at(self, x):
        """Evaluate p at x exactly by Horner; int or Fraction in, same out."""
        value = 1
        for coeff in self.a:
            value = value * x - coeff
        return value

    def render(self) -> str:
        """Canonical text form, e.g. "x^3 - 2x - 5"; parses back to self."""
        m = self.degree
        parts = [_power_text(m)]
        for k in range(m - 1, -1, -1):
            c = -self.a[m - 1 - k]
            if c == 0:
                continue
            sign = " - " if c < 0 else " + "
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                term = ("" if mag == 1 else str(mag)) + _power_text(k)
            parts.append(sign + term)
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()


def _power_text(k: int) -> str:
    return "x" if k == 1 else f"x^{k}"


# str.isdigit() also accepts superscript and non-Latin digits, which int()
# then rejects or silently reads; only ASCII digits are numbers here
_DIGITS = frozenset("0123456789")


def parse_polynomial(text: str) -> MonicPolynomial:
    """Parse text like "x^3 - 2x - 5" into a MonicPolynomial.

    Grammar: a sum of integer-coefficient monomials in the single variable x.
    Whitespace is ignored, `*` between coefficient and variable is optional,
    coefficients and exponents are unsigned ASCII decimal integers, and
    repeated powers are summed. One leading sign is allowed. The fully
    expanded coefficient of the highest power must be exactly 1.

    Raises PolynomialSyntaxError (with the byte offset of the offending
    character), ExponentTooLargeError (a PolynomialSyntaxError) for an
    exponent above MAX_EXPONENT, NotMonicError, or ZeroDegreeError.
    """
    coeffs: dict[int, int] = {}
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_uint() -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos] in _DIGITS:
            pos += 1
        if pos == start:
            raise PolynomialSyntaxError("expected an unsigned integer", start)
        return int(text[start:pos])

    def read_term(sign: int) -> None:
        nonlocal pos
        coef = 1
        power = 0
        have_coef = False
        if pos < n and text[pos] in _DIGITS:
            coef = read_uint()
            have_coef = True
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
                if pos >= n or text[pos] != "x":
                    raise PolynomialSyntaxError("expected x after *", pos)
        if pos < n and text[pos] == "x":
            pos += 1
            power = 1
            skip_ws()
            if pos < n and text[pos] == "^":
                pos += 1
                skip_ws()
                start = pos
                power = read_uint()
                if power > MAX_EXPONENT:
                    raise ExponentTooLargeError(f"exponent above {MAX_EXPONENT}", start)
        elif not have_coef:
            raise PolynomialSyntaxError("expected a term", pos)
        coeffs[power] = coeffs.get(power, 0) + sign * coef

    skip_ws()
    if pos >= n:
        raise PolynomialSyntaxError("empty polynomial text", pos)
    sign = 1
    if text[pos] in "+-":
        sign = -1 if text[pos] == "-" else 1
        pos += 1
        skip_ws()
    read_term(sign)
    skip_ws()
    while pos < n:
        ch = text[pos]
        if ch not in "+-":
            raise PolynomialSyntaxError(f"expected + or - before {ch!r}", pos)
        pos += 1
        skip_ws()
        read_term(-1 if ch == "-" else 1)
        skip_ws()

    nonzero = {k: c for k, c in coeffs.items() if c != 0}
    if not nonzero:
        raise ZeroDegreeError("the zero polynomial has no degree")
    m = max(nonzero)
    if m == 0:
        raise ZeroDegreeError("constant polynomial; need degree >= 1")
    if nonzero[m] != 1:
        raise NotMonicError(f"coefficient of x^{m} is {nonzero[m]}, must be 1")
    return MonicPolynomial(tuple(-coeffs.get(m - i, 0) for i in range(1, m + 1)))


def from_coefficients(c) -> MonicPolynomial:
    """Build from ascending standard coefficients (c_0, ..., c_m), c_m = 1."""
    seq = tuple(c)
    if not seq:
        raise EmptyInputError("coefficient sequence is empty")
    seq = tuple(_exact_int(v, f"c[{k}]") for k, v in enumerate(seq))
    if len(seq) == 1:
        raise ZeroDegreeError("constant polynomial; need degree >= 1")
    if seq[-1] != 1:
        raise NotMonicError(f"leading coefficient is {seq[-1]}, must be 1")
    m = len(seq) - 1
    return MonicPolynomial(tuple(-seq[m - i] for i in range(1, m + 1)))


def iteration_matrix(p: MonicPolynomial) -> MonicPolynomial:
    """p itself: the count-step matrix I + C(p) is held as its polynomial,
    which step_counts and iterate_counts take directly. Kept for callers
    that build the matrix first."""
    return p
