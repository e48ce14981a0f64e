import ast
import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import symroot
from symroot import CountVector, RleWord, Word, build_rule, estimate_root, parse_polynomial
from symroot.errors import DimensionMismatchError, NonIntegerCoefficientError, ZeroDegreeError
from symroot.polynomial import MonicPolynomial
from symroot.rewriting import ReplacementRule

ROOT = Path(__file__).resolve().parents[1]
HARNESS = ROOT / "bench" / "harness.py"


def test_bench_harness_imports_are_exported():
    # the benchmark imports these names from the package; each must stay
    # part of the public API
    tree = ast.parse(HARNESS.read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "symroot" and node.level == 0
        for alias in node.names
    ]
    assert names
    for name in names:
        assert name in symroot.__all__, name
        assert hasattr(symroot, name), name


REPORT_FIELDS = (
    "polynomial",
    "status",
    "iterations_used",
    "history",
    "final_estimate",
    "oracle_root",
    "oracle_agreement",
    "oracle_discrepancy",
    "note",
)


def _values():
    # (object, its class's field names in order, the field values, a
    # different object of the same class) for every value class
    p = MonicPolynomial((1, 1))
    q = MonicPolynomial((2, 0, 1))
    report = estimate_root(p)
    other = estimate_root(q)
    h = report.history
    return [
        (p, ("a",), ((1, 1),), q),
        (CountVector((3, -2)), ("n",), ((3, -2),), CountVector((3, 2))),
        (Word((1, -2)), ("letters",), ((1, -2),), Word((1, 2))),
        (RleWord((1, 1, 2)), ("letters",), ((1, 1, 2),), RleWord((1, 2))),
        (ReplacementRule(p), ("polynomial",), (p,), ReplacementRule(q)),
        (h, ("p", "length", "last"), (h.p, h.length, h.last), other.history),
        (report, REPORT_FIELDS, tuple(getattr(report, f) for f in REPORT_FIELDS), other),
    ]


@pytest.mark.parametrize("value, fields, values, other", _values(), ids=lambda v: type(v).__name__)
def test_value_semantics(value, fields, values, other):
    cls = type(value)
    twin = cls(*values)
    assert twin == value and not twin != value and twin is not value
    assert hash(twin) == hash(value) == hash(values)
    assert value != other and hash(other) != hash(value)
    assert cls(**dict(zip(fields, values))) == value
    # class-strict: equal only to an object of the same class
    assert value != values and value != values[0]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, f) for f in fields) == values
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.copy(value) == value and copy.deepcopy(value) == value


def test_value_reprs():
    p = MonicPolynomial((1, 1))
    assert repr(p) == "MonicPolynomial(a=(1, 1))"
    assert repr(CountVector((3, -2))) == "CountVector(n=(3, -2))"
    assert repr(Word()) == "Word(letters=())"
    assert repr(RleWord((1, 1))) == "RleWord(letters=(1, 1))"
    assert repr(ReplacementRule(p)) == "ReplacementRule(polynomial=MonicPolynomial(a=(1, 1)))"
    report = estimate_root(parse_polynomial("x^2 - 2x - 1"), tol=Fraction(1, 2))
    # the history's last entry is a replay cache, left out of its repr
    length = report.iterations_used + 1
    assert repr(report.history) == f"History(p={report.polynomial!r}, length={length})"
    shown = ", ".join(f"{name}={getattr(report, name)!r}" for name in REPORT_FIELDS)
    assert repr(report) == f"ConvergenceReport({shown})"


def test_value_classes_are_strict_between_word_kinds():
    assert Word((1,)) != RleWord((1,)) and RleWord((1,)) != Word((1,))
    assert Word() == Word(()) == Word(letters=[]) and len(Word()) == 0
    assert Word([1, -2]).letters == (1, -2)
    assert CountVector((1,)) != MonicPolynomial((1,))
    rule = ReplacementRule(polynomial=MonicPolynomial(a=[1, 1]))
    assert build_rule(MonicPolynomial((1, 1))) == rule


def test_value_subclass_keeps_the_fields_of_its_base():
    # RleWord adds no field: it inherits Word's, and no per-object __dict__
    w = RleWord((1, 1, 2))
    assert not hasattr(w, "__dict__")
    assert w == RleWord([1, 1, 2]) != RleWord((1, 2))
    assert hash(w) == hash(RleWord((1, 1, 2))) and repr(w) == "RleWord(letters=(1, 1, 2))"
    assert pickle.loads(pickle.dumps(w)) == copy.copy(w) == w


def test_value_constructors_validate():
    assert MonicPolynomial([True + 1, 3]).a == (2, 3)
    with pytest.raises(ZeroDegreeError, match="^degree must be at least 1$"):
        MonicPolynomial(())
    for bad in ((1.0,), (True,), ("1",), (Fraction(1),)):
        with pytest.raises(NonIntegerCoefficientError, match=r"^a\[1\] = .* is not an exact integer$"):
            MonicPolynomial(bad)
    assert CountVector([1, 0]).n == (1, 0)
    with pytest.raises(DimensionMismatchError, match="^count vector needs at least one entry$"):
        CountVector(())
    for bad in ((1, 1.0), (1, False), (1, Fraction(1))):
        with pytest.raises(NonIntegerCoefficientError, match=r"^n\[2\] = .* is not an exact integer$"):
            CountVector(bad)
    with pytest.raises(TypeError):
        Word(5)
    with pytest.raises(TypeError):
        MonicPolynomial()


# each child prints, space-separated, which of these it has loaded so far
_HEAVY = "print(*sorted({'dataclasses', 'inspect', 'json', 'random', 'typing'} & set(sys.modules)))"

_IMPORT_GUARD_CHILD = f"""
import sys
from symroot.cli import main
{_HEAVY}
code = main(['run', '--poly', 'x^2 - x - 1'])
{_HEAVY}
sys.exit(code)
"""

# argparse alone, with a parser like the CLI's: it loads none of them on
# 3.10-3.13, while 3.14's help formatter imports _colorize, which uses dataclasses
_ARGPARSE_CHILD = f"""
import argparse, sys
parser = argparse.ArgumentParser(prog='p', description='d')
run = parser.add_subparsers(dest='command', required=True).add_parser('run', help='h')
run.add_mutually_exclusive_group(required=True).add_argument('--poly', metavar='TEXT')
parser.parse_args(['run', '--poly', 'x'])
{_HEAVY}
"""


def _run_bare(child: str) -> list[str]:
    # site off (-S): nothing but the child's own imports can load a module
    done = subprocess.run(
        [sys.executable, "-S", "-c", child],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_a_run_imports_no_unused_heavy_module():
    # a cold `symroot run` loads only what a run uses: dataclasses pulls in
    # inspect, ast, dis and tokenize; json only serves --format json, and
    # random only verify's samples. The import loads none of them on any
    # Python, the run none that argparse itself does not load for its parser
    after_import, *table, after_run = _run_bare(_IMPORT_GUARD_CHILD)
    assert after_import == ""
    assert "status: Converged" in table
    (by_argparse,) = _run_bare(_ARGPARSE_CHILD)
    assert set(after_run.split()) <= set(by_argparse.split())
