"""Output-identity check: hash what one source tree of symroot computes on a
fixed list of cases, and list the cases where two such files differ.

    python tools/identity.py --src DIR --out FILE
    python tools/identity.py --diff A B

--src DIR imports symroot from DIR (a checkout's src/) and writes one line per
case to FILE: the case id, a tab, and the SHA-256 of what the case computed.
--diff prints the ids of the cases whose lines differ, or that only one file
has, and exits 1 if there are any. Run it on two checkouts, for example HEAD^
and HEAD, to show that a change keeps every status, count, Fraction, exit code
and CLI byte these cases reach. The cases:

- every a in [-2, 2]^m for m = 2, 3, 4 with a_m != 0: estimate_root at budget
  256 and 3000 with the default tol and at budget 256 with tol 1/1000 (status,
  iterations_used, final, oracle root, agreement, discrepancy and the raw last
  history entry), and oracle_largest_real_root at 10^-12;
- the seeded dense and squared-quadratic polynomials that the tier-1 pin
  DENSE_ORACLE_SHA256 draws, the same way, at tol 10^-6;
- the four bench deep polynomials at budget 20000, whose estimates carry
  15600-bit terms, and the seeded dense polynomials of degree 24, 48 and 96
  (random.Random(3)) at tol 10^-6 and budget 5000: estimate_root as above;
- `symroot run` on the eight bench corpus polynomials in the table, json and
  tsv formats: the exit code and the SHA-256 of stdout, each in a fresh
  interpreter with DIR on PYTHONPATH.

Standard library only; --src takes about 20 s on a 2-vCPU host (Python 3.11).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

CORPUS = (
    "x^2 - x - 1",
    "x^3 - x - 1",
    "x^3 - 2",
    "x^2 + 3x + 1",
    "x^2 + 2x + 2",
    "x^3 - 5x^2 + 3x + 9",
    "x^12 - x - 1",
    "x^24 - 3x^23 + x^5 - 7",
)
DEEP = (
    "x^2 - 201x + 10100",
    "x^3 - 200x^2 + 9899x + 10100",
    "x^3 - 5x^2 + 3x + 9",
    "x^12 - x - 1",
)
FORMATS = ("table", "json", "tsv")
ORACLE_PRECISION = Fraction(1, 10**12)


def _report(rep) -> tuple:
    last = tuple(map(tuple, rep.history[-1]))
    return (rep.status.value, rep.iterations_used, rep.final_estimate, rep.oracle_root,
            rep.oracle_agreement, rep.oracle_discrepancy, last)


def _times(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _dense_family() -> list:
    # the draw of tests/test_estimation.py's test_dense_oracle_outputs_pinned
    from symroot import from_coefficients
    from symroot.polynomial import MonicPolynomial

    rng = random.Random(24)
    polys = []
    for m in [rng.randint(5, 24) for _ in range(20)]:
        a = tuple(rng.randint(-9, 9) for _ in range(m - 1)) + (rng.randint(1, 9),)
        polys.append(MonicPolynomial(a))
    for _ in range(10):
        b, c, d = (rng.randint(-5, 5) for _ in range(3))
        polys.append(from_coefficients(_times(_times([c, b, 1], [c, b, 1]), [d, 1])))
    return polys


def cases(src: Path):
    """Yield (case id, value) pairs for the symroot under src."""
    import symroot
    from symroot.polynomial import MonicPolynomial

    for m in (2, 3, 4):
        for a in itertools.product(range(-2, 3), repeat=m):
            if not a[-1]:
                continue
            p = MonicPolynomial(a)
            for iters, tol in ((256, symroot.DEFAULT_TOL), (3000, symroot.DEFAULT_TOL),
                               (256, Fraction(1, 1000))):
                yield (f"estimate a={a} iters={iters} tol={tol}",
                       _report(symroot.estimate_root(p, max_iters=iters, tol=tol)))
            yield f"oracle a={a}", symroot.oracle_largest_real_root(p, ORACLE_PRECISION)
    for i, p in enumerate(_dense_family()):
        rep = symroot.estimate_root(p, tol=Fraction(1, 10**6))
        yield f"dense {i} estimate a={p.a}", _report(rep)
        yield f"dense {i} oracle a={p.a}", symroot.oracle_largest_real_root(p, ORACLE_PRECISION)
    for text in DEEP:
        rep = symroot.estimate_root(symroot.parse_polynomial(text), max_iters=20000)
        yield f"deep {text!r} iters=20000", _report(rep)
    rng = random.Random(3)  # the draw of tests/test_estimation.py's _dense_polys
    for m in (24, 48, 96):
        p = MonicPolynomial(tuple(rng.randint(-9, 9) for _ in range(m - 1)) + (rng.randint(1, 9),))
        rep = symroot.estimate_root(p, tol=Fraction(1, 10**6), max_iters=5000)
        yield f"dense degree {m} iters=5000 tol=1/10^6", _report(rep)
    env = {**os.environ, "PYTHONPATH": str(src)}
    for text, fmt in itertools.product(CORPUS, FORMATS):
        run = subprocess.run([sys.executable, "-m", "symroot.cli", "run", "--poly", text,
                              "--format", fmt], env=env, capture_output=True, check=False)
        stdout = hashlib.sha256(run.stdout).hexdigest()
        yield f"cli run {text!r} --format {fmt}", (run.returncode, stdout)


def write(src: Path, out: Path) -> None:
    sys.path.insert(0, str(src))
    import symroot

    if Path(symroot.__file__).resolve().parent.parent != src:
        sys.exit(f"identity: imported symroot from {symroot.__file__}, not from {src}")
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # 3000-step counts pass the 4300-digit default
    with out.open("w") as f:
        for case_id, value in cases(src):
            f.write(f"{case_id}\t{hashlib.sha256(repr(value).encode()).hexdigest()}\n")


def _read(path: str) -> dict[str, str]:
    with open(path) as f:
        return dict(line.rstrip("\n").split("\t") for line in f)


def diff(a: str, b: str) -> int:
    left, right = _read(a), _read(b)
    differ = [k for k in {**left, **right} if left.get(k) != right.get(k)]
    for case_id in differ:
        print(case_id)
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, help="the src/ directory to import symroot from")
    parser.add_argument("--out", type=Path, help="the file to write, one line per case")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), help="two files to compare")
    args = parser.parse_args(argv)
    if args.diff:
        return diff(*args.diff)
    if args.src is None or args.out is None:
        parser.error("give --src and --out, or --diff A B")
    write(args.src.resolve(), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
