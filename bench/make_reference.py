"""Write reference.json: the pinned outcome of every benchmark case.

The outcomes come from high-precision roots (mpmath.polyroots) and the
convergence theory of the method, never from symroot itself:

- the count ratios converge to the root lambda that maximizes |1 + lambda|
  when that root is real and unique; otherwise there is no real limit;
- with a simple dominant root the error shrinks like rho^k, where rho is the
  second-largest |1 + lambda| over the largest, so about
  log(tol) / log(rho) iterations are needed; with a repeated dominant root
  it shrinks like 1/k and never reaches tol = 1e-12 in these budgets;
- after converging, the CLI exits 0 when the dominant root is the largest
  real root and 4 when it is not.

A case whose predicted iteration count lies within a factor of two of its
budget is refused, so no pinned status depends on the constant hidden in
the rate. Run from the repository root (needs mpmath and sympy):

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
from sympy import Poly, Symbol
from sympy.parsing.sympy_parser import (
    convert_xor,
    implicit_multiplication_application,
    parse_expr,
    standard_transformations,
)

import cases

mpmath.mp.dps = 80
SAME_ROOT = mpmath.mpf(10) ** -30  # relative distance below which two roots coincide
TOL = mpmath.mpf(10) ** -cases.TOL_EXPONENT
OUT = Path(__file__).with_name("reference.json")
_X = Symbol("x")


def ascending_coefficients(case: cases.Case) -> list[int]:
    if case.poly is None:
        return list(case.coeffs)
    expr = parse_expr(
        case.poly,
        transformations=standard_transformations + (implicit_multiplication_application, convert_xor),
        local_dict={"x": _X},
    )
    return [int(c) for c in reversed(Poly(expr, _X).all_coeffs())]


def root_clusters(coeffs: list[int]) -> list[tuple[mpmath.mpc, int]]:
    """Distinct roots with multiplicities."""
    roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=4000, extraprec=2000)
    clusters: list[list] = []
    for r in roots:
        r = mpmath.mpc(r)
        for c in clusters:
            if abs(r - c[0]) <= SAME_ROOT * max(1, abs(r)):
                c[1] += 1
                break
        else:
            clusters.append([r, 1])
    return [(c[0], c[1]) for c in clusters]


def _is_real(z) -> bool:
    return abs(z.imag) <= SAME_ROOT * max(1, abs(z))


def analyse(coeffs: list[int]) -> dict:
    clusters = root_clusters(coeffs)
    reals = [z.real for z, _ in clusters if _is_real(z)]
    largest = max(reals) if reals else None
    gain = [abs(1 + z) for z, _ in clusters]
    top = max(gain)
    leaders = [i for i, g in enumerate(gain) if g >= top * (1 - SAME_ROOT)]
    out = {
        "largest_real_root": None if largest is None else mpmath.nstr(largest, 40),
        "dominant_root": None,
        "predicted_iterations": None,
    }
    if len(leaders) != 1 or not _is_real(clusters[leaders[0]][0]):
        return out  # ties in |1 + lambda|: the direction never settles
    z, mult = clusters[leaders[0]]
    out["dominant_root"] = mpmath.nstr(z.real, 40)
    out["dominant_is_largest"] = largest is not None and abs(z.real - largest) <= SAME_ROOT * max(1, abs(largest))
    if mult > 1:
        out["predicted_iterations"] = math.inf
    else:
        rest = [g for i, g in enumerate(gain) if i != leaders[0]]
        rho = max(rest) / top if rest else mpmath.mpf(0)
        out["predicted_iterations"] = 1 if rho == 0 else float(mpmath.log(TOL) / mpmath.log(rho))
    return out


def expected_run(roots: dict, budget: int) -> dict:
    """Status, exit code, root and oracle verdict of a correct run."""
    predicted = roots["predicted_iterations"]
    if predicted is None:
        return {"status": "NoRealLimit", "exit": 2, "root": None, "oracle": None}
    if predicted >= 2 * budget:
        return {"status": "MaxIterationsReached", "exit": 2, "root": None, "oracle": None}
    if predicted <= budget / 2:
        agrees = roots["dominant_is_largest"]
        return {"status": "Converged", "exit": 0 if agrees else 4,
                "root": roots["dominant_root"], "oracle": agrees}
    raise SystemExit(f"predicted {predicted:.0f} iterations is too close to the budget {budget}")


def trace_counts(coeffs: list[int], depth: int) -> list[str]:
    """Count vector after `depth` rewrites of 1+: (I + companion)^depth e_1."""
    m = len(coeffs) - 1
    a = [-coeffs[m - i] for i in range(1, m + 1)]
    v = [1] + [0] * (m - 1)
    for _ in range(depth):
        first = v[0] + sum(a[j] * v[j] for j in range(m))
        v = [first] + [v[i - 1] + v[i] for i in range(1, m)]
    return [str(x) for x in v]


def reference() -> dict:
    out: dict = {"tol": f"1e-{cases.TOL_EXPONENT}", "workloads": {}}
    for workload in cases.WORKLOADS:
        entries = {}
        for case in cases.workload_cases(workload, seed=0):
            coeffs = ascending_coefficients(case)
            roots = analyse(coeffs)
            entry = {"coefficients": [str(c) for c in coeffs], **roots}
            if entry["predicted_iterations"] == math.inf:
                entry["predicted_iterations"] = "repeated dominant root"
            if case.command in ("estimate_root", "run"):
                entry["expected"] = expected_run(roots, case.budget)
            elif case.command == "trace":
                entry["expected"] = {"exit": 0, "lines": cases.TRACE_DEPTH + 1,
                                     "last_counts": trace_counts(coeffs, cases.TRACE_DEPTH)}
            else:
                entry["expected"] = {"exit": 0, "last_line": "PASS"}
            entries[case.id] = entry
        out["workloads"][workload] = entries
    return out


if __name__ == "__main__":
    OUT.write_text(json.dumps(reference(), indent=2) + "\n")
    print(f"wrote {OUT}")
