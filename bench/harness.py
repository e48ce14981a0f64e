"""Run one workload in this process and measure it: the benchmark's worker.

run.py starts this module's `main` in a fresh interpreter whose PYTHONPATH
holds the checkout's src/, so every call here goes into the program under
test. Two modes:

- untraced: closed loop, one call at a time, whole passes over the cases in
  a seed-shuffled order until the time is up; every call is checked against
  reference.json and timed on its own, the times normalized to the host's
  usual speed by a reference kernel timed throughout the run (speed.py), and
  the raw and normalized per-call times are written to the output file;
- traced: each case is taken apart into calls to each module's public
  functions, each wrapped in a span recorded here, from outside the
  program; the spans are written to the output file.

Either mode prints one JSON object as its last line of output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import cases
import speed
import symroot
from proc import timed_run
from symroot import (
    DEFAULT_TOL,
    PLUS,
    MINUS,
    CountVector,
    EngineOverflowError,
    RleWord,
    Status,
    Word,
    build_rule,
    count_word,
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
    rewrite,
    verify_commutation,
)
from symroot.cli import main as cli_main

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())
KNOWN_MISSES = {parse_polynomial(text).render() for text in cases.KNOWN_ORACLE_MISSES}

# A failed call is charged this much on top of its own time, so it sorts
# after every successful call (none takes a tenth of this) and fixing a
# defect can only lower call_s. Checked in summarize().
FAILED_CALL_CHARGE_S = 60.0
CALL_TIMEOUT_S = 60.0
ROOT_RTOL = Fraction(1, 10**9)
REPLAY_CHUNK = 256        # count vectors held at once while replaying a deep run
LITERAL_LETTERS = 20_000  # literal cross-check stops before words grow past this
# seed-drawn words checked per library case; short, because one letter of
# a deep case rewrites to 10^4 letters
COMMUTATION_WORDS = 20
COMMUTATION_LETTERS = 10


# ---------------------------------------------------------------- outcomes


def polynomial_of(case: cases.Case):
    if case.poly is None:
        return from_coefficients(case.coeffs)
    return parse_polynomial(case.poly)


def report_outcome(report) -> dict:
    """Status, exit code, root and oracle verdict of one estimate_root call;
    the exit code follows the CLI's documented mapping."""
    if report.status is Status.CONVERGED:
        code = 4 if report.oracle_agreement is False else 0
    else:
        code = 2
    return {"status": report.status.value, "exit": code,
            "root": report.final_estimate, "oracle": report.oracle_agreement}


def cli_outcome(case: cases.Case, code: int, out: bytes) -> dict:
    """The same fields read back from what the CLI printed."""
    outcome: dict = {"exit": code}
    text = out.decode("utf-8", errors="replace")
    lines = text.splitlines()
    if case.command == "trace":
        outcome["lines"] = len(lines)
        last = lines[-1] if lines else ""
        outcome["last_counts"] = last.rpartition("n=(")[2].rstrip(")").replace(" ", "").split(",")
    elif case.command == "verify":
        outcome["last_line"] = lines[-1] if lines else ""
    elif "--format" in case.argv:  # json
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return outcome
        final = doc.get("final")
        outcome["status"] = doc.get("status")
        outcome["root"] = None if final is None else Fraction(int(final["num"]), int(final["den"]))
        outcome["oracle"] = None if doc.get("oracle") is None else doc["oracle"]["agrees"]
    else:  # table
        outcome.update(status=None, root=None, oracle=None)
        for line in lines:
            key, _, value = line.partition(": ")
            if key == "status":
                outcome["status"] = value
            elif key == "final":
                num, _, den = value.rpartition(" = ")[2].partition("/")
                outcome["root"] = Fraction(int(num), int(den))
            elif key == "oracle agreement":
                outcome["oracle"] = value.startswith("yes")
    return outcome


def _root_matches(got, want) -> bool:
    if want is None or got is None:
        return got is None and want is None
    want = Fraction(want)
    return abs(Fraction(got) - want) <= ROOT_RTOL * max(1, abs(want))


def mismatches(outcome: dict, expected: dict) -> dict:
    """Outcome fields that differ from the reference, by name."""
    bad = {}
    for key, want in expected.items():
        if key not in outcome:
            bad[key] = "missing"
        elif key == "root":
            if not _root_matches(outcome[key], want):
                bad[key] = outcome[key]
        elif outcome[key] != want:
            bad[key] = outcome[key]
    return bad


def verdict(workload: str, case: cases.Case, outcome: dict, fields=None) -> str:
    """"ok", "known" (a pinned defect) or "new" (a wrong answer not pinned).

    `fields` limits the comparison, for traced runs that see only part of
    a call's outcome."""
    expected = REFERENCE["workloads"][workload][case.id]["expected"]
    if fields is not None:
        expected = {k: v for k, v in expected.items() if k in fields}
    bad = mismatches(outcome, expected)
    if not bad:
        return "ok"
    known = cases.KNOWN_DEFECTS.get((workload, case.id), {}).get("fields", {})
    if fields is not None:
        known = {k: v for k, v in known.items() if k in fields}
    return "known" if bad == known else "new"


# ---------------------------------------------------------------- untraced


def run_cli(argv, clock=time.perf_counter) -> tuple[int, bytes, float]:
    return timed_run([sys.executable, "-m", "symroot.cli", *argv], CALL_TIMEOUT_S, clock=clock)


def call(workload: str, case: cases.Case, poly, clock=time.perf_counter) -> tuple[str, float, str]:
    """One call timed on `clock`: case id, seconds and verdict."""
    if case.kind == "lib":
        start = clock()
        report = estimate_root(poly, max_iters=case.budget)
        seconds = clock() - start
        return case.id, seconds, verdict(workload, case, report_outcome(report))
    code, out, seconds = run_cli(case.argv, clock)
    return case.id, seconds, verdict(workload, case, cli_outcome(case, code, out))


def another_pass_overshoots(elapsed: float, passes: int, seconds: float) -> bool:
    """Stop when one more pass, of the mean length so far, would end further
    past `seconds` than stopping now falls short; whole passes keep every
    case equally weighted, and this keeps a run near `seconds` on average."""
    return passes > 0 and elapsed + elapsed / passes / 2 >= seconds


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def summarize(calls, wall_s: float) -> dict:
    """End-to-end result of an untraced run from (case id, seconds, verdict)
    and the time of all its calls.

    call_s takes each case's mean call time, then the percentile across
    cases. The host's speed drifts in spells longer than a call; the mean
    averages over the spells a run saw, where a case's median jumps between
    them, and in ten-run trials its spread was up to a third lower."""
    solved = [s for _, s, v in calls if v == "ok"]
    if solved and max(solved) >= FAILED_CALL_CHARGE_S:
        raise RuntimeError("a successful call outlasted the failed-call charge")
    by_case: dict[str, list[float]] = {}
    for case_id, s, v in calls:
        by_case.setdefault(case_id, []).append(s if v == "ok" else s + FAILED_CALL_CHARGE_S)
    charged = sorted(statistics.fmean(times) for times in by_case.values())
    return {
        "correct": all(v != "new" for _, _, v in calls),
        "attempted": len(calls),
        "failed": len(calls) - len(solved),
        "metrics": {
            "solved_per_s": (len(solved) / wall_s, "1/s"),
            "call_s.p50": (nearest_rank(charged, 0.5), "s"),
            "call_s.p90": (nearest_rank(charged, 0.9), "s"),
            "solved_share": (len(solved) / len(calls), "share"),
        },
    }


def run_untraced(workload: str, seed: int, seconds: float, calls_out: Path | None = None) -> dict:
    """Closed loop over whole passes, with the workload's speed kernel
    ticking throughout; call times leave the ticks out and are scaled by
    the harmonic mean of the run's kernel times (speed.py)."""
    workload_cases = cases.workload_cases(workload, seed)
    kernel = cases.SPEED_KERNEL[workload]
    polys = {c.id: polynomial_of(c) for c in workload_cases if c.kind == "lib"}
    rng = random.Random(seed)
    timed = []
    kernel_s = speed.sample(kernel)
    passes = 0
    start = time.perf_counter()
    with speed.Ticker(kernel) as ticker:
        while not another_pass_overshoots(time.perf_counter() - start, passes, seconds):
            for case in rng.sample(workload_cases, len(workload_cases)):
                timed.append(call(workload, case, polys.get(case.id), ticker.clock))
            passes += 1
    kernel_s += ticker.samples
    run_kernel_s = statistics.harmonic_mean(kernel_s)
    calls = [(case_id, speed.normalize(raw, kernel, run_kernel_s), v) for case_id, raw, v in timed]
    if calls_out is not None:
        calls_out.parent.mkdir(parents=True, exist_ok=True)
        keys = ("case", "raw_s", "verdict", "seconds")
        calls_out.write_text(json.dumps({
            "kernel": kernel, "run_kernel_s": run_kernel_s, "kernel_s": kernel_s,
            "calls": [dict(zip(keys, (*t, c[1]))) for t, c in zip(timed, calls)]}))
    return summarize(calls, sum(s for _, s, _ in calls))


# ---------------------------------------------------------------- tracing


class Tracer:
    """Spans (name, start_ns, end_ns, parent index, call id) kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.call_id = 0
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.call_id)

    def totals(self, first: int = 0) -> dict[str, float]:
        """Seconds per span name over spans[first:]."""
        out: dict[str, float] = {}
        for name, start, end, _, _ in self.spans[first:]:
            out[name] = out.get(name, 0.0) + (end - start) / 1e9
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "call")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]))


def span_cost_s(samples: int = 5000) -> float:
    """Traced minus untraced time of an empty body, per span."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("calibrate"):
            pass
    traced = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        pass
    return max(0.0, traced - (time.perf_counter() - start)) / samples


class Counts:
    """Exact work counters of one traced pass."""

    def __init__(self) -> None:
        self.iterations = self.final_bits = self.letters = self.output_bytes = 0
        self.oracle_calls = self.oracle_hits = 0
        self.converged_loop_s = self.converged_oracle_s = self.replay_s = 0.0
        self.problems: list[str] = []


def _ratios_key(ests):
    return tuple((r.j, r.numerator, r.denominator) for r in ests)


def replay(tr: Tracer, poly, iterations: int, keep: int):
    """iterate_counts to `iterations` in chunks, ratio_estimates on every
    vector; returns the last ratios, the last vector and v_0..v_keep."""
    matrix = iteration_matrix(poly)
    v = CountVector.unit(poly.degree)
    head = [v]
    ests = ratio_estimates(v, 0)
    done = 0
    while done < iterations:
        n = min(REPLAY_CHUNK, iterations - done)
        with tr.span("counting.step"):
            chunk = iterate_counts(matrix, v, n)
        with tr.span("estimation.ratio"):
            for i, w in enumerate(chunk[1:], start=done + 1):
                ests = ratio_estimates(w, i)
        if len(head) <= keep:
            head.extend(chunk[1:keep + 2 - len(head)])
        done += n
        v = chunk[-1]
    return ests, v, head[:keep + 1]


def oracle_check(tr: Tracer, counts: Counts, poly, entry: dict, converged: bool, loop_s: float) -> None:
    with tr.span("estimation.oracle"):
        root = oracle_largest_real_root(poly, DEFAULT_TOL)
    oracle_s = (tr.spans[-1][2] - tr.spans[-1][1]) / 1e9
    counts.oracle_calls += 1
    if _root_matches(root, entry["largest_real_root"]):
        counts.oracle_hits += 1
    elif poly.render() not in KNOWN_MISSES:
        counts.problems.append(f"oracle misses the largest real root of {poly.render()}")
    if converged:
        counts.converged_loop_s += loop_s
        counts.converged_oracle_s += oracle_s


def loop(tr: Tracer, poly, budget: int):
    """estimate_root without the oracle; the report is dropped at once,
    because a deep history is most of the memory."""
    with tr.span("estimation.loop"):
        report = estimate_root(poly, max_iters=budget, compare_oracle=False)
    loop_s = (tr.spans[-1][2] - tr.spans[-1][1]) / 1e9
    return report_outcome(report), loop_s, report.iterations_used, _ratios_key(report.history[-1])


def replay_check(tr: Tracer, counts: Counts, poly, iterations: int, last, keep: int = 0):
    """Replay the loop's count steps and ratios; they must end where it did."""
    first = len(tr.spans)
    ests, v, head = replay(tr, poly, iterations, keep)
    counts.replay_s += sum(end - start for _, start, end, _, _ in tr.spans[first:]) / 1e9
    if _ratios_key(ests) != last:
        counts.problems.append(f"replay of {poly.render()} ends on other ratios than estimate_root")
    counts.iterations += iterations
    counts.final_bits += max(abs(x).bit_length() for x in v.n)
    return head


def literal_check(tr: Tracer, counts: Counts, rule, poly, head) -> None:
    """Rewrite 1+ literally while words stay small; counts must match the replay."""
    word = default_initial_word()
    for k, expected in enumerate(head):
        if k:
            try:
                with tr.span("rewriting.rewrite"):
                    word = rewrite(rule, word, cap=LITERAL_LETTERS)
            except EngineOverflowError:
                break
            counts.letters += len(word)
        with tr.span("counting.count_word"):
            got = count_word(word, poly.degree)
        if got != expected:
            counts.problems.append(f"literal word {k} of {poly.render()} counts {got.n}")


def sample_words(rng: random.Random, m: int, n: int, longest: int = 50):
    """Random signed words; with the default `longest`, exactly the words
    `symroot verify` draws from the same seed."""
    signs = (PLUS, MINUS)
    for _ in range(n):
        length = rng.randint(0, longest)
        yield Word(tuple(letter(rng.randint(1, m), rng.choice(signs)) for _ in range(length)))


def commutation_check(tr: Tracer, counts: Counts, rule, rng: random.Random, n: int, longest: int = 50) -> None:
    words = list(sample_words(rng, rule.m, n, longest))
    with tr.span("counting.commutation"):
        ok = all(verify_commutation(rule, w) for w in words)
    if not ok:
        counts.problems.append(f"counting does not commute with rewriting for {rule.polynomial.render()}")


def cli_step(tr: Tracer, counts: Counts, argv, library) -> tuple[int, bytes]:
    """The CLI in-process and as a subprocess; `library` replays the library
    calls main makes for these arguments, so main minus it is rendering."""
    sink = io.StringIO()
    with tr.span("cli.main"), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(list(argv))
    with tr.span("cli.library"):
        library()
    with tr.span("cli.subprocess"):
        sub_code, out, _ = run_cli(argv)
    printed = sink.getvalue().encode()
    counts.output_bytes += len(printed)
    if (sub_code, out) != (code, printed):
        counts.problems.append(f"{' '.join(argv)[:60]}: subprocess and in-process main differ")
    return sub_code, out


def trace_lib_case(tr, counts, workload, case, rng) -> str:
    entry = REFERENCE["workloads"][workload][case.id]
    with tr.span("polynomial.parse"):
        poly = polynomial_of(case)
    with tr.span("polynomial.matrix"):
        iteration_matrix(poly)
    with tr.span("rewriting.rule"):
        rule = build_rule(poly)
    outcome, loop_s, iterations, last = loop(tr, poly, case.budget)
    head = replay_check(tr, counts, poly, iterations, last, keep=12)
    oracle_check(tr, counts, poly, entry, outcome["status"] == "Converged", loop_s)
    literal_check(tr, counts, rule, poly, head)
    commutation_check(tr, counts, rule, rng, COMMUTATION_WORDS, COMMUTATION_LETTERS)
    argv = ("run", "--poly", case.poly, "--format", "json", "--no-oracle")
    cli_step(tr, counts, argv,
             lambda: estimate_root(parse_polynomial(case.poly), compare_oracle=False))
    return verdict(workload, case, outcome, fields=("status", "root"))


def trace_cli_case(tr, counts, workload, case, seed) -> str:
    """Spans over the library calls the CLI makes for this case."""
    entry = REFERENCE["workloads"][workload][case.id]
    ran = {}

    def library() -> None:
        with tr.span("polynomial.parse"):
            poly = polynomial_of(case)
        if case.command == "run":
            outcome, loop_s, ran["iterations"], ran["last"] = loop(tr, poly, case.budget)
            if outcome["status"] == "Converged":
                oracle_check(tr, counts, poly, entry, True, loop_s)
            ran["poly"] = poly
            return
        with tr.span("rewriting.rule"):
            rule = build_rule(poly)
        depth = cases.TRACE_DEPTH if case.command == "trace" else cases.VERIFY_DEPTH
        starts = [default_initial_word()]
        if case.command == "verify":
            commutation_check(tr, counts, rule, random.Random(seed), cases.VERIFY_SAMPLES)
            starts.append(RleWord.compress(default_initial_word()))
        for w0 in starts:
            with tr.span("rewriting.rewrite"):
                words = iterate_words(rule, w0, depth)
            counts.letters += sum(w.letter_count for w in words[1:])
            with tr.span("counting.count_word"):
                for w in words:
                    count_word(w, poly.degree)
        if case.command == "verify":
            with tr.span("polynomial.matrix"):
                matrix = iteration_matrix(poly)
            with tr.span("counting.step"):
                iterate_counts(matrix, CountVector.unit(poly.degree), depth)

    code, out = cli_step(tr, counts, case.argv, library)
    if ran:  # the replay splits the loop's time but is not part of main's work
        replay_check(tr, counts, ran["poly"], ran["iterations"], ran["last"])
    return verdict(workload, case, cli_outcome(case, code, out))


def layer_metrics(totals: dict, counts: Counts, spans: int, span_s: float) -> dict:
    t = totals.get
    loop = t("estimation.loop", 0.0)
    check = loop - counts.replay_s
    converged = counts.converged_loop_s + counts.converged_oracle_s
    return {
        "polynomial.parse_s": (t("polynomial.parse", 0.0), "s"),
        "polynomial.matrix_s": (t("polynomial.matrix", 0.0), "s"),
        "rewriting.rule_s": (t("rewriting.rule", 0.0), "s"),
        "rewriting.rewrite_s": (t("rewriting.rewrite", 0.0), "s"),
        "rewriting.letters": (counts.letters, "count"),
        "counting.step_s": (t("counting.step", 0.0), "s"),
        "counting.count_word_s": (t("counting.count_word", 0.0), "s"),
        "counting.commutation_s": (t("counting.commutation", 0.0), "s"),
        "estimation.loop_s": (loop, "s"),
        "estimation.ratio_s": (t("estimation.ratio", 0.0), "s"),
        "estimation.check_s": (check, "s"),
        "estimation.check_share": (check / loop if loop else 0.0, "share"),
        "estimation.oracle_s": (t("estimation.oracle", 0.0), "s"),
        "estimation.oracle_share": (counts.converged_oracle_s / converged if converged else 0.0, "share"),
        "estimation.oracle_hit_share": (counts.oracle_hits / counts.oracle_calls if counts.oracle_calls else 1.0, "share"),
        "estimation.iterations": (counts.iterations, "count"),
        "estimation.final_bits": (counts.final_bits, "count"),
        "cli.render_s": (t("cli.main", 0.0) - t("cli.library", 0.0), "s"),
        "cli.process_s": (t("cli.subprocess", 0.0) - t("cli.main", 0.0), "s"),
        "cli.output_bytes": (counts.output_bytes, "count"),
        "trace.spans": (spans, "count"),
        "trace.overhead_s": (spans * span_s, "s"),
    }


def traced_pass(tr: Tracer, workload: str, seed: int, order) -> tuple[dict, list[str], Counts]:
    """One pass over the cases; per-layer metrics, verdicts and counters."""
    first = len(tr.spans)
    counts = Counts()
    verdicts = []
    for case in order:
        tr.call_id += 1
        with tr.span(f"case.{case.id}"):
            if case.kind == "lib":
                rng = random.Random(f"{seed}:{case.id}")
                verdicts.append(trace_lib_case(tr, counts, workload, case, rng))
            else:
                verdicts.append(trace_cli_case(tr, counts, workload, case, seed))
    metrics = layer_metrics(tr.totals(first), counts, len(tr.spans) - first, span_cost_s())
    return metrics, verdicts, counts


def run_traced(workload: str, seed: int, seconds: float, spans_out: Path | None) -> dict:
    workload_cases = cases.workload_cases(workload, seed)
    rng = random.Random(seed)
    tr = Tracer()
    passes, verdicts, problems = [], [], []
    start = time.perf_counter()
    while not another_pass_overshoots(time.perf_counter() - start, len(passes), seconds):
        metrics, got, counts = traced_pass(tr, workload, seed, rng.sample(workload_cases, len(workload_cases)))
        passes.append(metrics)
        verdicts += got
        problems += counts.problems
    if spans_out is not None:
        tr.write(spans_out)
    for problem in sorted(set(problems)):
        print(f"check failed: {problem}", file=sys.stderr)
    names = passes[0].keys()
    return {
        "correct": not problems and "new" not in verdicts,
        "attempted": len(verdicts),
        "failed": sum(v != "ok" for v in verdicts),
        "metrics": {n: (statistics.median(p[n][0] for p in passes), passes[0][n][1]) for n in names},
    }


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def main(argv) -> int:
    workload, seed, seconds, traced, out = argv
    if not Path(symroot.__file__).resolve().is_relative_to(Path.cwd().resolve() / "src"):
        print(f"error: symroot was imported from {symroot.__file__}, not ./src", file=sys.stderr)
        return 2
    seed, seconds = int(seed), float(seconds)
    if traced == "1":
        result = run_traced(workload, seed, seconds, Path(out))
    else:
        result = run_untraced(workload, seed, seconds, Path(out))
        result["metrics"]["peak_rss_mib"] = (peak_rss_mib(), "MiB")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
