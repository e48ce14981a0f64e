import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import symroot
from symroot.cli import main
from symroot.estimation import _any_int_digits


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(out: str) -> dict:
    return json.loads(out)


def assert_report_schema(d: dict) -> None:
    assert set(d) == {"polynomial", "status", "iterations", "final", "oracle", "history"}
    assert set(d["polynomial"]) == {"degree", "a"}
    assert isinstance(d["polynomial"]["degree"], int)
    assert all(isinstance(s, str) for s in d["polynomial"]["a"])
    assert isinstance(d["status"], str)
    assert isinstance(d["iterations"], int)
    if d["final"] is not None:
        assert set(d["final"]) == {"num", "den", "float"}
        assert isinstance(d["final"]["num"], str)
        assert isinstance(d["final"]["den"], str)
        assert isinstance(d["final"]["float"], float)
    if d["oracle"] is not None:
        assert set(d["oracle"]) == {"float", "agrees"}
        # null past the double range, or when the oracle finds no real root
        assert d["oracle"]["float"] is None or isinstance(d["oracle"]["float"], float)
        assert isinstance(d["oracle"]["agrees"], bool)
    assert isinstance(d["history"], list)
    for row in d["history"]:
        assert set(row) == {"iter", "ratios"}
        assert isinstance(row["iter"], int)
        for r in row["ratios"]:
            assert set(r) == {"j", "num", "den"}
            assert isinstance(r["j"], int)
            assert isinstance(r["num"], str)
            assert isinstance(r["den"], str)


def test_run_golden_table(capsys):
    code, out, err = run_cli(capsys, "run", "--poly", "x^2 - x - 1")
    assert code == 0
    assert "status: Converged" in out
    assert "oracle agreement: yes" in out
    assert "1.618033988" in out


def test_run_golden_json_schema(capsys):
    code, out, _ = run_cli(capsys, "run", "--poly", "x^2 - x - 1", "--format", "json")
    assert code == 0
    d = parse_json(out)
    assert_report_schema(d)
    assert d["status"] == "Converged"
    assert d["polynomial"] == {"degree": 2, "a": ["1", "1"]}
    assert d["oracle"]["agrees"] is True
    final = Fraction(int(d["final"]["num"]), int(d["final"]["den"]))
    assert abs(final - Fraction("1.6180339887498949")) <= Fraction(1, 10**12)
    assert d["history"][0]["ratios"] == []
    assert d["history"][-1]["iter"] == d["iterations"]


def test_run_json_schema_on_failure_paths(capsys):
    code, out, _ = run_cli(capsys, "run", "--poly", "x^2 + 2x + 2", "--format", "json")
    assert code == 2
    d = parse_json(out)
    assert_report_schema(d)
    assert d["status"] == "NoRealLimit"
    assert d["final"] is None
    assert d["oracle"] is None


def test_run_flags_a_converged_run_with_no_real_root(capsys):
    # x^2 + 1 settles at 0 under a coarse tol, but has no real root for the
    # estimate to agree with: exit 4, and the output says why
    argv = ("run", "--poly", "x^2 + 1", "--tol", "1e5")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (4, "")
    assert out.splitlines()[-5:] == [
        "status: Converged",
        "iterations: 2",
        "final: 0 = 0/1",
        "oracle largest real root: none",
        "oracle agreement: NO (no real root)",
    ]
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 4
    d = parse_json(out)
    assert_report_schema(d)
    assert d["status"] == "Converged"
    assert d["oracle"] == {"float": None, "agrees": False}
    # without the oracle there is nothing to disagree with
    code, out, _ = run_cli(capsys, *argv, "--no-oracle", "--format", "json")
    assert (code, parse_json(out)["oracle"]) == (0, None)


def test_run_tsv_rows(capsys):
    code, out, _ = run_cli(capsys, "run", "--poly", "x^2 - x - 1", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    # iteration 0 has no defined ratio, so rows start at 1
    first = lines[0].split("\t")
    assert first == ["1", "1", "2", "1", "2"]
    for line in lines:
        iter_s, j_s, num_s, den_s, float_s = line.split("\t")
        assert int(iter_s) >= 1
        assert int(j_s) == 1
        assert float(float_s) == int(num_s) / int(den_s)


# prints the exit code, then the peak resident set size in KiB before and
# after the command. VmHWM is this process image's own peak; ru_maxrss would
# carry over the peak of the forking test process
_PEAK_RSS_CHILD = """
import sys
from symroot.cli import main

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

before = peak_kib()
code = main(sys.argv[1:])
print(code, before, peak_kib(), file=sys.stderr)
"""


def _peak_rss_growth_kib(fmt: str) -> tuple[int, int]:
    # (exit code, peak growth) of a deep run on (x-3)^2 (x+1) in a fresh process
    argv = ["run", "--poly", "x^3 - 5x^2 + 3x + 9", "--iters", "5000", "--no-oracle"]
    argv += ["--format", fmt]
    env = dict(os.environ, PYTHONPATH=str(Path(symroot.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_CHILD, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=120,
    )
    code, before, after = map(int, done.stderr.split())
    return code, after - before


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_run_tsv_memory_does_not_grow_with_the_history():
    # tsv prints each iterate and drops it: here it prints 11 MB, while the
    # history kept whole would raise the peak by about 12 MiB
    code, growth = _peak_rss_growth_kib("tsv")
    assert code == 2
    assert growth < 4 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_run_json_memory_does_not_grow_with_the_history():
    # json writes the history array entry by entry: here it prints 31 MB,
    # while the whole document built as one dict and one string raised the
    # peak by about 110 MiB
    code, growth = _peak_rss_growth_kib("json")
    assert code == 2
    assert growth < 4 * 1024


@pytest.mark.parametrize(
    "text, iters",
    [("x^2 - x - 1", 256), ("x^2 + 2x + 2", 256), ("x - 5", 256), ("x^2 + 3x + 1", 40)],
)
def test_run_json_streams_the_bytes_of_one_dump(capsys, text, iters):
    _, out, _ = run_cli(capsys, "run", "--poly", text, "--iters", str(iters), "--format", "json")
    report = symroot.estimate_root(symroot.parse_polynomial(text), max_iters=iters)
    assert out == json.dumps(report.to_json_dict(), indent=2) + "\n"


def test_run_coeffs_equivalent_to_poly(capsys):
    code1, out1, _ = run_cli(capsys, "run", "--poly", "x^2 - x - 1", "--format", "json")
    code2, out2, _ = run_cli(capsys, "run", "--coeffs", "-1,-1,1", "--format", "json")
    assert (code1, out1) == (code2, out2)
    # a sign and spaces around an entry are allowed
    code3, out3, _ = run_cli(capsys, "run", "--coeffs= -1 , -1 ,+1 ", "--format", "json")
    assert (code1, out1) == (code3, out3)


# SHA-256 over the exit code and stdout of each run of CLI_RUNS, in order:
# the benchmark's corpus in every format, its deep polynomials at 3000
# iterations, cycles that revisit v_0 (x^2 + 2x + 2, x^2 + x + 1) and v_1
# (x^4 + 2x^2 - 3), a DegenerateStart, degree 1 and a tol above every root.
# Computed on commit 859af4d, whose cycle rule still filed first visits
CLI_CORPUS = [
    "x^2 - x - 1", "x^3 - x - 1", "x^3 - 2", "x^2 + 3x + 1", "x^2 + 2x + 2",
    "x^3 - 5x^2 + 3x + 9", "x^12 - x - 1", "x^24 - 3x^23 + x^5 - 7",
]
CLI_DEEP = ["x^2 - 201x + 10100", "x^3 - 200x^2 + 9899x + 10100", "x^3 - 5x^2 + 3x + 9", "x^12 - x - 1"]
CLI_RUNS = (
    [("--poly", text, "--format", fmt) for fmt in ("table", "json", "tsv") for text in CLI_CORPUS]
    + [("--poly", text, "--iters", "3000", "--format", "json") for text in CLI_DEEP]
    + [("--poly", text, "--iters", "60") for text in ("x^2 + 2x + 2", "x^2 + x + 1", "x^4 + 2x^2 - 3")]
    + [("--poly", "x^2 + 2x + 1"), ("--poly", "x"), ("--poly", "x^2 + 1", "--tol", "1e5")]
)
CLI_SHA256 = "578a8837715ad51b4d90eed3b6cabcbc79158cf15af023f97df0796eff2629a5"


def test_run_outputs_pinned(capsys):
    h = hashlib.sha256()
    for argv in CLI_RUNS:
        code, out, _ = run_cli(capsys, "run", *argv)
        h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == CLI_SHA256


def test_run_exit_codes():
    assert main(["run", "--poly", "2x - 1"]) == 3  # not monic
    assert main(["run", "--poly", "x^2 + 2x + 2"]) == 2  # NoRealLimit
    assert main(["run", "--poly", "x^2 + 3x + 1"]) == 4  # converged off the largest root
    assert main(["run", "--poly", "x^2 + 3x + 1", "--no-oracle"]) == 0
    assert main(["run", "--poly", "x^2 + 2x + 1"]) == 2  # DegenerateStart mid-run
    assert main(["run", "--poly", "x^2 - x - 1", "--iters", "8"]) == 2  # budget too small


def test_run_close_pair_agrees_at_a_deep_budget(capsys):
    # (x-100)(x-101)(x+1) settles about 1e-10 below 101: 101 is the nearest
    # real root, so no false alarm
    argv = ("run", "--poly", "x^3 - 200x^2 + 9899x + 10100", "--iters", "20000")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert "oracle agreement: yes" in out
    assert main(["run", "--poly", "x^2 + 3x + 1"]) == 4


def test_run_coarse_tol_above_the_largest_root_exits_0(capsys):
    # x^2 - 4 at tol 100 settles at 5/2; -2 lies within discrepancy + tol of
    # it too, but no root lies above it, so 2 is the nearest
    code, out, _ = run_cli(capsys, "run", "--poly", "x^2 - 4", "--tol", "100")
    assert code == 0
    assert "final: 2.5 = 5/2" in out
    assert "oracle agreement: yes" in out


def test_run_coarse_tol_between_two_roots_exits_0(capsys):
    # (x-1)(x^2+2x-1) at tol 1 settles at 3/4, between the roots 1 and
    # sqrt 2 - 1, which both lie within discrepancy + tol of it; 1 is nearer
    code, out, _ = run_cli(capsys, "run", "--poly", "x^3 + x^2 - 3x + 1", "--tol", "1")
    assert code == 0
    assert "final: 0.75 = 3/4" in out
    assert "oracle agreement: yes" in out
    assert main(["run", "--poly", "x^2 + 3x + 1"]) == 4


def test_run_dominance_failure_message(capsys):
    code, out, _ = run_cli(capsys, "run", "--poly", "x^2 + 3x + 1")
    assert code == 4
    assert "oracle agreement: NO" in out


def test_run_option_errors(capsys):
    assert main(["run", "--poly", "x^2 - x - 1", "--tol", "0"]) == 3
    assert main(["run", "--poly", "x^2 - x - 1", "--tol", "nope"]) == 3
    assert main(["run", "--poly", "x^2 - x - 1", "--iters", "0"]) == 3
    assert main(["run", "--poly", "x^2 - x - 1", "--engine", "laser"]) == 3
    assert main(["run"]) == 3  # no polynomial source
    assert main(["run", "--poly", "x", "--coeffs", "0,1"]) == 3  # two sources
    assert main(["frobnicate"]) == 3
    assert main([]) == 3
    capsys.readouterr()


def test_syntax_error_offset_reaches_stderr(capsys):
    code, _, err = run_cli(capsys, "run", "--poly", "x^2 + @")
    assert code == 3
    assert "offset 6" in err
    for text in ("x^\u00b2 - 1", "x^\u0662 - 1"):  # superscript two, Arabic-Indic two
        code, _, err = run_cli(capsys, "run", "--poly", text)
        assert code == 3
        assert "(at offset 2)" in err


def test_bad_coeffs_rejected(capsys):
    # only a sign and ASCII digits: int() would read the last two as
    # x^2 - 10x - 1 and x^2 - x - 1
    for coeffs in ("1,2,x", "-1,-1_0,1", "-1,-\u0661,1"):
        code, _, err = run_cli(capsys, "run", f"--coeffs={coeffs}")
        assert code == 3, coeffs
        assert err == f"error: --coeffs entries must be integers, got {coeffs!r}\n"


def test_tol_exponent_is_bounded(capsys):
    t0 = time.perf_counter()
    for tol in ("1e-100001", "1E+100001", "1e-1_00001", "1e-0000000000100001"):
        code, _, err = run_cli(capsys, "run", "--poly", "x^2 - x - 1", "--tol", tol)
        assert code == 3, tol
        assert f"argument --tol: exponent above 100000: {tol!r}" in err
    assert time.perf_counter() - t0 < 1.0
    # a tol written out in digits costs time linear in its length
    tol = "0." + "0" * 4000 + "1"
    assert main(["run", "--poly", "x^2 - x - 1", "--tol", tol, "--iters", "1"]) == 2
    assert main(["run", "--poly", "x^2 - x - 1", "--tol", "1e-12"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, option",
    [
        (("run", "--iters", "1_0"), "--iters"),  # int() reads 10
        (("trace", "--depth", "\u0661"), "--depth"),  # Arabic-Indic one
        (("trace", "--word-cap", "1_000"), "--word-cap"),
        (("verify", "--samples", "\uff15"), "--samples"),  # fullwidth five
        (("verify", "--seed", "7_7"), "--seed"),
        (("verify", "--depth", "2.0"), "--depth"),
    ],
)
def test_int_options_read_ascii_digits_only(capsys, argv, option):
    code, out, err = run_cli(capsys, argv[0], "--poly", "x^2 - x - 1", *argv[1:])
    assert (code, out) == (3, "")
    assert err.endswith(f"error: argument {option}: not an integer: {argv[-1]!r}\n")


def test_int_options_take_a_sign_and_spaces(capsys):
    assert main(["run", "--poly", "x^2 - x - 1", "--iters", " +8 "]) == 2
    assert main(["verify", "--poly", "x^2 - x - 1", "--samples", "5", "--seed", "-7"]) == 0
    capsys.readouterr()
    for argv, message in (
        (("run", "--iters", "-0"), "argument --iters: must be at least 1"),
        (("trace", "--depth", " -1"), "argument --depth: must be at least 0"),
    ):
        code, _, err = run_cli(capsys, argv[0], "--poly", "x^2 - x - 1", *argv[1:])
        assert code == 3
        assert err.endswith(f"error: {message}\n")


def test_tol_reads_ascii_only(capsys):
    # Fraction() would read each of these as a number
    for tol in ("\u0661e-5", "1_0e-5", "0.00_1", "1/1_000", "\u20021e-5"):
        code, _, err = run_cli(capsys, "run", "--poly", "x^2 - x - 1", "--tol", tol)
        assert code == 3, tol
        assert err.endswith(f"error: argument --tol: not a number: {tol!r}\n")


def test_tol_passes_the_int_digit_limit(capsys):
    # written-out digits past CPython's 4300-digit int<->str limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    tol = "0." + "0" * 5000 + "1"
    code, out, err = run_cli(capsys, "run", "--poly", "x^2 - x - 1", "--tol", tol, "--iters", "1")
    assert (code, err) == (2, "")
    assert out.splitlines()[-2:] == ["status: MaxIterationsReached", "iterations: 1"]
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_runs_without_the_int_digit_limit_setter(monkeypatch, capsys):
    # Pythons 3.10.0-3.10.6 have no sys.set_int_max_str_digits and no limit:
    # the lift must then do nothing, and a run still exit 0
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    with _any_int_digits():
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    assert main(["run", "--poly", "x^2 - x - 1"]) == 0
    assert main(["run", "--poly", "x^2 - x - 1", "--format", "json"]) == 0
    assert "oracle agreement: yes" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["table", "json", "tsv"])
def test_closed_pipe_exits_quietly(fmt):
    # the output (megabytes) outgrows the pipe, so the child is still writing
    # when the reader closes its end after the first line
    argv = ["run", "--poly", "x^3 - 5x^2 + 3x + 9", "--iters", "5000", "--no-oracle"]
    env = dict(os.environ, PYTHONPATH=str(Path(symroot.__file__).resolve().parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-m", "symroot.cli", *argv, "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=120) == 141
    assert err == b""


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["run", "--help"]) == 0
    capsys.readouterr()


def test_trace_golden(capsys):
    code, out, _ = run_cli(capsys, "trace", "--poly", "x^2 - x - 1", "--depth", "2")
    assert code == 0
    assert out.splitlines() == [
        "1+  n=(1, 0)",
        "1+ 1+ 2+  n=(2, 1)",
        "1+ 1+ 2+ 1+ 1+ 2+ 1+ 2+  n=(5, 3)",
    ]


def test_trace_depth_zero(capsys):
    code, out, _ = run_cli(capsys, "trace", "--poly", "x^3 - 2", "--depth", "0")
    assert code == 0
    assert out.splitlines() == ["1+  n=(1, 0, 0)"]


def test_trace_rle_engine(capsys):
    code, out, _ = run_cli(capsys, "trace", "--poly", "x^2 - x - 1", "--depth", "2", "--engine", "rle")
    assert code == 0
    assert out.splitlines()[1] == "1+^2 2+  n=(2, 1)"


def test_trace_counts_engine_is_invalid():
    assert main(["trace", "--poly", "x^2 - x - 1", "--engine", "counts"]) == 3


def test_trace_overflow_exits_five(capsys):
    code, out, err = run_cli(
        capsys, "trace", "--poly", "x^2 - x - 1", "--depth", "30", "--word-cap", "100"
    )
    assert code == 5
    assert "overflow at depth 5" in err
    # the completed prefix is still printed
    assert len(out.splitlines()) == 5


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--poly", "x^3 - x - 1", "--samples", "100")
    assert code == 0
    assert "commutation: 100/100 exact" in out
    assert out.strip().endswith("PASS")


def test_verify_samples_zero_rejected():
    assert main(["verify", "--poly", "x^3 - x - 1", "--samples", "0"]) == 3


def test_verify_deterministic_output(capsys):
    runs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, "verify", "--poly", "x^3 - x - 1", "--samples", "200", "--seed", "7")
        runs.append((code, out, err))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_verify_seed_changes_words_not_verdict(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--poly", "x^2 - 3x + 1", "--samples", "50", "--seed", "1")
    code2, out2, _ = run_cli(capsys, "verify", "--poly", "x^2 - 3x + 1", "--samples", "50", "--seed", "2")
    assert code1 == code2 == 0
    assert out1 != out2 or "seed: 1" in out1  # seed line differs at minimum


def test_verify_fault_injection_exits_one(capsys, monkeypatch):
    import symroot.counting as counting
    from symroot.polynomial import MonicPolynomial

    step_counts = counting.step_counts

    def tampered(p, v):
        # the count step of p with a_1 off by one
        return step_counts(MonicPolynomial((p.a[0] + 1,) + p.a[1:]), v)

    monkeypatch.setattr(counting, "step_counts", tampered)
    code, out, _ = run_cli(capsys, "verify", "--poly", "x^2 - x - 1", "--samples", "100", "--seed", "7")
    assert code == 1
    assert "FAIL" in out
    assert "counterexample" in out


def test_degree_one_run(capsys):
    code, out, _ = run_cli(capsys, "run", "--poly", "x - 2")
    assert code == 0
    assert "note: degree 1" in out
    assert "final: 2 = 2/1" in out


HUGE = "-1,-1000000000000000000000000000000,1"  # x^2 - 10^30 x - 1


def test_huge_coefficient_trace_depth_zero(capsys):
    # the rule's image of 1+ has 10^30 + 2 letters; it must never be built
    code, out, err = run_cli(capsys, "trace", f"--coeffs={HUGE}", "--depth", "0")
    assert code == 0
    assert out.splitlines() == ["1+  n=(1, 0)"]
    assert "Traceback" not in err


def test_huge_coefficient_hits_the_word_cap(capsys):
    for argv in (
        ("trace", f"--coeffs={HUGE}", "--depth", "1"),
        ("trace", f"--coeffs={HUGE}", "--depth", "1", "--engine", "rle"),
        ("verify", "--poly", "x^2 - 1000000000000000000000000000000x - 1"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 5, argv
        assert "over the cap" in err
        assert "symroot run" in err and "counts engine" not in err
        assert "Traceback" not in err


BIG = 10**20
BIG_PAIR = f"{BIG * (BIG + 1)},{-(2 * BIG + 1)},1"  # (x - 10^20)(x - 10^20 - 1)
HUGE_INPUT = "1" + "0" * 5000  # a coefficient past the digit limit on input


def test_run_prints_integers_past_the_digit_limit(capsys):
    # BIG_PAIR's counts pass CPython's 4300-digit int<->str limit within 256
    # iterations; the x^2 - 10^5000 inputs pass it before the first one
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    for source, iters in (
        ((f"--coeffs={BIG_PAIR}",), 256),
        ((f"--coeffs=-{HUGE_INPUT},0,1", "--iters", "4"), 4),
        (("--poly", f"x^2 - {HUGE_INPUT}", "--iters", "4"), 4),
    ):
        for fmt in ("table", "json", "tsv"):
            code, out, err = run_cli(capsys, "run", *source, "--format", fmt)
            assert (code, err) == (2, ""), (source[0][:12], fmt)
            assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
            if fmt == "table":
                assert out.splitlines()[-2:] == [
                    "status: MaxIterationsReached",
                    f"iterations: {iters}",
                ]
                assert max(len(line) for line in out.splitlines()) > 4300
            if fmt == "json":
                assert parse_json(out)["status"] == "MaxIterationsReached"


def _no_json_constants(name: str):
    raise ValueError(f"{name} is not JSON")


def test_run_json_float_is_null_past_the_double_range(capsys):
    # JSON has no infinity: the float is null and num/den stay exact
    root = "1" + "0" * 400
    code, out, err = run_cli(capsys, "run", "--poly", f"x - {root}", "--format", "json")
    assert (code, err) == (0, "")
    d = json.loads(out, parse_constant=_no_json_constants)
    assert d["final"] == {"num": root, "den": "1", "float": None}
    assert d["oracle"] == {"float": None, "agrees": True}


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.text(alphabet="0123456789x^*+-\u00b2 ", max_size=24).map(lambda t: ("--poly", t)),
        st.tuples(st.lists(st.integers(), max_size=6), st.booleans()).map(
            lambda cm: ("--coeffs=" + ",".join(str(c) for c in cm[0] + [1] * cm[1]),)
        ),
    )
)
def test_run_always_ends_in_a_documented_exit_code(source):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["run", *source, "--iters", "8"])
    assert code in (0, 2, 3, 4)


def _poly_text(coeffs: list[int]) -> str:
    # x^m followed by the nonzero lower terms, e.g. [3, -1, 0, 1] -> "x^3 - x + 3"
    m = len(coeffs)
    text = f"x^{m}"
    for k in range(m - 1, -1, -1):
        c = coeffs[k]
        if c:
            power = "" if k == 0 else "x" if k == 1 else f"x^{k}"
            size = "" if abs(c) == 1 and k else str(abs(c))
            text += f" {'-' if c < 0 else '+'} {size}{power}"
    return text


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=4), st.integers(1, 40))
def test_run_tsv_matches_the_count_reference(coeffs, iters):
    # parse -> run -> render against the rows built from iterate_counts and
    # ratio_estimates to the iteration where the run stopped
    p = symroot.from_coefficients(coeffs + [1])
    used = symroot.estimate_root(p, max_iters=iters, compare_oracle=False).iterations_used
    rows = []
    if p.degree >= 2:
        unit = symroot.CountVector.unit(p.degree)
        for k, v in enumerate(symroot.iterate_counts(p, unit, used)):
            for r in symroot.ratio_estimates(v, iteration=k):
                x = float(Fraction(r.numerator, r.denominator))  # 0/-1 prints 0
                rows.append(f"{k}\t{r.j}\t{r.numerator}\t{r.denominator}\t{x:.17g}")
    argv = ["run", "--poly", _poly_text(coeffs), "--iters", str(iters), "--no-oracle"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--format", "tsv"])
    assert (out.getvalue().splitlines(), err.getvalue()) == (rows, "")
    assert code in (0, 2)
    assert used <= iters
