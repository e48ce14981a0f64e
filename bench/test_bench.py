"""Self-tests of the benchmark. Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

import cases
import harness
import speed

BENCHMARK = json.loads((Path(__file__).parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def two_corpus_passes():
    tracer = harness.Tracer()
    return [harness.traced_pass(tracer, "corpus", seed, cases.CORPUS) for seed in (1, 2)]


@pytest.mark.parametrize("text,budget", [
    ("x^2 - x - 1", 256),
    ("x^12 - x - 1", 256),
    ("x^3 - 5x^2 + 3x + 9", 300),
    ("x^2 - 201x + 10100", 2400),
])
def test_replay_reproduces_last_ratios(text, budget):
    tracer, counts = harness.Tracer(), harness.Counts()
    poly = harness.parse_polynomial(text)
    _, _, iterations, last = harness.loop(tracer, poly, budget)
    ests, _, _ = harness.replay(tracer, poly, iterations, keep=0)
    assert harness._ratios_key(ests) == last
    harness.replay_check(tracer, counts, poly, iterations, last)
    assert counts.problems == []


def test_exact_counts_repeat_and_checks_pass(two_corpus_passes):
    (first, verdicts1, counts1), (second, verdicts2, counts2) = two_corpus_passes
    for name in ("estimation.iterations", "estimation.final_bits", "rewriting.letters", "cli.output_bytes"):
        assert first[name] == second[name]
    assert counts1.problems == counts2.problems == []
    assert "new" not in verdicts1 + verdicts2


def test_check_time_is_never_negative(two_corpus_passes):
    for metrics, _, _ in two_corpus_passes:
        assert metrics["estimation.check_s"][0] > -1e-3


def test_metric_names_are_plain_and_match_benchmark_json(two_corpus_passes):
    per_layer = set(two_corpus_passes[0][0])
    end_to_end = set(harness.summarize([("a", 0.1, "ok")], 1.0)["metrics"]) | {"peak_rss_mib", "setup_s"}
    assert per_layer == {m["name"] for m in BENCHMARK["per_layer"]}
    assert end_to_end == {m["name"] for m in BENCHMARK["end_to_end"]}
    for name in per_layer | end_to_end | {w["name"] for w in BENCHMARK["workloads"]}:
        assert NAME.fullmatch(name), name


def test_seed_changes_order_not_failed_share():
    one = harness.run_untraced("corpus", seed=1, seconds=0)
    two = harness.run_untraced("corpus", seed=2, seconds=0)
    assert (one["failed"], one["attempted"]) == (two["failed"], two["attempted"])
    assert one["failed"] == 1  # deg12's false NoRealLimit, and nothing else


def test_failed_call_sorts_after_every_success():
    calls = [("a", 0.5, "ok"), ("a", 0.9, "ok"), ("a", 0.7, "ok"), ("b", 0.01, "known"), ("c", 0.2, "ok")]
    result = harness.summarize(calls, wall_s=1.0)
    assert result["metrics"]["call_s.p50"][0] == pytest.approx(0.7)
    assert result["metrics"]["call_s.p90"][0] > harness.FAILED_CALL_CHARGE_S
    assert result["correct"] and result["failed"] == 1
    assert not harness.summarize([("a", 0.1, "new")], wall_s=1.0)["correct"]


def test_known_defects_name_real_cases():
    for workload, case_id in cases.KNOWN_DEFECTS:
        expected = harness.REFERENCE["workloads"][workload][case_id]["expected"]
        assert set(cases.KNOWN_DEFECTS[workload, case_id]["fields"]) <= set(expected)


def test_reference_is_reproducible():
    pytest.importorskip("mpmath")
    pytest.importorskip("sympy")
    import make_reference

    assert make_reference.reference() == harness.REFERENCE


def test_ticker_clock_leaves_out_the_ticks():
    with speed.Ticker("fraction") as ticker:
        wall, clock = time.perf_counter(), ticker.clock()
        while time.perf_counter() - wall < 1.0:
            pass
        wall, clock = time.perf_counter() - wall, ticker.clock() - clock
    assert len(ticker.samples) >= 2
    assert clock == pytest.approx(wall - ticker.paused, abs=1e-3)


def test_speed_kernels_do_fixed_work():
    assert speed.fraction_kernel() == speed.fraction_kernel()
    assert speed.bigint_kernel() == speed.bigint_kernel()
    assert speed.normalize(2.0, "bigint", speed.REFERENCE_S["bigint"]) == 2.0
