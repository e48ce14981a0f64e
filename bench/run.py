"""symroot benchmark: run one workload and print its metrics as JSON.

Run from the repository root:

    python3 bench/run.py --workload corpus|deep|cli --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run; per-call times or spans go to bench/out/. The workload
runs in a fresh child interpreter (harness.py) that imports symroot from the
checkout's src/; this process only measures set-up time, starts the child
and reports. The last line of output is one JSON object; any failure exits
non-zero without printing one. See bench/README.md for what is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from cases import WORKLOADS
from proc import timed_run
from speed import REFERENCE_START_S

BENCH = Path(__file__).resolve().parent
SETUP_RUNS = 8  # before the workload, and as many after it
RUN_LIMIT_S = 165.0  # a run must end within 180 s; keep the rest for set-up and output


def setup_times(env: dict) -> tuple[list[float], list[float]]:
    """Times for a fresh interpreter to run `import symroot.cli`, each next
    to the time of a bare interpreter start that gauges the host's speed."""
    imports, bare = [], []
    for _ in range(SETUP_RUNS):
        for cmd, times in ((["-c", "pass"], bare), (["-c", "import symroot.cli"], imports)):
            code, _, seconds = timed_run([sys.executable, *cmd], 60, env)
            if code != 0:
                raise RuntimeError(f"python {' '.join(cmd)} exited with {code}")
            times.append(seconds)
    return imports, bare


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    src = Path.cwd() / "src"
    if not (src / "symroot" / "cli.py").is_file():
        print(f"error: no symroot sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()

    setup = setup_times(env) if args.trace == "0" else None
    kind = "spans" if args.trace == "1" else "calls"
    out = BENCH / "out" / f"{kind}-{args.workload}-seed{args.seed}.json"
    worker = [sys.executable, str(BENCH / "harness.py"),
              args.workload, str(args.seed), str(args.seconds), args.trace, str(out)]
    # a session of its own, so that a timeout also stops the CLI processes
    # the worker started
    with subprocess.Popen(worker, env=env, stdout=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_LIMIT_S - (time.perf_counter() - start))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print("error: the workload did not finish in time", file=sys.stderr)
            return 1
    if proc.returncode != 0:
        print(f"error: the workload exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(stdout.strip().splitlines()[-1])
    if setup:
        # half the samples after the workload, so one slow spell of a shared
        # host does not decide the median
        more_imports, more_bare = setup_times(env)
        imports, bare = setup[0] + more_imports, setup[1] + more_bare
        # normalized to the host's usual speed, as the calls are (speed.py)
        setup_s = statistics.median(imports) * REFERENCE_START_S / statistics.median(bare)
        result["metrics"]["setup_s"] = (setup_s, "s")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
