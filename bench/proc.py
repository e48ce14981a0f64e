"""Timing a child process from start to exit."""

from __future__ import annotations

import subprocess
import threading
import time


def timed_run(cmd, timeout: float, env: dict | None = None,
              clock=time.perf_counter) -> tuple[int, bytes, float]:
    """Run `cmd` to its end; return exit code, standard output and the
    seconds it took on `clock`.

    Popen.wait with a timeout polls with sleeps of up to 50 ms, which would
    round measured times up to the next poll. This waits in a blocking call
    instead, and a timer thread kills a child that overruns `timeout`.
    Standard error is discarded.
    """
    killed = []
    start = clock()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env) as proc:
        timer = threading.Timer(timeout, lambda: (killed.append(True), proc.kill()))
        timer.start()
        try:
            out = proc.communicate()[0]
        finally:
            timer.cancel()
    seconds = clock() - start
    timer.join()
    if killed:
        raise subprocess.TimeoutExpired(cmd, timeout)
    return proc.returncode, out, seconds
