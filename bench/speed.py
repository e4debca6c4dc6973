#!/usr/bin/env python3
"""Speed probe: how fast the CPU that runs the benchmark is, moment by moment.

A shared CPU can run the same code at very different speeds from one second
to the next (another tenant on its sibling hardware thread, for example),
and the slow periods differ from run to run.  The benchmark pins itself, and
so every process it starts, to one CPU and runs this probe beside them on
that same CPU: every ``PERIOD_S`` the probe wakes, times a fixed loop of
Python arithmetic and sleeps again, taking about 2 % of the CPU.  Its samples
say how fast the CPU was while an operation ran, and
``SpeedProbe.scale(start, end)`` turns them into the factor that converts
seconds measured between ``start`` and ``end`` into reference seconds:
seconds on a CPU that runs the probe loop in ``REFERENCE_S``.

Run as a program, this is the probe process itself: it samples until its
standard input closes, then prints its samples as one JSON line.
"""
from __future__ import annotations

import bisect
import json
import os
import select
import statistics
import subprocess
import sys
import time

PERIOD_S = 0.02
LOOP_ITERATIONS = 5000
#: Probe loop time that defines one reference second.
REFERENCE_S = 4.0e-4
#: Fewest samples one factor is taken from.
MIN_SAMPLES = 7


def probe_loop() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return total


def sample_until_eof(stream_in, stream_out) -> None:
    """Sample every PERIOD_S until ``stream_in`` closes; print the samples."""
    samples = []
    while True:
        start = time.perf_counter()
        probe_loop()
        samples.append((start, time.perf_counter() - start))
        if len(samples) == 1:
            stream_out.write("ready\n")
            stream_out.flush()
        readable, _, _ = select.select([stream_in], [], [], PERIOD_S)
        if readable and not os.read(stream_in.fileno(), 4096):
            break
    stream_out.write(json.dumps(samples) + "\n")
    stream_out.flush()


class SpeedProbe:
    """Context manager around a probe process on the caller's CPUs.

    ``perf_counter`` reads the same monotonic clock in every process, so the
    probe's sample times compare directly with the caller's.
    """

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self._proc.stdout.readline() != "ready\n":
            self._stop()
            raise RuntimeError("speed probe did not start")
        return self

    def __exit__(self, *exc):
        self._stop()
        return False

    def _stop(self) -> None:
        try:
            self._proc.stdin.close()
            out = self._proc.stdout.read()
            self._proc.wait(timeout=30)
        except BaseException:
            self._proc.kill()
            self._proc.wait()
            raise
        finally:
            self._proc.stdout.close()
        samples = json.loads(out) if out.strip() else []
        self.times = [start for start, _ in samples]
        self.loop_s = [seconds for _, seconds in samples]

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per second measured between start and end: from
        the median of the samples in that window, widened around its middle
        to at least MIN_SAMPLES."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return REFERENCE_S / statistics.median(self.loop_s[lo:hi])


if __name__ == "__main__":
    sample_until_eof(sys.stdin, sys.stdout)
