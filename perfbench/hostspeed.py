"""Host speed correction for the end-to-end timings.

On a shared host a vCPU changes speed within seconds (by up to 1.7x on the
2-vCPU VM the benchmark was written on), and how much of a run falls in its
fast periods differs from run to run, so raw wall times of the same code
spread by 20-30 % between runs. ``run.py`` therefore pins itself, its
children and a sampler process to one CPU. The sampler times a short fixed
loop of small-``Fraction`` arithmetic every ``PERIOD_S`` seconds; the loop
is short enough to finish within one scheduler slice, so the child it
interrupts does not inflate it. A sample slower than ``PREEMPTED`` times
the run's ``FAST_QUANTILE`` quantile was preempted anyway and is dropped.

An operation that ran from t0 to t1 is scaled by the mean of
``REF_NOMINAL_S / sample`` over the samples taken in that window: the time
it would have taken on a CPU that runs one sample in ``REF_NOMINAL_S``.

    python3 hostspeed.py OUT.json
        The sampler: sample until stdin closes, then write the samples
        ``[[start, seconds], ...]`` (``time.perf_counter`` clock) to OUT.json.
"""

from __future__ import annotations

import bisect
import json
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

PERIOD_S = 0.05
REF_ITERATIONS = 150
FAST_QUANTILE = 0.1
PREEMPTED = 2.5
# Time of one sample on the nominal CPU, about the mean on the VM above.
REF_NOMINAL_S = 0.001


def reference_loop(iterations: int) -> float:
    """Seconds taken by a fixed loop of small-Fraction arithmetic that does
    not touch the program."""
    t0 = time.perf_counter()
    for k in range(1, iterations):
        Fraction(k % 7 - 3, k % 5 + 1) * Fraction(k % 3 + 1, k % 4 + 2) + k
    return time.perf_counter() - t0


class Sampler:
    """The sampler process, on the CPU this process is pinned to."""

    def __init__(self, path: Path):
        self.path = path
        path.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(path)],
            stdin=subprocess.PIPE,
        )

    def stop(self) -> list[tuple[float, float]]:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if not self.path.exists():
            return []
        return [tuple(s) for s in json.loads(self.path.read_text())]


class HostSpeed:
    def __init__(self, samples: list[tuple[float, float]]):
        if not samples:
            raise ValueError("no host speed samples")
        ordered = sorted(d for _, d in samples)
        fast = ordered[int(len(ordered) * FAST_QUANTILE)]
        kept = sorted(s for s in samples if s[1] <= PREEMPTED * fast)
        self.times = [t for t, _ in kept]
        self.durations = [d for _, d in kept]
        self.dropped = len(samples) - len(kept)
        self.mean_s = statistics.fmean(self.durations)

    def factor(self, t0: float, t1: float) -> float:
        """Mean of REF_NOMINAL_S / sample over the samples that started in
        [t0, t1]; the nearest sample if none did."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        inside = self.durations[lo:hi]
        if not inside:
            mid = (t0 + t1) / 2
            near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
                       key=lambda i: abs(self.times[i] - mid))
            inside = [self.durations[near]]
        return statistics.fmean(REF_NOMINAL_S / d for d in inside)

    def scale(self, windows: list[tuple[float, float]]) -> float:
        """Time-weighted factor over the windows of one operation."""
        total = sum(t1 - t0 for t0, t1 in windows)
        if total <= 0:
            return 1.0
        return sum((t1 - t0) * self.factor(t0, t1) for t0, t1 in windows) / total


def main(argv: list[str]) -> int:
    samples = []
    while True:
        t0 = time.perf_counter()
        samples.append((t0, reference_loop(REF_ITERATIONS)))
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break  # stdin closed
    Path(argv[0]).write_text(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
