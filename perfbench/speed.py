"""Host speed over time, to turn CPU time into reference seconds.

On a shared host a vCPU's speed changes by up to ~65% for seconds at
a time (another tenant on the same physical core, invisible to the
guest), and the CPU time of the same work moves with it. A probe
process pinned to the measured CPU runs a fixed piece of interpreter
work every :data:`PERIOD_S` and records its own CPU time. Over a
window, the probe's trimmed mean time over :data:`REF_PROBE_S` is how
much slower the CPU ran than the reference; seconds of work in that
window divided by it are *reference seconds*: the time the work
would have taken on a CPU on which the probe takes
:data:`REF_PROBE_S`.

Run as a process: ``python perfbench/speed.py CPU OUT`` pins itself
to ``CPU`` and appends ``<monotonic time> <probe ns>`` lines to
``OUT`` until it is terminated.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

from procs import BenchError

#: Seconds between probes (the probe itself takes ~0.25 ms).
PERIOD_S = 0.02
#: CPU seconds one probe takes on the reference CPU: the unloaded
#: 2.1 GHz Xeon vCPU the benchmark was written on.
REF_PROBE_S = 240e-6
#: Share of probe times dropped at each end before the mean.
TRIM = 0.1
#: Windows shorter than this are widened around their middle, so
#: every window has enough probes behind it.
MIN_WINDOW_S = 0.5
MIN_PROBES = 10

_rng = random.Random(11)
_WORDS = ["".join(_rng.choice("abcdefghijklmnop")
                  for _ in range(_rng.randint(3, 9))) for _ in range(500)]
_LINES = [" ".join(_rng.choice(_WORDS) for _ in range(10))
          for _ in range(40)]


def probe() -> int:
    """Fixed interpreter work: split, count, compare and sort words,
    as the program does with text. Never change it: it defines the
    reference second."""
    counts: dict[str, int] = {}
    pairs = []
    for line in _LINES:
        words = line.lower().split()
        for i, word in enumerate(words):
            counts[word] = counts.get(word, 0) + 1
            if i and word < words[i - 1]:
                pairs.append((words[i - 1], word))
    pairs.sort()
    return len(counts) + len(pairs)


def trimmed_mean(values: list[float], trim: float = TRIM) -> float:
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    kept = ordered[cut:len(ordered) - cut] or ordered
    return sum(kept) / len(kept)


def read_samples(path: Path) -> list[tuple[float, float]]:
    """``(monotonic time, probe seconds)`` of every complete line."""
    samples = []
    with open(path) as handle:
        for line in handle:
            if line.endswith("\n"):
                at, ns = line.split()
                samples.append((float(at), int(ns) / 1e9))
    return samples


def slowdown(samples, start: float, end: float) -> float:
    """Mean probe time in ``[start, end]`` over :data:`REF_PROBE_S`."""
    if end - start < MIN_WINDOW_S:
        middle = (start + end) / 2
        start, end = middle - MIN_WINDOW_S / 2, middle + MIN_WINDOW_S / 2
    inside = [seconds for at, seconds in samples if start <= at <= end]
    if len(inside) < MIN_PROBES:
        raise ValueError(
            f"{len(inside)} speed probes in a {end - start:.2f} s window, "
            f"need {MIN_PROBES}"
        )
    return trimmed_mean(inside) / REF_PROBE_S


class SpeedProbe:
    """The probe process on one CPU, and the slowdown of any window
    it ran through."""

    def __init__(self, cpu: int, out: Path) -> None:
        self.out = out
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(cpu),
             str(out)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30.0
        while not (out.exists() and out.stat().st_size):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("the speed probe did not start")
            time.sleep(0.01)

    def ref_seconds(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of work done in ``[start, end]`` (monotonic
        times), in reference seconds. Waits until the probe has
        passed ``end``."""
        while time.monotonic() < end + PERIOD_S * 3:
            time.sleep(PERIOD_S)
        return seconds / slowdown(read_samples(self.out), start, end)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()


def main() -> int:
    cpu, out = int(sys.argv[1]), sys.argv[2]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    os.sched_setaffinity(0, {cpu})
    with open(out, "w", buffering=1) as handle:
        while True:
            started = time.thread_time_ns()
            probe()
            spent = time.thread_time_ns() - started
            handle.write(f"{time.monotonic():.6f} {spent}\n")
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    sys.exit(main())
