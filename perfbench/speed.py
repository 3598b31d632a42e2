"""A speed probe: how fast one CPU runs Python right now.

On a shared host the same work takes from 1x to 2x as long, from one
second to the next, as other tenants load the machine. The probe shares
one CPU with the process being measured and runs a fixed mix of Python
work there (dict and list lookups over a large working set, small
objects, a sort, a small numpy call), stamping each pass with the time
and its own CPU time. Over the interval a stage ran, the probe's passes
per CPU-second say how fast that CPU was running; the stage's CPU time
scaled by that speed, over a fixed reference speed, is its time on a CPU
of the reference speed. Both processes take turns on the CPU every few
milliseconds, so they see the same slow and fast spells.

Run as the probe itself::

    python3 perfbench/speed.py <stamps file>

It prints one line when its working set is built, loops until SIGTERM,
then writes its stamps as doubles: (perf_counter, thread_time) per pass.
"""

from __future__ import annotations

import bisect
import os
import signal
import subprocess
import sys
import time
from array import array

# Passes per CPU-second at the reference speed: the median the probe ran at
# on a shared 2-core Xeon VM (Python 3.11, numpy 2.4) while the pipeline
# stages ran; it ranged from 540 to 1,140 there.
REFERENCE_RATE = 840.0
WORKING_SET = 1_000_000
PASS_LOOKUPS = 600


def pin(pid: int, cpu: int) -> None:
    os.sched_setaffinity(pid, {cpu})


class Probe:
    """The probe process, pinned to ``cpu``; ``rate`` reads it after ``stop``."""

    def __init__(self, cpu: int, stamps_path: str) -> None:
        self.path = stamps_path
        self.wall: array = array("d")
        self.cpu_time: array = array("d")
        self.ok: bool | None = None  # set by stop()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), stamps_path],
            stdout=subprocess.PIPE,
            preexec_fn=lambda: pin(0, cpu),
        )
        self.proc.stdout.readline()  # wait until it is running its passes

    def stop(self) -> bool:
        """Stop the probe and load its stamps; False when it had died."""
        if self.ok is None:
            alive = self.proc.poll() is None
            if alive:
                self.proc.terminate()
            self.proc.wait()
            self.proc.stdout.close()
            self.ok = alive and self.proc.returncode == 0
            if self.ok:
                stamps = array("d")
                with open(self.path, "rb") as fh:
                    stamps.frombytes(fh.read())
                self.wall, self.cpu_time = stamps[0::2], stamps[1::2]
        return self.ok

    def rate(self, t0: float, t1: float) -> float | None:
        """Probe passes per probe CPU-second between perf_counter times t0 and t1."""
        i0 = bisect.bisect_left(self.wall, t0)
        i1 = bisect.bisect_right(self.wall, t1) - 1
        if i1 - i0 < 2:
            return None
        return (i1 - i0) / (self.cpu_time[i1] - self.cpu_time[i0])

    def scaled(self, cpu_s: float, t0: float, t1: float) -> float | None:
        """``cpu_s`` spent between t0 and t1, in seconds at the reference speed."""
        rate = self.rate(t0, t1)
        return None if rate is None else cpu_s * rate / REFERENCE_RATE


class _Record:
    __slots__ = ("key", "value", "text")

    def __init__(self, key: int, value: int, text: str) -> None:
        self.key, self.value, self.text = key, value, text


def _loop(path: str) -> int:
    import numpy as np  # only the probe process loads it

    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    stamps = array("d")
    clock, cpu_clock = time.perf_counter, time.thread_time
    # A working set of tens of MB, read at scattered places, so that the
    # probe feels contention for the caches as the stages do, and not only
    # for the core.
    big = [3 * i for i in range(WORKING_SET)]
    table = {i: str(i) for i in range(0, 4 * WORKING_SET, 16)}
    floats = np.arange(20_000, dtype=np.float64)
    print("ready", flush=True)
    j = 0
    while not stop:
        counts: dict[int, int] = {}
        total = 0
        for i in range(PASS_LOOKUPS):
            k = (i * 7919 + j * 104729) % WORKING_SET
            v = big[k]
            total += len(table.get((v // 3) & ~15, ""))
            counts[k % 997] = counts.get(k % 997, 0) + v
        records = [_Record(k, v, str(v)) for k, v in sorted(counts.items(), key=lambda kv: kv[1])]
        total += sum(r.value for r in records) + int(np.sort(floats[j % 7::3])[100])
        j += 1
        stamps.append(clock())
        stamps.append(cpu_clock())
    with open(path, "wb") as fh:
        stamps.tofile(fh)
    return 0


if __name__ == "__main__":
    sys.exit(_loop(sys.argv[1]))
