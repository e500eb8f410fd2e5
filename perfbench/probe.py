"""Host-speed probe: the yardstick that CPU-bound timings are divided by.

A shared two-core host drifts by tens of percent within seconds, so a raw
wall time says as much about the neighbours as about the program.  Each
timed repetition is bracketed by probe readings, and the benchmark reports

    median(wall_i * (1 - steal_i) / mean(probe before i, after i)) * reference

(Chen & Revels, *Robust benchmarking in noisy environments*,
arXiv:1608.04295).  The probe is a pure-Python loop plus element-wise NumPy
ufuncs: no BLAS call, so no thread setting of the program can move it, and
nothing in ``repro`` shares code with it.  The reference time is fixed in
``BENCHMARK.json`` (``--probe-ref-ms``), which turns the ratio back into
seconds on a reference host.

The probe cannot see the time the hypervisor hands the host's CPUs to
other guests in bursts between readings.  :class:`StealMeter` measures that
``steal_i`` share of each repetition from the kernel's counter, and
``wall_i * (1 - steal_i)`` is the CPU time the repetition was actually
given.

A reading (:class:`HostProbe`) runs the probe on both cores at once — in
``run.py`` and in a helper process — and averages the two, because the
program's work moves between the cores (and in ``bulk`` fills both) while
the neighbours rarely load them alike.  The program's own process never
runs a probe, so its memory and threads are the program's alone.

Run as a script, this module is that helper: one reading per input line.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

#: Iterations of the pure-Python part (interpreter dispatch speed).
_LOOP_N = 80_000
#: Elements of the NumPy part (256 KB: it stays in the core's cache, so a
#: neighbour saturating memory bandwidth does not swamp the reading).
_ARRAY_N = 1 << 15
#: Sub-probes per probe reading.  Their median rejects the odd one that
#: was preempted or that met the program's own threads winding down.
REPEATS = 5


def _probe_once() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(_LOOP_N):
        acc += (i * 7) % 13
    values = np.arange(_ARRAY_N, dtype=float)
    for _ in range(6):
        values = np.sqrt(values * 1.0001 + 1.0)
    elapsed = time.perf_counter() - start
    if acc < 0 or not values[-1] > 0.0:    # consume both results
        raise ArithmeticError("probe arithmetic went wrong")
    return elapsed


def probe(repeats: int = REPEATS) -> float:
    """One probe reading in seconds (median of ``repeats`` sub-probes)."""
    return statistics.median(_probe_once() for _ in range(repeats))


class HostProbe:
    """Probe readings taken on both cores at once (caller plus helper)."""

    def __init__(self) -> None:
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)
        self.readings: list[float] = []

    def read(self) -> float:
        self._helper.stdin.write("probe\n")
        self._helper.stdin.flush()
        mine = probe()
        reply = self._helper.stdout.readline()
        if not reply:
            raise EOFError("the probe helper exited")
        reading = 0.5 * (mine + float(reply))
        self.readings.append(reading)
        return reading

    def close(self) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(10.0)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()
        self._helper.stdout.close()

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the host since boot; zeros if unknown."""
    try:
        with open("/proc/stat") as stat:
            ticks = [int(value) for value in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


class StealMeter:
    """Share of CPU time the hypervisor gave to other guests, per lap."""

    def __init__(self) -> None:
        self._mark = _cpu_ticks()

    def lap(self) -> float:
        """Steal share since the previous lap (or construction)."""
        now = _cpu_ticks()
        steal, total = now[0] - self._mark[0], now[1] - self._mark[1]
        self._mark = now
        return steal / total if total > 0 else 0.0


class ScaledTimer:
    """Probe-bracketed samples of one repeated timing.

    ``probe_ref_s`` is the probe time of the reference host; ``read`` takes
    one probe reading (normally :meth:`HostProbe.read`).  Call :meth:`start`
    once, then :meth:`add` after each repetition with its wall time; the
    probe after one repetition is the probe before the next.  Each
    repetition's steal share is recorded too (probe time excluded).
    """

    def __init__(self, probe_ref_s: float, read) -> None:
        self.probe_ref_s = float(probe_ref_s)
        self.read = read
        self.probes: list[float] = []
        self.walls: list[float] = []
        self.steals: list[float] = []
        self._meter = None

    def start(self) -> None:
        self.probes.append(self.read())
        self._meter = StealMeter()

    def add(self, wall_s: float) -> None:
        self.walls.append(float(wall_s))
        self.steals.append(self._meter.lap())
        self.probes.append(self.read())
        self._meter.lap()

    def bracket(self) -> list[float]:
        """Each repetition's probe: the mean of the readings around it."""
        return [0.5 * (before + after)
                for before, after in zip(self.probes, self.probes[1:])]

    def factors(self) -> list[float]:
        """Each repetition's scale factor: ``(1 - steal) * ref / probe``."""
        return [(1.0 - steal) * self.probe_ref_s / probe_s
                for steal, probe_s in zip(self.steals, self.bracket())]

    def scaled(self) -> list[float]:
        """Every repetition's time, rescaled to the reference host."""
        return [wall * factor
                for wall, factor in zip(self.walls, self.factors())]

    def median(self) -> float:
        return statistics.median(self.scaled())


def _serve() -> None:
    """Helper loop: one probe reading per line read from stdin."""
    while sys.stdin.readline():
        print(probe(), flush=True)


if __name__ == "__main__":
    _serve()
