"""Host-speed probe: rescales measured seconds to a fixed reference speed.

The benchmark's host is a shared VM whose vCPUs run up to about 1.9x slower
in phases lasting from seconds to tens of minutes, with no steal time
recorded and CPU time equal to wall time.  Raw seconds then measure the
neighbours as much as the program: ten-run sets of the same code spread by
a quarter to a third of their median.  So every timing is taken together
with the host's speed at that moment:

- During a command, a SIGALRM handler runs ``probe()`` every ``INTERVAL_S``
  of wall time.  The probe is fixed numpy and interpreter work on a
  512-point array (small real FFTs and reductions, like the 1D workloads),
  about 0.5 ms, so it costs about 1% of the command.
- The command's seconds, less the time spent in the probes, are multiplied
  by the mean of ``REF_S / probe seconds`` over its samples.  The result is
  the command's time at the speed at which one probe takes ``REF_S``.
- Set-up is sampled the same way, from just after numpy loads (the probe
  needs it) to the end of the warm-up.  A command too short to sample is
  scaled by ``calibrate()``: probes run back to back just after it.

A change in the program moves the command's seconds and not the probe's, so
it moves the scaled time by the same factor.  The raw seconds and the speed
factor are kept in the report next to every scaled value.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# seconds of one probe() on a quiet moment of a 2-vCPU Xeon VM at 2.0 GHz
# (2 x 2 MiB L2, 105 MiB L3), numpy 2.4, one BLAS thread
REF_S = 5.0e-4
INTERVAL_S = 0.05
_X = np.linspace(0.0, 1.0, 512)


def probe() -> float:
    """Run the fixed probe work once; its wall seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(25):
        acc += float(np.abs(np.fft.rfft(_X)).sum()) + float((_X * _X).sum())
    return time.perf_counter() - t0


probe()  # the first call plans the FFT; keep that out of every sample


def calibrate(seconds: float = 0.2) -> float:
    """Speed factor from probes run back to back for ``seconds``."""
    samples = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(samples) < 3:
        samples.append(probe())
    return statistics.fmean(REF_S / s for s in samples)


class Sampler:
    """Probes the host every ``INTERVAL_S`` while a command runs.

    Use as a context manager around one command; afterwards ``scale(wall,
    cpu)`` gives the scaled wall and CPU seconds.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.probe_wall = 0.0
        self.probe_cpu = 0.0

    def _on_alarm(self, signum, frame):
        c0 = time.process_time()
        t = probe()
        self.probe_cpu += time.process_time() - c0
        self.probe_wall += t
        self.samples.append(t)

    def __enter__(self):
        self.samples.clear()
        self.probe_wall = self.probe_cpu = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self) -> float:
        """Mean of REF_S / probe seconds; calibrates if nothing was sampled."""
        if len(self.samples) < 3:
            return calibrate()
        return statistics.fmean(REF_S / s for s in self.samples)

    def scale(self, wall: float, cpu: float) -> tuple[float, float, float]:
        """(scaled wall, scaled cpu, factor) for a command of raw ``wall``
        and ``cpu`` seconds that ran under this sampler."""
        f = self.factor()
        return (wall - self.probe_wall) * f, (cpu - self.probe_cpu) * f, f
