"""Fixed reference work that gauges how fast the host runs at the moment.

The benchmark's host is a few cores of a shared machine. How fast eeesim
runs on it swings by a quarter or more from minute to minute, mostly with
how hard other tenants use the shared last-level cache and memory: the
workloads keep 40-105 MB resident and walk it at random. ``run.py`` times
this probe before every launch of the workload and once after the last,
and divides each run's host times by ``mean(probe) / REF_S``: times are
reported as they would read on a host that runs the probe in ``REF_S``.

The probe runs in a process of its own, started once per run, so that its
memory stays out of the workloads' peak RSS: a child's ``ru_maxrss`` starts
from its parent's peak.

The probe has the workloads' memory character: random lookups in a Python
dict and a numpy gather over a working set of about 90 MB, larger than a
core's L2 and a large share of the shared L3. It touches nothing of
``eeesim``, so a change to the program moves the workload's time and not
the probe's.
"""

from __future__ import annotations

import subprocess
import sys
import time

#: the probe's median on the 2-core shared host the benchmark was set up on.
REF_S = 0.3

_ENTRIES = 1 << 19          # dict entries: about 60 MB with their int objects
_LOOKUPS = 350_000
_ARRAY = 4 << 20            # float64 elements: 32 MB
_GATHER = 1_500_000


class Probe:
    """The probe's data, built once; ``measure`` times one pass over it."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(1)
        keys = rng.integers(0, 1 << 40, _ENTRIES).tolist()
        self.table = dict(zip(keys, range(_ENTRIES)))
        self.order = [keys[i] for i in rng.integers(0, _ENTRIES, _LOOKUPS)]
        self.array = rng.random(_ARRAY)
        self.index = rng.integers(0, _ARRAY, _GATHER)

    def work(self) -> float:
        table = self.table
        total = 0
        for key in self.order:
            total += table[key]
        return total + float(self.array[self.index].sum())

    def measure(self) -> float:
        """Seconds one pass takes now."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start


class ProbeProcess:
    """A ``Probe`` served by a child process: one timed pass per request."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve() -> None:
    """Build the probe, then time one pass per line read, until end of input."""
    probe = Probe()
    for _ in sys.stdin:
        print(repr(probe.measure()), flush=True)


if __name__ == "__main__":
    serve()
