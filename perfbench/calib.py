"""Machine speed, measured around and during every timed call.

The benchmark runs on shared virtual machines whose speed drifts with the
load of other guests: the same call on the same inputs takes a third longer
from one minute to the next, in CPU time as much as in wall time, and the
speed changes within seconds, so medians within a run do not remove it.
Every end-to-end time is therefore reported in reference seconds: the raw
time over the machine's slowdown while the call ran.

The slowdown is measured by four short probes, which stand for the kinds of
work kallele does: Python bytecode (the CLI, the sampler's loops,
root-finding), vectorised NumPy over a cache-resident array (a pool pass),
a streaming read of an array larger than L2 (a pass over a large pool) and
first touches of fresh pages (a pool build).  A sample runs each probe once
and averages their times over the reference machine's.  While ``start``ed,
a SIGALRM interval timer takes a sample every ``INTERVAL`` seconds, in the
middle of whatever the process is doing; a call's slowdown is the median of
the samples taken during it, or of the ``NEAREST`` samples nearest to it
when it is too short to hold that many, and the time spent sampling inside
a call is taken off its raw time.  Samples taken only at the edges of calls
would not do: probes run between calls find warm caches and read faster
than probes that interrupt kallele, so a call's slowdown would depend on
its length.  The probes allocate nothing through Python's or NumPy's
allocators, whose state kallele's own work changes, and nothing in them
depends on kallele, so a change to kallele moves the scaled time as it
moves the raw time.
"""

from __future__ import annotations

import mmap
import signal
import statistics
from time import perf_counter

import numpy as np

PAGE = 4096
INTERVAL = 0.1     # seconds between samples
NEAREST = 5        # fewest samples a call's slowdown is taken from

# Median time of each probe, in seconds, on the reference machine: a 2-vCPU
# Xeon virtual machine (Python 3.11.7, NumPy 2.4.6), sampled during kallele calls.
REFERENCE = {"python": 0.77e-3, "numpy": 0.36e-3, "memory": 1.4e-3, "faults": 1.05e-3}

_SMALL = np.random.default_rng(0).random(100_000)     # 0.8 MB
_OUT = np.empty_like(_SMALL)
_LARGE = np.random.default_rng(1).random(1_000_000)   # 8 MB


def _python() -> None:
    s = 0
    for i in range(10_000):
        s += i * i


def _numpy() -> None:
    np.exp(_SMALL, out=_OUT)
    _OUT.sum()


def _memory() -> None:
    _LARGE.sum()


def _faults() -> None:
    # 1 MB of fresh anonymous pages, one write to each.
    with mmap.mmap(-1, 256 * PAGE) as m:
        np.frombuffer(m, dtype=np.uint8)[::PAGE] = 1


PROBES = {"python": _python, "numpy": _numpy, "memory": _memory, "faults": _faults}


def slowdown() -> float:
    """One sample: how much slower this machine is now than the reference."""
    total = 0.0
    for name, probe in PROBES.items():
        t0 = perf_counter()
        probe()
        total += (perf_counter() - t0) / REFERENCE[name]
    return total / len(PROBES)


_times: list[float] = []      # midpoint of each sample
_values: list[float] = []     # its slowdown
_spent = 0.0                  # seconds spent sampling so far


def _on_alarm(signum, frame) -> None:
    global _spent
    t0 = perf_counter()
    value = slowdown()
    t1 = perf_counter()
    _times.append((t0 + t1) / 2)
    _values.append(value)
    _spent += t1 - t0


def start() -> None:
    """Sample now and then every INTERVAL seconds."""
    _on_alarm(None, None)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)


def stop() -> None:
    """Stop sampling.  The handler stays installed: a tick still pending
    when the timer is disarmed must not meet SIGALRM's default action."""
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


def spent() -> float:
    """Seconds spent sampling so far; a call's raw time is less the growth."""
    return _spent


def slowdown_during(t0: float, t1: float) -> float:
    """Median slowdown sampled in [t0, t1], or over the NEAREST samples to it."""
    inside = [v for t, v in zip(_times, _values) if t0 <= t <= t1]
    if len(inside) < NEAREST:
        mid = (t0 + t1) / 2
        order = sorted(range(len(_times)), key=lambda i: abs(_times[i] - mid))
        inside = [_values[i] for i in order[:NEAREST]]
    return statistics.median(inside)
