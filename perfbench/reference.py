"""How fast the host runs right now, sampled while the program runs.

On a shared machine the speed of the same code drifts by tens of percent
within seconds, with other tenants' load.  While a pass runs, a SIGALRM
handler times a small fixed pure-Python task every PERIOD_S.  The benchmark
reports host seconds rescaled to the speed at which that task takes
REFERENCE_S:

    rescaled = seconds * REFERENCE_S / median task time during the pass

so host drift cancels while a change to streamsim does not.  The handler
runs in the main thread between bytecodes; its own time is taken out of
every measurement by the program clock `SpeedSampler.now`.

The task has two halves, because streamsim's slowdown lies between theirs.
In four runs each of sessions and long_inputs, the log-log slope of pass
time on the time of a loop that stays in cache was 0.65, and on the time of
a walk over a shuffled pool several MB large it was 1.45.  Over two sets of
ten runs per workload on a shared 2-CPU machine, the spread of the run
medians (interquartile range over median) was 4-11% rescaled, against
7.5-30% for raw seconds.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time

PERIOD_S = 0.05          # one sample per 50 ms of pass, 2-3% of the time
COMPUTE_STEPS = 600      # about 0.5 ms
WALK_STEPS = 300         # about 0.5 ms
POOL_SIZE = 60_000       # (float, int) pairs walked, about 7 MB
# About the median time of one sample on the 2-CPU machine where the first
# baseline was recorded (CPython 3.11).  Only a unit: any constant would do.
REFERENCE_S = 0.001


class _Event:
    def __init__(self, t_s: float, nbytes: int, kind: str):
        self.t_s = t_s
        self.nbytes = nbytes
        self.kind = kind


def _step(ev: _Event, acc: float) -> float:
    return acc + ev.t_s * 0.5 + (ev.nbytes % 7)


def _compute() -> float:
    """Object creation, attribute reads, float arithmetic, calls, list and
    dict traffic: the operations a simulator tick is made of."""
    acc = 0.0
    window: list[_Event] = []
    kinds: dict[str, int] = {}
    for i in range(COMPUTE_STEPS):
        ev = _Event(i * 0.05, i * 3, "data")
        acc = _step(ev, acc)
        window.append(ev)
        kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
        if i % 97 == 0:
            window = []
    return acc


class SpeedSampler:
    """Samples the reference task on a timer; use as a context manager."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0         # seconds spent sampling, only ever grows
        # Tuples of numbers only: the collector stops tracking them, so the
        # pool does not add to the cost of streamsim's garbage collections.
        self._pool = [(i * 0.05, i * 3) for i in range(POOL_SIZE)]
        random.Random(0).shuffle(self._pool)
        gc.collect()
        self._pos = 0
        self._old_handler = None

    def _walk(self) -> float:
        acc = 0.0
        window: list[_Event] = []
        pos = self._pos
        for t_s, nbytes in self._pool[pos:pos + WALK_STEPS]:
            ev = _Event(t_s, nbytes, "data")
            acc = _step(ev, acc)
            window.append(ev)
        self._pos = (pos + WALK_STEPS) % (POOL_SIZE - WALK_STEPS)
        return acc

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        _compute()
        self._walk()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def now(self) -> float:
        """perf_counter() that stands still while a sample runs."""
        while True:
            spent = self.spent
            t = time.perf_counter()
            if spent == self.spent:
                return t - spent

    def reset(self) -> None:
        self.samples = []

    def speed(self) -> float:
        """Factor that rescales seconds measured since the last reset."""
        return REFERENCE_S / statistics.median(self.samples)

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False


def reference_speed(samples: int = 31) -> float:
    """SpeedSampler.speed() over back-to-back samples, taken without a timer."""
    sampler = SpeedSampler()
    for _ in range(samples):
        sampler.sample()
    return sampler.speed()
