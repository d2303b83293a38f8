"""Frozen reference loop that measures how fast the machine is right now.

The sandbox shares its CPUs with other tenants: over minutes the same
code runs up to twice as slow or fast.  Timing this loop next to, and
during, every measured sample and scaling the sample by
``NOMINAL_TURN_S / loop time per turn`` reports each time at one
reference machine speed, so runs made minutes apart can be compared.
The loop imitates a simulator turn (small NumPy draws, argmax,
tuple/list/dict churn) but never touches the package, so no change to
the package can move it.  Do not edit it: that rescales every reported
time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Typical loop time per turn on the 2-vCPU Xeon sandbox (Python 3.11.7,
# NumPy 2.4.6); it only sets the scale of every reported time.
NOMINAL_TURN_S = 1.5e-4
TURNS = 40  # one pass takes about 6 ms
INTERVAL_S = 0.25  # period of the passes taken during a block


def per_turn() -> float:
    """Wall time per turn of one pass of the reference loop."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    a, b = np.ones(10), np.ones(10)
    history = []
    for _ in range(TURNS):
        choices = [int(np.argmax(rng.beta(a + p, b))) for p in range(5)]
        rewards = (rng.random(10) < 0.5).astype(np.int64)
        inbox = [[(c, int(rewards[c]), i)] for i, c in enumerate(choices)]
        for i in range(5):
            for j in range(i + 1, 5):
                inbox[i].append((choices[j], 0, j))
                inbox[j].append((choices[i], 0, i))
        for box in inbox:
            for arm, reward, _ in box:
                a[arm] += reward
        history.append((tuple(choices), rewards, {c: i for i, c in enumerate(choices)}))
    return (time.perf_counter() - t0) / TURNS


class Speed:
    """Reference loop passes before, after and every INTERVAL_S during a block.

    The passes during the block run from a SIGALRM handler, so they follow
    speed changes inside a long call; ``spent`` is their total time, to
    be taken off the time of work done in this process.
    """

    def __init__(self):
        self.loops: list[float] = []
        self.spent = 0.0

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        self.loops.append(per_turn())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Speed":
        self.loops.append(per_turn())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.loops.append(per_turn())

    def scale(self) -> float:
        """Factor that takes a time measured in the block to reference speed."""
        return NOMINAL_TURN_S / statistics.mean(self.loops)
