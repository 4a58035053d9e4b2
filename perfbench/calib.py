"""Machine-speed sampling, so that timings survive a noisy shared host.

The benchmark host is a shared virtual machine whose CPU speed swings by up
to 2x within a fraction of a second, and process CPU time swings with it:
the same loop took 0.45 s or 0.89 s within one minute, and plain medians of
30-second runs moved by +-25%.  So while a run measures, a SIGALRM timer
interrupts the benchmark process every PERIOD_S and runs a short fixed
reference loop (`_reference`), recording how long it took.  The loop uses
numpy and the interpreter the way the package does (small-array
Gauss-Jordan with table lookups) but imports nothing from it.  It does
share the process's cache and heap state with the package; a smoke test in
test_perfbench.py checks that a fixed slowdown in the package still shows
in full, and each run prints its divisors.

A timed block (one operation kind in one round) is then reported as

    scaled = (wall - reference time spent inside the block)
             * NOMINAL_MS / mean(reference samples taken during the block)

Blocks too short to contain a sample use the last FALLBACK samples before
them.

CLI children run mostly interpreter start-up and imports, and the
in-process loop does not run in them, so each one is paired with a
reference child instead: `python -c "import numpy"` runs before and after
each measured child, and

    scaled = wall * CHILD_NOMINAL_S / mean(reference child before, after)

The set-up children time themselves: each one times its own `import numpy`
first, then `import ver4forms` plus make_field, and

    scaled = measured * NUMPY_IMPORT_NOMINAL_S / (the child's numpy import)

A reference in the same process, just before the measured part, tracks the
host better than a separate child, and numpy loads before the package does,
so no change to the package can move it.

The wall-clock figures are printed next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.05
FALLBACK = 5
# Duration of one `_reference()` call on the machine the baseline was
# recorded on, unloaded (2-vCPU Xeon at 2.0 GHz, Python 3.11, numpy 2.4).
# Any constant works: it only sets the scale of the reported times.
NOMINAL_MS = 0.75

_rng = np.random.default_rng(12345)
_TABLE = _rng.integers(0, 256, size=512)  # small: cache-resident, like the package's hot tables
_MATS = [_rng.integers(0, 256, size=(12, 12)) for _ in range(4)]


def _reference() -> int:
    acc = 0
    for M in _MATS:
        R = M.copy()
        for c in range(R.shape[1]):
            nz = np.nonzero(R[c:, c])[0]
            if nz.size == 0:
                continue
            p = c + int(nz[0])
            R[[c, p]] = R[[p, c]]
            mask = R[:, c] != 0
            mask[c] = False
            R[mask] ^= _TABLE[R[mask, c][:, None] + R[c][None, :]]
        acc += int(R.sum())
    return acc


class SpeedSampler:
    """Reference-loop timings taken on a timer while the run measures."""

    def __init__(self):
        self.durations: list[float] = []
        self._running = False
        _reference()  # warm numpy's first-call paths outside any block

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        _reference()
        self.durations.append(time.perf_counter() - t0)

    def start(self):
        if not self._running:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            self._running = True

    def stop(self):
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    @contextmanager
    def paused(self):
        was = self._running
        self.stop()
        try:
            yield
        finally:
            if was:
                self.start()

    def mark(self) -> int:
        return len(self.durations)

    def since(self, mark: int) -> list[float]:
        """Reference samples taken since `mark`."""
        return self.durations[mark:]

    def scale(self, window: list[float]) -> float:
        """Factor from measured to scaled time for a block whose samples are
        `window` (the latest samples stand in for an empty window)."""
        window = window or self.durations[-FALLBACK:]
        if not window:
            return 1.0
        return NOMINAL_MS / (1000.0 * statistics.fmean(window))


CHILD_REFERENCE = [sys.executable, "-c", "import numpy"]
# Wall time of CHILD_REFERENCE on the baseline machine, unloaded; like
# NOMINAL_MS it only sets the scale.
CHILD_NOMINAL_S = 0.1
# `import numpy` inside a fresh interpreter on the same machine; likewise.
NUMPY_IMPORT_NOMINAL_S = 0.07


class ChildPairing:
    """Reference children run between measured children."""

    def __init__(self, env: dict, cwd):
        self.env = env
        self.cwd = cwd
        self.last = self._run()

    def _run(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(CHILD_REFERENCE, env=self.env, cwd=self.cwd, capture_output=True, check=True, timeout=120)
        return time.perf_counter() - t0

    def scale_next(self) -> float:
        """Call right after a measured child: runs the next reference child
        and returns the factor from measured to scaled time."""
        before, self.last = self.last, self._run()
        return CHILD_NOMINAL_S / (0.5 * (before + self.last))
