"""Machine-speed calibration of the batch rounds and the service run.

A shared 2-core VM drifts in speed by up to 2.5x as its neighbours come and
go: in spells of a few seconds, and for minutes at a time.  A batch run
takes the fastest of several identical rounds, which dodges the short
spells; both kinds of run time a fixed reference kernel every few seconds,
whose fastest time tracks the long ones.  They report timings in reference
seconds: raw seconds times ``REFERENCE_S / fastest kernel``, the time the
work would have taken on a box where the kernel takes ``REFERENCE_S``
(such a VM when quiet).  A kernel timed right next to each round, scaling
that round alone, spread far wider: 0.1 s of kernel does not see the speed
of the seconds of work beside it.

The kernel runs in a fresh interpreter of its own that never imports the
library, so nothing a library change does to the benchmark process (memory
it holds, threads it leaves running) reaches the kernel and is divided
out.  The raw values are printed next to the scaled ones.

Run as a script, this module is that interpreter: it answers each line on
standard input with the fastest of :data:`SAMPLES` kernel times.
"""

from __future__ import annotations

import contextlib
import random
import subprocess
import sys
import threading
import time

import numpy as np

#: The kernel's fastest time on the quiet reference VM, in seconds.
REFERENCE_S = 0.025
SAMPLES = 4


def kernel() -> float:
    """Seconds of one fixed interpreter-bound job (Python loops, small numpy ops)."""
    t0 = time.perf_counter()
    rng = random.Random(0)
    n = 24
    q = np.array([[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)])
    x = np.zeros(n)
    best: dict = {}
    energy = 0.0
    for sweep in range(600):
        for i in range(n):
            delta = float(q[i] @ x) + q[i, i]
            if delta < 0 or rng.random() < 0.1:
                x[i] = 1.0 - x[i]
                energy += delta
            key = (sweep % 7, i % 5)
            best[key] = min(best.get(key, 0.0), energy)
    return time.perf_counter() - t0


def scale(kernels: list[float]) -> float:
    """Reference seconds per raw second: below 1 when the box ran slow."""
    return REFERENCE_S / min(kernels)


class Probe:
    """The kernel interpreter, as a context manager that stops it on exit."""

    def __enter__(self) -> "Probe":
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def sample(self) -> float:
        """The fastest of :data:`SAMPLES` kernel times, in seconds."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process exited with {self.proc.wait()}")
        return float(line)

    @contextlib.contextmanager
    def sampling(self, period_s: float):
        """Sample every ``period_s`` seconds from a thread while the block runs.

        For work that must not be paused to take a sample (an open loop);
        yields the list the samples go to.
        """
        samples: list[float] = []
        stop = threading.Event()

        def loop():
            while not stop.wait(period_s):
                samples.append(self.sample())

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield samples
        finally:
            stop.set()
            thread.join()

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _serve() -> None:
    for _ in sys.stdin:
        print(min(kernel() for _ in range(SAMPLES)), flush=True)


if __name__ == "__main__":
    _serve()
