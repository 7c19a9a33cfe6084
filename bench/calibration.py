"""Machine-speed calibration on a shared host.

On a host shared with other tenants, the same code runs at speeds that drift
by 20-40% over minutes, in spells of seconds to minutes. A fixed NumPy
kernel that uses nothing from the program is timed every ``PERIOD_S`` seconds
from a SIGALRM handler while a repetition runs. A stage's time divided by
the kernel's mean time over that stage gives its time in kernel units
("ref"), which follows the program's own speed rather than the host's.

The kernel mixes the two shapes of work the workloads do: a dispatch-bound
chain of 11-row products (the closed loop) and one 4000-row layer (the
fits). :meth:`Calibrator.clock` excludes the handler's
time, so stage times measured with it are the program's alone.

The handler can also time one more callable per alarm (``extra``): the
benchmark times its set-up there, so that ``setup_s`` samples the host
throughout a run instead of only at its start.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.15


class Calibrator:
    """Times the reference kernel periodically inside a ``with`` block."""

    def __init__(self, extra=None):
        rng = np.random.default_rng(12345)
        self.rows = rng.standard_normal((4000, 32))
        self.square = rng.standard_normal((32, 32))
        self.layers = [rng.standard_normal((32, 4)), rng.standard_normal((32, 32)),
                       rng.standard_normal((2, 32))]
        self.point = rng.standard_normal((11, 4))
        self.samples: list[tuple[float, float]] = []  # (clock at start, kernel seconds)
        self.extra = extra
        self.extra_samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def kernel(self) -> None:
        """About 1.6 ms: half one 4000-row layer, half 40 passes of an 11-row net."""
        np.tanh(self.rows @ self.square.T)
        w_in, w_mid, w_out = self.layers
        for _ in range(40):
            h1 = np.tanh(self.point @ w_in.T + 0.1)
            h2 = np.tanh(h1 @ w_mid.T + 0.1)
            ((h2 @ w_out.T) @ w_out * (1.0 - h2 * h2)) @ w_mid

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.samples.append((t0 - self.spent, t1 - t0))
        if self.extra is not None:
            self.extra()
            self.extra_samples.append(time.perf_counter() - t1)
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        """Seconds, less the time spent in the calibration handler."""
        return time.perf_counter() - self.spent

    def unit(self, start: float, end: float) -> float:
        """Kernel seconds over the span [start, end] of :meth:`clock`.

        The mean of the samples in the span, less the top and bottom tenth.
        A span with fewer than three samples uses all of them, and a block
        too short for five samples times the kernel now.
        """
        samples = [d for t, d in self.samples if start <= t <= end]
        if len(samples) < 3:
            samples = [d for _, d in self.samples]
        while len(samples) < 5:
            t0 = time.perf_counter()
            self.kernel()
            samples.append(time.perf_counter() - t0)
        samples.sort()
        cut = len(samples) // 10
        return statistics.fmean(samples[cut : len(samples) - cut])

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
