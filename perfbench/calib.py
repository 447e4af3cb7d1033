"""The calibration loop behind ``run_rel``.

The exact kernel spends its time multiplying sparse Laurent polynomials:
dicts keyed by exponent tuples, with int coefficients.  On a shared machine
the speed of each core drifts by tens of percent within seconds.
`calibrate` times one fixed multiplication of that kind; `Sampler` runs it
in the process doing the measured work, once before it, every `INTERVAL`
seconds during it (from a SIGALRM handler, between bytecodes of the work)
and once after it.  The mean pass time is the speed the work actually ran
at, so ``run_s / calib_s`` cancels most of the drift.  Timing a loop only
before and after the work tracked it less well: over 20 cold
``fl3-products`` repetitions on a shared 2-core virtualized Xeon, the
ratio's quartile spread was 0.17 that way, 0.06 sampled during the work,
and 0.35 for the raw time.

The loop imports nothing from qkflag.
"""

from __future__ import annotations

import signal
import time

INTERVAL = 0.1


def _operand(terms: int, step: int) -> dict:
    """Distinct exponent vectors: base-5 digits of i * step, shifted to -2..2."""
    return {tuple((i * step) // 5 ** k % 5 - 2 for k in range(6)): i % 7 + 1
            for i in range(terms)}


# Two fixed 6-variable operands, the shape of the kernel's Laurent products.
LEFT, RIGHT = _operand(50, 7), _operand(40, 11)


def calibrate() -> float:
    """Seconds for one pass: the product LEFT * RIGHT, as the kernel forms it."""
    t0 = time.perf_counter()
    out: dict = {}
    for e1, c1 in LEFT.items():
        for e2, c2 in RIGHT.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return time.perf_counter() - t0


class Sampler:
    """Context manager that samples `calibrate` around and during a block.

    ``samples`` holds every pass time.  ``run_s`` is the block's wall time
    less the passes taken inside it.  Main thread only, since it uses
    SIGALRM.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.run_s = 0.0
        self._inside_s = 0.0
        self._t0 = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t = calibrate()
        self.samples.append(t)
        self._inside_s += t

    def __enter__(self):
        self.samples.append(calibrate())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.run_s = time.perf_counter() - self._t0 - self._inside_s
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(calibrate())
        return False

    @property
    def calib_s(self) -> float:
        return sum(self.samples) / len(self.samples)
