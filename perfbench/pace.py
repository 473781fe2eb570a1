"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared virtual machines whose speed drifts by up to
half again over seconds to minutes, from work outside the process: CPU
time grows with wall time, so the process is not waiting, it runs slower.
A fixed calibration kernel, timed right before and right after every op,
measures the machine's speed at that moment. An op's *reference time* is
its wall time scaled by how much slower than ``REFERENCE_MS`` the kernel
ran around it:

    ref_ms = wall_ms * REFERENCE_MS / mean(kernel_ms before, kernel_ms after)

The kernel is fixed here and does not call attntrack, so a change to the
program moves reference times exactly as it moves wall times.
"""

from __future__ import annotations

import time

import numpy as np

# about the kernel's median time, in ms, on the 2-vCPU Intel Xeon (2.0 GHz)
# VM the bounds were set on, where it ranged from 0.55 to 1.4 ms; reference
# times read as wall times on that machine at its typical speed
REFERENCE_MS = 0.8

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((64, 64))
_MEDIUM = _rng.standard_normal((128, 128))
_FEATURES = _rng.standard_normal((32, 16, 16))
_WEIGHTS = _rng.standard_normal((16, 32))


def kernel() -> None:
    """A fixed mix of what attntrack spends its time on: small numpy ops,
    interpreter work between them, and one BLAS matrix product."""
    for _ in range(4):
        np.einsum("oc,chw->ohw", _WEIGHTS, _FEATURES)
        _SMALL @ _SMALL
        np.exp(_SMALL)
        x = 0
        for i in range(1000):
            x += i * i
    _MEDIUM @ _MEDIUM


class Pace:
    """Times the calibration kernel on demand and keeps every reading."""

    def __init__(self) -> None:
        self.kernel_ms: list[float] = []

    def tick(self) -> float:
        start = time.perf_counter()
        kernel()
        ms = 1e3 * (time.perf_counter() - start)
        self.kernel_ms.append(ms)
        return ms


def reference_ms(wall_ms: float, before_ms: float, after_ms: float) -> float:
    """``wall_ms`` scaled to the machine speed at which the kernel takes
    ``REFERENCE_MS``; the kernel readings bracket the op."""
    return wall_ms * REFERENCE_MS / (0.5 * (before_ms + after_ms))
