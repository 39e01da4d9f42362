"""Host speed, sampled through a run with a fixed kernel the benchmark owns.

On a shared host the speed of the whole process drifts by tens of
percent over seconds to minutes, and every phase of a run moves with it.
The benchmark times this kernel every ``INTERVAL_S`` of the run, at
epoch boundaries and between audited blocks, and divides the rates it
reports by the kernel's slowdown against ``NOMINAL_S``. The rates then
read as on a host where the kernel takes ``NOMINAL_S``. The kernel never
changes and calls nothing in the program, so a faster program still
reads faster. Its mix follows the program's: interpreted Python (calls,
dicts, slicing), SHA-256 and one 2048-bit modular exponentiation.
"""

from __future__ import annotations

import gc
import hashlib
import time

#: Kernel time on the reference host (2-vCPU AMD EPYC VM, Python 3.11.7).
NOMINAL_S = 0.001
INTERVAL_S = 0.05

_DATA = bytes(range(256)) * 2
_MODULUS = (1 << 2047) + 0x1D3
_BASE = 0xB7E151628AED2A6ABF7158809CF4F3C762E7160F38B4DA56A784D9045190CFEF


def kernel() -> None:
    counts: dict[int, int] = {}
    for i in range(2000):
        key = (i * 2654435761) & 0x3FF
        counts[key] = counts.get(key, 0) + len(_DATA[i % 200 : i % 200 + 32])
        if i % 32 == 0:
            hashlib.sha256(_DATA).digest()
    sorted(counts.items())
    pow(_BASE, 0xF0E1D2C3, _MODULUS)


class HostSpeed:
    def __init__(self):
        self.seconds = 0.0
        self.samples = 0
        self._next = 0.0

    def sample(self) -> None:
        """Time the kernel if ``INTERVAL_S`` has passed since the last sample."""
        now = time.perf_counter()
        if now < self._next:
            return
        enabled = gc.isenabled()
        gc.disable()  # the program's garbage is not the host's speed
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.seconds += elapsed
        self.samples += 1
        self._next = time.perf_counter() + INTERVAL_S

    @property
    def slowdown(self) -> float:
        """Mean kernel time over ``NOMINAL_S``; above 1 on a slower host."""
        return self.seconds / self.samples / NOMINAL_S
