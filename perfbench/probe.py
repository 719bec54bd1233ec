"""Fixed pieces of work whose time tells how fast the host runs right now.

A shared VM host slows a process by 10-45% for tens of seconds at a time
(measured on a 2-vCPU Intel Xeon KVM guest), which is more than a
benchmark bound can absorb.  The worker measures `speed` between
instances, and run.py multiplies each instance's time by the speed
measured around it, giving the time the instance would take on the
reference VM with its host quiet.  The parts touch no metacode code, so a
change to the library cannot move them.
"""

from __future__ import annotations

import time

import numpy as np

# each part's time on the reference VM with its host quiet (the 10th
# percentile of 500 probes; a 2-vCPU Intel Xeon KVM guest)
REF_S = {"loop": 0.023, "small": 0.022, "block": 0.019}
_BLOCK = np.random.default_rng(0).integers(0, 19, size=(128, 1155))
_SMALL = [np.random.default_rng(i).integers(0, 3, size=8) for i in range(64)]


def _loop():
    """Interpreter-bound integer arithmetic."""
    s = 0
    for i in range(300_000):
        s += (i * 7919) % 1009


def _small():
    """Many calls on tiny arrays, where NumPy's per-call overhead dominates."""
    n = 0
    for _ in range(300):
        for v in _SMALL:
            if v.any():
                n += 1


def _block():
    """Row reductions mod a prime on a 128 x 1155 block."""
    b = _BLOCK.copy()
    for r in range(16):
        b[r + 1:] = (b[r + 1:] - b[r] * 3) % 19


PARTS = {"loop": _loop, "small": _small, "block": _block}


def speed(parts) -> float:
    """How fast the host runs the named parts now: 1.0 on the quiet reference VM, less when slower."""
    t0 = time.perf_counter()
    for name in parts:
        PARTS[name]()
    return sum(REF_S[name] for name in parts) / (time.perf_counter() - t0)
