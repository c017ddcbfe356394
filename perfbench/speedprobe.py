"""A probe of how fast the machine runs while a training loop is measured.

On a shared host the same code runs at speeds that drift by a third
within minutes, which moves every reading of a throughput. The probe
runs a fixed reference kernel inside the measured process, right before
an environment step (at most once per MIN_GAP_S), so its samples see the
same core, at the same moments and from the same point of the loop, as
the code they are compared with.

A window's wall time, less the kernel's time in it, is then scaled by
REFERENCE_S / (the kernel's mean time over the window, see SpeedProbe):
it becomes the time the window would take on a machine on which the
kernel takes REFERENCE_S. The kernel starts from whatever the loop left
in the caches, so a change to roer that alters its cache footprint also
moves the kernel a little, and the scaled time then shows only part of
that change.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

MIN_GAP_S = 0.0005
REFERENCE_S = 55e-6     # about the kernel's mean on the 2-vCPU Xeon VM it was tuned on

_VEC = np.linspace(0.0, 1.0, 64)


def kernel() -> float:
    """Python-level loops over small numpy calls, as the loop does most."""
    total = 0.0
    for _ in range(8):
        total += float(np.sum(_VEC * 1.0001))
    return total


class SpeedProbe:
    """Times kernel() on sample(), which the first step always calls.

    totals(), called at the end of the window, sums the times and takes
    their mean weighted by the wall time each sample stands for, from its
    start to the next one's: steps differ in length by a hundredfold
    within one loop (pendulum's warm-up steps against its update steps),
    and a plain mean would follow the phase with the most steps. Each
    time is cut at CLIP times the median first: a stall of a few
    milliseconds costs the loop a few milliseconds, but in one of the few
    hundred samples a slow loop gets it would weigh on the mean many
    times over."""

    CLIP = 4.0

    def __init__(self):
        self.starts = array("d")
        self.times = array("d")
        self._last_end = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        if start - self._last_end < MIN_GAP_S:
            return
        kernel()
        self._last_end = time.perf_counter()
        self.starts.append(start)
        self.times.append(self._last_end - start)

    def totals(self) -> dict:
        starts = np.frombuffer(self.starts, dtype=np.float64)
        times = np.frombuffer(self.times, dtype=np.float64)
        weights = np.diff(starts, append=time.perf_counter())
        clipped = np.minimum(times, self.CLIP * np.median(times))
        return {"kernel_s": float(times.sum()), "samples": int(times.size),
                "mean_s": float(np.average(clipped, weights=weights))}


def scaled(window_s: float, probe: dict) -> float:
    """A window's wall time, less the kernel's time in it, at the reference
    machine's speed."""
    return (window_s - probe["kernel_s"]) * REFERENCE_S / probe["mean_s"]
