"""The speed probe's arithmetic on synthetic samples.

    python3 -m pytest perfbench/test_speedprobe.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speedprobe import REFERENCE_S, SpeedProbe, scaled  # noqa: E402


def test_totals_weigh_samples_by_time_and_cut_stalls():
    probe = SpeedProbe()
    now = time.perf_counter()
    # four samples 1 s apart, then one 3 s before the end of the window
    probe.starts.extend([now - 7.0, now - 6.0, now - 5.0, now - 4.0, now - 3.0])
    probe.times.extend([1e-4, 1e-4, 1e-4, 3e-4, 1e-2])
    totals = probe.totals()
    assert totals["samples"] == 5
    assert totals["kernel_s"] == pytest.approx(1.06e-2)
    cut = SpeedProbe.CLIP * 1e-4
    assert totals["mean_s"] == pytest.approx((3e-4 + 3e-4 + 3 * cut) / 7, rel=1e-3)


def test_scaled_takes_out_kernel_time_and_applies_the_speed():
    # a machine twice as slow as the reference: the kernel takes 2 * REFERENCE_S
    probe = {"kernel_s": 0.5, "samples": 10, "mean_s": 2 * REFERENCE_S}
    assert scaled(10.5, probe) == pytest.approx(5.0)


def test_sample_skips_calls_closer_than_the_gap():
    probe = SpeedProbe()
    probe.sample()
    assert len(probe.times) == 1
    probe._last_end = time.perf_counter() + 60.0
    probe.sample()
    assert len(probe.times) == 1
