"""One `roer train` process as the benchmark measures it.

    python3 perfbench/child.py MODE CONFIG OUT_DIR RESULT_JSON [SPANS_NPZ]

MODE is one of
  full   train, then report the first-step and end timestamps and the
         process's peak resident memory;
  setup  exit as soon as the training loop takes its first environment
         step (a set-up sample only);
  trace  as full, with every op in tracer.OPS wrapped; the spans go to
         SPANS_NPZ and the wrappers are removed before the result is
         written.

Timestamps are time.monotonic(), a system-wide clock, so the parent can
subtract the moment it started this process. In full mode every step
samples a speedprobe.SpeedProbe, and the result holds its totals; the
setup and trace modes run without it, so no set-up time and no span
holds probe time.
"""

from __future__ import annotations

import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path

from speedprobe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def write_result(path: str, result: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, path)


def stamp_first_step(envs, result: dict, on_first, probe=None):
    """Record the first environment step. Without a probe, put the original
    step methods back so the rest of the run is untouched; with one, step
    methods that sample the probe first take their place. Returns a
    function that puts the originals back."""
    originals = {cls: vars(cls)["step"] for cls in (envs.TabularEnv, envs.PendulumEnv)}

    def probed(step):
        def sampled_step(self, action):
            probe.sample()
            return step(self, action)
        return sampled_step

    loop_steps = (originals if probe is None else
                  {cls: probed(fn) for cls, fn in originals.items()})

    def one_shot(cls):
        def step(self, action):
            result["t_first_step"] = time.monotonic()
            for owner, fn in loop_steps.items():
                owner.step = fn
            on_first()
            return loop_steps[cls](self, action)
        return step

    def restore():
        for owner, fn in originals.items():
            owner.step = fn

    for cls in originals:
        cls.step = one_shot(cls)
    return restore


def main(argv: list[str]) -> int:
    mode, config, out_dir, result_path = argv[:4]
    from roer import cli, envs

    result: dict = {"mode": mode, "roer_file": envs.__file__}
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer(run_id=os.getpid())
        tracer.install()

    def on_first():
        if mode == "setup":
            write_result(result_path, result)
            os._exit(0)

    probe = SpeedProbe() if mode == "full" else None
    restore = stamp_first_step(envs, result, on_first, probe)
    result["rc"] = cli.main(["train", "-c", config, "--output-dir", out_dir])
    result["t_end"] = time.monotonic()
    restore()
    if probe is not None:
        result["probe"] = probe.totals()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["blas_threads"] = blas_threads()
    if tracer is not None:
        result["restored"] = tracer.uninstall()
        result["counters"] = dict(tracer.counters)
        tracer.save(argv[4])
    write_result(result_path, result)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
