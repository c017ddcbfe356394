"""Benchmark of `roer train` on fixed single-seed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all` to run each in
turn. Every measured run is a fresh `roer train` process (child.py), so
set-up time and peak memory are those a user sees.

--trace 0 repeats the workload while another run still fits in --seconds
(at least one run), then adds set-up-only processes until there are
MIN_SETUP_SAMPLES set-up samples, and reports the end-to-end metrics as
medians over processes:
  setup_s          process start to the first environment step
  env_steps_per_s  total_steps / (first environment step to run_train's
                   return), that loop time taken at a reference machine
                   speed: speedprobe.py samples the speed before steps,
                   in the same process, and scales the time by it, so
                   that the host's drift in speed cancels out
  peak_rss_mb      peak resident memory of the process
The detail line also holds each process's raw_env_steps_per_s, at this
machine's speed, and the probe's mean kernel time.
--trace 1 runs the workload once untraced and once with every op of
tracer.OPS wrapped, and reports the per-layer metrics of the traced run.

Each run's artifacts are checked (see workloads.check_outputs) and hashed;
all runs of one workload and seed must hash identically. The last line of
stdout is one JSON object {correct, attempted, failed, metrics}, where
attempted counts SAC or tabular updates and failed counts aborted updates,
stale priority writes, and every update of a run that crashed.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(ROOT / "src"))

BLAS_THREADS = 1            # pinned for every child, on every commit
MIN_SETUP_SAMPLES = 3
PROCESS_TIMEOUT_S = 170

END_TO_END = (("setup_s", "s"), ("env_steps_per_s", "steps/s"), ("peak_rss_mb", "MB"))


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in print order."""
    from tracer import LATENCY_OPS, OPS

    spec = []
    for op in OPS:
        if op == "harness.loop_residual":
            spec.append((f"{op}.self_s", "s", "lower"))
            continue
        spec += [(f"{op}.calls", "count", "lower"), (f"{op}.self_s", "s", "lower")]
    for op in LATENCY_OPS:
        spec += [(f"{op}.p50_us", "us", "lower"), (f"{op}.p99_us", "us", "lower")]
    spec += [
        ("replay.stale_frac", "ratio", "lower"),
        ("schemes.roer_update.clip_frac", "ratio", "lower"),
        ("schemes.floor_frac", "ratio", "lower"),
        ("agents.aborted_frac", "ratio", "lower"),
        ("harness.update_fail_frac", "ratio", "lower"),
        ("nn.forward_cache.calls_per_update", "calls/update", "lower"),
        ("nn.gflop", "GFLOP_computed", "lower"),
        ("nn.gflop_per_s", "GFLOP/s_computed", "higher"),
        ("binio.bytes_written", "bytes", "lower"),
        ("tracing.overhead_frac", "ratio", "lower"),
    ]
    return spec


# ----------------------------------------------------------------------
# machine fingerprint

def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def fingerprint(blas_threads: int | None) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": blas_threads,
    }


# ----------------------------------------------------------------------
# one roer train process

def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("ROER_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # numpy asks for huge pages for arrays of 4 MB and more; whether the
    # kernel has them free varies from run to run, and with it peak memory
    # (by up to 8 MB on offline-per) and the time spent compacting memory
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def run_process(workload, cfg: dict, cfg_path: Path, mode: str, tag: str) -> dict:
    """Start child.py in a fresh interpreter, wait for it, check and hash
    what it wrote, and delete its run directory."""
    from speedprobe import scaled
    from workloads import check_outputs

    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    out_dir, result_path = runs / tag, runs / f"{tag}.json"
    spans_path = WORK / "spans" / f"{workload.name}.npz"
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(cfg_path), str(out_dir),
           str(result_path)]
    if mode == "trace":
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        cmd.append(str(spans_path))
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, stderr = proc.communicate()
    wall = time.monotonic() - t0
    rec = {"mode": mode, "errors": [], "wall_s": wall}
    result = json.loads(result_path.read_text()) if result_path.exists() else {}
    result_path.unlink(missing_ok=True)
    if proc.returncode != 0 or "t_first_step" not in result:
        tail = stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        rec["errors"].append(f"{mode} process failed: {tail[0]}")
        shutil.rmtree(out_dir, ignore_errors=True)
        return rec
    if Path(result["roer_file"]).resolve().parent != ROOT / "src" / "roer":
        rec["errors"].append(f"imported roer from {result['roer_file']}, not src/")
    rec["setup_s"] = result["t_first_step"] - t0
    if mode != "setup":
        loop_s = result["t_end"] - result["t_first_step"]
        rec["wall_s"] = result["t_end"] - t0
        rec["steps_per_s"] = cfg["total_steps"] / loop_s
        rec["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
        rec["blas_threads"] = result["blas_threads"]
        if result["blas_threads"] not in (None, BLAS_THREADS):
            rec["errors"].append(f"BLAS ran {result['blas_threads']} threads, "
                                 f"pinned {BLAS_THREADS}")
        errors, rec["summary"], rec["hashes"] = check_outputs(
            workload, out_dir / f"seed_{cfg['seeds'][0]}")
        rec["errors"] += errors
    if mode == "full":
        # the probe's kernel is taken out of the times; steps_per_s is at
        # the reference speed, raw_steps_per_s at this machine's
        probe = result["probe"]
        rec["wall_s"] -= probe["kernel_s"]
        rec["raw_steps_per_s"] = cfg["total_steps"] / (loop_s - probe["kernel_s"])
        rec["steps_per_s"] = cfg["total_steps"] / scaled(loop_s, probe)
        rec["probe_kernel_us"] = 1e6 * probe["mean_s"]
    if mode == "trace":
        rec["counters"] = result["counters"]
        rec["spans"] = spans_path
        if not result["restored"]:
            rec["errors"].append("a traced function was not restored")
    shutil.rmtree(out_dir, ignore_errors=True)
    return rec


# ----------------------------------------------------------------------
# one workload

def prepare(workload, seed: int) -> tuple[dict, Path, int]:
    """Write the workload's config (and dataset) for this seed; returns
    the config, its path and the number of updates one run attempts."""
    from roer.config import from_dict
    from workloads import expected_updates, offline_dataset

    # bytecode compiled here, not inside the first measured set-up
    compileall.compile_dir(ROOT / "src", quiet=1)
    dataset = str(offline_dataset(WORK, seed)) if workload.offline else None
    cfg = workload.config(seed, dataset)
    resolved = from_dict(cfg)      # validates, and imports roer once
    batch = resolved.sac.batch_size if resolved.env == "pendulum" else resolved.tabular.batch_size
    path = WORK / "configs" / f"{workload.name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    return cfg, path, expected_updates(cfg, batch)


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    cfg, cfg_path, updates = prepare(workload, seed)
    tag = f"{workload.name}-seed{seed}-{os.getpid()}"
    runs: list[dict] = []
    if trace:
        for mode in ("full", "trace"):
            runs.append(run_process(workload, cfg, cfg_path, mode, f"{tag}-{mode}"))
            if runs[-1]["errors"]:
                break
    else:
        t_start = time.monotonic()
        while True:
            runs.append(run_process(workload, cfg, cfg_path, "full", f"{tag}-{len(runs)}"))
            elapsed = time.monotonic() - t_start
            if runs[-1]["errors"] or elapsed + runs[-1]["wall_s"] > seconds:
                break
        while not runs[-1]["errors"] and len(runs) < MIN_SETUP_SAMPLES:
            runs.append(run_process(workload, cfg, cfg_path, "setup", f"{tag}-setup{len(runs)}"))

    errors = [e for r in runs for e in r["errors"]]
    trained = [r for r in runs if r["mode"] != "setup"]
    untraced = [r for r in runs if r["mode"] != "trace"]
    hash_sets = {json.dumps(r["hashes"], sort_keys=True) for r in trained if "hashes" in r}
    if len(hash_sets) > 1:
        errors.append("runs of one seed wrote different artifact bytes")
    attempted = updates * len(trained)
    failed = sum(updates if "summary" not in r else
                 r["summary"].get("aborted_updates", 0) + r["summary"]["stale_updates"]
                 for r in trained)
    out = {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "correct": not errors, "errors": errors,
        "attempted": attempted, "failed": failed,
        "update_fail_frac": failed / attempted,
        "hashes": trained[0].get("hashes", {}),
        "blas_threads": trained[0].get("blas_threads"),
        "samples": {   # untraced processes only
            "setup_s": [r["setup_s"] for r in untraced if "setup_s" in r],
            "env_steps_per_s": [r["steps_per_s"] for r in untraced if "steps_per_s" in r],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced if "peak_rss_mb" in r],
            "raw_env_steps_per_s": [r["raw_steps_per_s"] for r in untraced
                                    if "raw_steps_per_s" in r],
            "probe_kernel_us": [r["probe_kernel_us"] for r in untraced
                                if "probe_kernel_us" in r],
        },
    }
    if errors:
        out["metrics"] = {}
    elif trace:
        out["metrics"] = per_layer_metrics(trained[1], trained[0], out["update_fail_frac"])
    else:
        units = dict(END_TO_END)
        out["metrics"] = {name: (statistics.median(out["samples"][name]), units[name])
                          for name, _ in END_TO_END}
    return out


def per_layer_metrics(traced: dict, untraced: dict, update_fail_frac: float) -> dict:
    from tracer import LATENCY_OPS, MATMUL_OPS, load_spans, op_stats, percentile

    stats = op_stats(load_spans(traced["spans"]))
    counters = traced["counters"]
    units = {name: unit for name, unit, _ in per_layer_spec()}

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for op, st in stats.items():
        if op != "harness.loop_residual":
            values[f"{op}.calls"] = st["calls"]
        values[f"{op}.self_s"] = st["self_s"]
    for op in LATENCY_OPS:
        durations_us = stats[op]["durations_ns"] / 1e3
        values[f"{op}.p50_us"] = percentile(durations_us, 50)
        values[f"{op}.p99_us"] = percentile(durations_us, 99)
    updates = stats["agents.SacAgent.update"]["calls"] + stats["agents.TabularAgent.update"]["calls"]
    gflop = counters.get("nn.flops", 0) / 1e9
    values.update({
        "replay.stale_frac": ratio(traced["summary"]["stale_updates"],
                                   counters.get("replay.priority_rows", 0)),
        "schemes.roer_update.clip_frac": ratio(counters.get("schemes.roer_update.clipped", 0),
                                               counters.get("schemes.roer_update.rows", 0)),
        "schemes.floor_frac": ratio(counters.get("schemes.floor_rows", 0),
                                    counters.get("schemes.rows", 0)),
        "agents.aborted_frac": ratio(counters.get("agents.aborted", 0), updates),
        "harness.update_fail_frac": update_fail_frac,
        "nn.forward_cache.calls_per_update": ratio(stats["nn.forward_cache"]["calls"], updates),
        "nn.gflop": gflop,
        "nn.gflop_per_s": ratio(gflop, sum(stats[op]["self_s"] for op in MATMUL_OPS)),
        "binio.bytes_written": counters.get("binio.bytes_written", 0),
        "tracing.overhead_frac": traced["wall_s"] / untraced["wall_s"] - 1.0,
    })
    return {name: (values[name], units[name]) for name in units}


# ----------------------------------------------------------------------
# output

def print_report(out: dict) -> None:
    head = f"{out['workload']} seed {out['seed']}"
    if out["errors"]:
        print(f"{head}: FAILED")
        for err in out["errors"]:
            print(f"  {err}")
    n = {name: len(v) for name, v in out["samples"].items()}
    for name, (value, unit) in out["metrics"].items():
        count = f"  (median of {n[name]})" if name in n else ""
        print(f"{head}  {name:<40} {value:>14.6g} {unit}{count}")
    print(f"{head}  {'update_fail_frac':<40} {out['update_fail_frac']:>14.6g} ratio"
          f"  ({out['failed']} of {out['attempted']} updates)")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "roer" / "__init__.py").is_file():
        print(f"perfbench: no roer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
               for name in names]
    for out in results:
        print_report(out)
    prefix = len(results) > 1
    metrics = {(f"{out['workload']}." if prefix else "") + name: {"value": value, "unit": unit}
               for out in results for name, (value, unit) in out["metrics"].items()}
    detail = {
        "fingerprint": fingerprint(results[0]["blas_threads"]),
        "runs": [{k: out[k] for k in ("workload", "seed", "trace", "errors", "hashes",
                                      "samples", "update_fail_frac")} for out in results],
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    correct = all(out["correct"] for out in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(out["attempted"] for out in results),
        "failed": sum(out["failed"] for out in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
