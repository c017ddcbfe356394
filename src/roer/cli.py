"""Command-line entry points.

Subcommands: train, sweep, oracle, bias, replay-inspect. Exit codes:
0 success, 1 check or run failure (a run whose values, its priorities
included, turn non-finite where no update can abort), 2 configuration
error or bad input file (an offline dataset the buffer rejects, a
malformed snapshot or checkpoint, a snapshot of another problem than the
config's, or a scheduled one that is missing or of another step).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from dataclasses import replace

from . import config as config_mod
from . import harness, oracles
from .binio import FormatError
from .divergences import SPECS
from .replay import InvalidTransitionError, PriorityBuffer
from .schemes import ConfigError

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def _load_config(args) -> config_mod.ExperimentConfig:
    """The config file, with --output-dir and --workers in place of its values
    when given, checked as its keys are; an empty --output-dir is refused."""
    cfg = config_mod.load(args.config)
    flags = {k: getattr(args, k, None) for k in ("output_dir", "workers")}
    if flags["output_dir"] == "":
        raise ConfigError("--output-dir is empty")
    return replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _check_writable(flag: str, path: str | None) -> None:
    """Refuse an output path that cannot be opened for writing, before any
    work starts; the probe leaves no file that was not there before."""
    if not path:
        return
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise ConfigError(f"{flag} {path} cannot be written: {exc.strerror}") from None
    if not existed:
        os.remove(path)


def cmd_train(args) -> int:
    cfg = _load_config(args)
    out = harness.run_train(cfg)
    print(f"run complete: {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = harness.run_sweep(cfg)
    summary = json.loads((out / "sweep_summary.json").read_text())
    failed = [c["cell"] for c in summary["cells"] if c.get("failed")]
    print(f"sweep complete: {out} ({len(summary['cells'])} cells, "
          f"{len(failed)} failed)")
    return EXIT_CHECK_FAILURE if failed else EXIT_OK


def cmd_oracle(args) -> int:
    if args.corrupt is not None and args.corrupt not in SPECS:
        raise ConfigError(f"--corrupt must be one of {', '.join(SPECS)}, "
                          f"got {args.corrupt!r}")
    _check_writable("--report", args.report)
    report, ok = oracles.run_suite(corrupt_kind=args.corrupt, report_path=args.report)
    for r in report:
        status = "pass" if r["passed"] else "FAIL"
        kind = f" [{r['kind']}]" if "kind" in r else ""
        error = f", {r['error']}" if "error" in r else ""
        print(f"{status}  {r['check']}{kind}: measured {r['measured']:.3e} "
              f"(tolerance {r['tolerance']:.3e}){error}")
    print("oracle suite:", "all checks passed" if ok else "CHECKS FAILED")
    return EXIT_OK if ok else EXIT_CHECK_FAILURE


def cmd_bias(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    _check_writable("--out", args.out)
    cfg = _load_config(args)
    series = harness.estimate_bias(args.run_dir, cfg, seed=args.seed)
    payload = json.dumps(series, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    print(payload)
    return EXIT_OK


def cmd_replay_inspect(args) -> int:
    if args.top < 0:
        raise ConfigError(f"--top must be >= 0, got {args.top}")
    buf = PriorityBuffer.load(args.snapshot)
    pri = buf.priorities
    print(f"capacity {buf.capacity}  size {buf.size}  cursor {buf.write_cursor}")
    print(f"discrete {buf.discrete}  state_dim {buf.state_dim}  "
          f"action_dim {buf.action_dim}")
    if buf.size == 0:
        print("empty buffer: no priorities")
        return EXIT_OK
    print(f"priority total {buf.total_priority():.6g}  "
          f"min {pri.min():.6g}  max {pri.max():.6g}  mean {pri.mean():.6g}")
    if buf.discrete:
        dist = buf.implied_distribution()
        top = sorted(dist.items(), key=lambda kv: -kv[1])[: args.top]
        print("implied distribution (top buckets):")
        for (s, a), p in top:
            print(f"  state {s} action {a}: {p:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roer",
        description="Prioritized-replay experiments with exact tabular oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in [
            ("train", cmd_train, "run the training loop for every seed"),
            ("sweep", cmd_sweep, "grid sweep over config overrides")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-c", "--config", required=True)
        p.add_argument("--output-dir")
        p.add_argument("--workers", type=int)
        p.set_defaults(func=func)

    p = sub.add_parser("oracle", help="run the oracle verification suite")
    p.add_argument("--report", help="write a JSON report here")
    p.add_argument("--corrupt", help="negative control: corrupt this divergence")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bias", help="value-bias series from run checkpoints")
    p.add_argument("run_dir", help="a seed directory of a finished run")
    p.add_argument("-c", "--config", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bias)

    p = sub.add_parser("replay-inspect", help="summarize a buffer snapshot")
    p.add_argument("snapshot")
    p.add_argument("--top", type=int, default=10)
    p.set_defaults(func=cmd_replay_inspect)
    return parser


def _keep_freed_memory() -> None:
    """Keep freed heap memory in the process, in one heap (glibc malloc
    only). Each SAC update frees and reallocates array temporaries of up to
    a few MB; by default glibc returns them to the OS and faults them in
    again, which costs (256, 256) networks about a fifth of their update
    time. A SAC agent that runs its twin passes on two threads allocates
    from its helper thread too: with one arena those temporaries come from,
    and return to, the same kept heap rather than a second arena of their
    own."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD: heap-allocate blocks up to 32 MB
        mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD: keep up to 128 MB of free heap
        mallopt(-8, 1)          # M_ARENA_MAX: every thread allocates from one arena


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (InvalidTransitionError, FormatError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except FloatingPointError as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
