"""The per-step path calls numpy's ufuncs and C functions directly.

On 64-row arrays a numpy call costs about as much as the work it does, so
a Python-level wrapper around the C call (ndarray.max's, np.ones, np.clip,
np.shape) is a large share of it. These tests run a few steps of four
training loops (act, env step, push, draw, update, priority rewrite) under
sys.setprofile and name every Python function under numpy's package that
runs, except two kinds that have no C form to call instead: np.errstate's
methods, which the update steps need, and the array-function dispatcher
stubs of numpy/_core/multiarray.py (np.concatenate's, np.where's, ...),
which only return their arguments to the C function they dispatch to.
"""

import collections
import sys
from pathlib import Path

import numpy as np
import pytest

from roer import config as cmod
from roer import harness

NUMPY_DIR = Path(np.__file__).resolve().parent
DISPATCHER_STUBS = NUMPY_DIR / "_core" / "multiarray.py"
ERRSTATE = {np.errstate.__init__.__code__, np.errstate.__enter__.__code__,
            np.errstate.__exit__.__code__}
TRACED_STEPS = 5

CHAIN = dict(env="chain-5", seeds=[0], total_steps=1_000, train_start_step=20,
             buffer_capacity=300, env_horizon=50,
             tabular=dict(learning_rate=0.1, epsilon=0.1, batch_size=16))
LOOPS = {
    "chain-5 roer": dict(CHAIN, scheme="roer", scheme_config=dict(min_priority_clip=1e-3)),
    "chain-5 per": dict(CHAIN, scheme="per"),
    # 70,000 slots put two 16-way levels under the prefix: every draw and
    # priority rewrite walks them
    "chain-5 per deep tree": dict(CHAIN, scheme="per", buffer_capacity=70_000),
    "pendulum test roer": dict(env="pendulum", scheme="roer", seeds=[0],
                               total_steps=1_000, train_start_step=64,
                               agent=dict(profile="test")),
}


def wrapper_frames(run: harness._SeedRun, warm_steps: int) -> collections.Counter:
    """(numpy file, function, caller) -> calls over TRACED_STEPS steps of
    run's training loop, after warm_steps untraced ones; the loop body is
    _SeedRun.run's, less evaluation and checkpoints."""
    numpy_dir = str(NUMPY_DIR)
    frames = collections.Counter()

    def profile(frame, event, arg):
        code = frame.f_code
        if (event == "call" and code.co_filename.startswith(numpy_dir)
                and code not in ERRSTATE
                and Path(code.co_filename).resolve() != DISPATCHER_STUBS):
            caller = frame.f_back.f_code
            frames[(str(Path(code.co_filename).relative_to(numpy_dir)), code.co_name,
                    f"{Path(caller.co_filename).name}:{caller.co_name}")] += 1

    cfg, obs = run.cfg, run.env.reset()
    try:
        for step in range(1, warm_steps + TRACED_STEPS + 1):
            if step == warm_steps + 1:
                sys.setprofile(profile)
            action = run._act(obs, step)
            next_obs, reward, terminal, truncated = run.env.step(action)
            run.buffer.push(obs, action, reward, next_obs, terminal, step)
            obs = run.env.reset() if (terminal or truncated) else next_obs
            if (step >= cfg.train_start_step
                    and len(run.buffer) >= run.agent.config.batch_size):
                batch, weights = run._sample_batch()
                metrics = run.agent.update(batch, weights, run.streams["agent"],
                                           run.value_loss_cfg, run.div)
                if not metrics.aborted:
                    run._refresh_priorities(batch, metrics)
    finally:
        sys.setprofile(None)
    return frames


@pytest.mark.parametrize("loop", LOOPS)
def test_no_numpy_python_wrapper_runs_on_the_per_step_path(tmp_path, loop):
    cfg = cmod.from_dict(dict(LOOPS[loop], output_dir=str(tmp_path)))
    run = harness._SeedRun(cfg, 0, tmp_path / "seed_0")
    assert not getattr(run.agent, "pair_threads", False)  # one thread to trace
    # every traced step acts with the agent's policy and updates
    frames = wrapper_frames(run, warm_steps=max(cfg.train_start_step,
                                                run.agent.config.batch_size) + 2)
    assert getattr(run.agent, "aborted_updates", 0) == 0  # each step rewrote priorities
    # the 300-slot chains draw from the prefix alone; the others descend
    assert run.buffer.tree._depth == (0 if cfg.buffer_capacity == 300 else 2)
    assert not frames, "numpy Python wrappers on the per-step path:\n" + "\n".join(
        f"  {file}:{name} from {caller}, {calls} calls in {TRACED_STEPS} steps"
        for (file, name, caller), calls in sorted(frames.items()))
