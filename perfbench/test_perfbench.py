"""Fast self-check of the benchmark.

Builds the synthetic system through the public EnvSpec constructor, sets up
every workload and runs one tiny operation of each through its outside
checks, confirms that the tracer finds every layer binding, and that a
failing operation is counted and reported. A change to clbf's public surface
that the benchmark relies on fails here first.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import clbf.adversary  # noqa: E402
from clbf.envs import EnvSpec  # noqa: E402
from clbf.nets import forward_batch  # noqa: E402
from clbf.verifier import Verdict, Witness  # noqa: E402

import run  # noqa: E402
import synth  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def tiny(workload: str, seed: int = 0):
    state = workloads.setup(workload, seed)
    if isinstance(state, workloads.VerifyState):
        state.cfg.max_boxes = 8
    else:
        state.steps = 1
    return state


def test_synthetic_system_is_exact():
    env = synth.synth_env()
    assert isinstance(env, EnvSpec)
    rng = np.random.default_rng(0)
    # half of the boxes lie on or near the planted pyramid
    lo = np.concatenate([rng.uniform(-0.25, 0.2, (32, 2)),
                         synth.BUMP_CENTER + rng.uniform(-0.008, 0.004, (32, 2))])
    hi = lo + np.concatenate([rng.uniform(0.0, 0.05, (32, 2)),
                              rng.uniform(0.0, 0.006, (32, 2))])
    u_lo = rng.uniform(-1.5, 1.0, (64, 1))
    u_hi = u_lo + rng.uniform(0.0, 0.5, (64, 1))
    n_lo, n_hi = env.step_interval_arrays(lo, hi, u_lo, u_hi)
    for t in rng.uniform(0.0, 1.0, (8, 2)):
        x = lo + t[0] * (hi - lo)
        u = u_lo + t[1] * (u_hi - u_lo)
        nxt = env.step(x, u)
        assert np.all(nxt >= n_lo - 1e-12) and np.all(nxt <= n_hi + 1e-12)
    x, u = lo, 0.5 * (u_lo + u_hi)
    A, B = env.step_jac(x, u)
    h = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (env.step(x + e, u) - env.step(x - e, u)) / (2 * h)
        assert np.allclose(A[:, :, j], fd, atol=1e-8)
    fd_u = (env.step(x, u + h) - env.step(x, u - h)) / (2 * h)
    inside = np.abs(u[:, 0]) < 1.0 - h
    assert np.allclose(B[inside, :, 0], fd_u[inside], atol=1e-8)
    assert np.allclose(env.step(synth.BUMP_CENTER[None], np.zeros((1, 1))),
                       synth.BUMP_CENTER)
    assert not env.in_goal(x).any() and not env.in_unsafe(x).any()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs_one_tiny_operation(workload):
    state = tiny(workload)
    result = workloads.run_op(state)
    assert workloads.check(state, result) == []
    assert workloads.outputs(result) == workloads.outputs(workloads.run_op(state))


def test_witness_recheck_rejects_false_witnesses():
    state = tiny("verify-robust")
    x = np.array([0.0, 0.0])
    u = state.env.clamp_control(forward_batch(state.policy, x[None]))
    nxt = state.env.step(x[None], u)[0]
    off_ball = Witness(x, "decrease", 1.0, nxt + 1.0)
    # away from the planted fixed point the pinned pair decreases with a
    # true margin, so f(x, pi(x)) itself violates nothing
    no_violation = Witness(x, "decrease", 1.0, nxt)
    for w, complaint in ((off_ball, "delta-ball"), (no_violation, "WITNESS_SLACK")):
        verdict = Verdict("counterexample", "decrease", w, [w])
        assert any(complaint in p for p in workloads.check(state, verdict))


def test_witness_recheck_accepts_the_planted_fixed_point():
    state = tiny("verify-robust")
    x = synth.BUMP_CENTER
    u = state.env.clamp_control(forward_batch(state.policy, x[None]))
    w = Witness(x, "decrease", 1.0, state.env.step(x[None], u)[0])
    assert workloads.check(state, Verdict("counterexample", "decrease", w, [w])) == []


def test_failing_operation_is_counted_and_reported(monkeypatch, tmp_path, capsys):
    def broken(state):
        raise RuntimeError("forced failure")

    monkeypatch.setattr(workloads, "run_op", broken)
    monkeypatch.setattr(run, "pin_blas", lambda: None)
    monkeypatch.setattr(run, "pin_malloc", lambda: "untouched")
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", "verify-robust", "--seed", "0",
                     "--seconds", "1", "--trace", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAILED op 1: RuntimeError: forced failure" in out
    assert json.loads(out.splitlines()[-1]) == {
        "correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_raising_setup_and_failed_check_count_as_failed_operations():
    setups = []

    def setup(workload, seed):
        setups.append(seed)
        if len(setups) > 1 + run.SETUPS_PER_OP:
            raise OSError("forced")
        return seed

    fake = SimpleNamespace(setup=setup, run_op=lambda s: s,
                           check=lambda s, r: [], outputs=lambda r: {"r": r})
    runner = run.Runner(fake, "fake", 0)
    assert runner.setup()
    [times] = runner.repeat([run._timed], 0.0)
    # op, SETUPS_PER_OP set-ups, op, raising set-up
    assert (len(times), runner.attempted, runner.failed) == (2, 3, 1)

    fake.check = lambda s, r: ["forced"]
    runner = run.Runner(fake, "fake", 0)
    setups.clear()
    assert runner.setup()
    assert runner.one(run._timed) is None
    assert (runner.attempted, runner.failed) == (1, 1)
    assert runner.problems == ["op 1: forced"]


def test_tracer_sees_every_layer_and_restores_bindings():
    original = clbf.adversary.value_and_input_grad
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for workload in ("verify-robust", "train-pgd"):
            tracer.run_op(workloads.run_op, tiny(workload))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert clbf.adversary.value_and_input_grad is original
    robust, train = tracer.per_op()
    assert robust["adversary.pgd_maximize_batch"]["calls"] > 0
    assert train["nets.Adam.step"]["calls"] == 2
    for op in (robust, train):
        total = sum(agg["self_s"] for agg in op.values())
        assert total == pytest.approx(op[tracing.OP]["total_s"])
