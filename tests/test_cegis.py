import numpy as np
import pytest

import clbf.cegis
from clbf.boxes import Box
from clbf.cegis import TrainConfig, cegis_run, resample_counterexamples
from clbf.envs import EnvSpec
from clbf.verifier import Verdict


def two_init_boxes_env_1d():
    """A 1-D system on [-3, 3] whose initial set is [-2, -1] and [1, 2]."""
    domain = Box(np.array([-3.0]), np.array([3.0]))
    return EnvSpec(
        name="twoinit1d", state_dim=1, control_dim=1,
        domain=domain, control_box=Box(np.array([-1.0]), np.array([1.0])),
        init_boxes=[Box(np.array([-2.0]), np.array([-1.0])),
                    Box(np.array([1.0]), np.array([2.0]))],
        goal_boxes=[], unsafe_boxes=[],
        constants={}, step=lambda X, U: 0.5 * np.atleast_2d(X),
        step_jac=None, step_interval_arrays=None,
    )


def test_init_resampling_stays_in_the_counterexamples_own_box():
    env = two_init_boxes_env_1d()
    ces = [np.array([1.1]), np.array([-1.9])]
    pts = resample_counterexamples(env, ces, 50, 0.5, np.random.default_rng(0),
                                   init_condition=True)
    assert pts.shape == (102, 1)
    first, second = pts[:51, 0], pts[51:, 0]
    assert first[0] == 1.1 and second[0] == -1.9
    assert np.all((first >= 1.0) & (first <= 1.6))
    assert np.all((second >= -2.0) & (second <= -1.4))
    # the ball reaches past the box's inner face, so clipping was needed
    assert np.any(first == 1.0) and np.any(second == -2.0)


def test_docking_run_proves_safety():
    # docking's goal lies inside the safe band, so the unsafe set takes the
    # unsafe mask everywhere and the safety check holds by construction
    cfg = TrainConfig(env_name="docking2d", epochs_per_iter=2, warmstart_epochs=2,
                      max_iters=1, teacher_samples=2000, max_boxes=2000)
    result = cegis_run(cfg)
    assert result.verdicts["safety"].proved


# ---------------------------------------------------------------------------
# configuration and run status


def test_resolved_rejects_unknown_env_and_method():
    with pytest.raises(ValueError, match="unknown environment 'nope'.*pendulum"):
        TrainConfig(env_name="nope").resolved()
    with pytest.raises(ValueError, match="unknown method 'nope'.*vanilla"):
        TrainConfig(method="nope").resolved()


def tiny_config(**kw):
    """Pendulum on a tiny budget, without certificate pre-training."""
    base = dict(warmstart_epochs=0, epochs_per_iter=1, max_iters=1,
                teacher_samples=500, max_boxes=200)
    return TrainConfig(**{**base, **kw})


def test_zero_warmstart_epochs_skip_pretraining():
    result = cegis_run(tiny_config())
    assert np.isnan(result.warmstart["warmstart_loss"])
    assert result.status == "max_iters" and len(result.iterations) == 1


def test_status_max_iters():
    result = cegis_run(tiny_config(max_iters=2))
    assert result.status == "max_iters" and not result.success
    assert [r["iteration"] for r in result.iterations] == [1, 2]
    assert all(r["ce_count"] > 0 for r in result.iterations)
    assert result.iterations[0]["wall_time_s"] <= result.iterations[1]["wall_time_s"]


def test_status_timeout():
    result = cegis_run(tiny_config(max_iters=3, timeout_hours=1e-9))
    assert result.status == "timeout" and not result.success
    assert [r["iteration"] for r in result.iterations] == [1]
    assert result.iterations[0]["ce_count"] > 0


def test_status_diverged(monkeypatch):
    def nan_loss(*args, spectral_vs=None):
        return np.nan, [], [], spectral_vs

    monkeypatch.setattr(clbf.cegis, "total_loss_grads", nan_loss)
    result = cegis_run(tiny_config(max_iters=3))
    assert result.status == "diverged" and not result.success
    [row] = result.iterations
    assert row["iteration"] == 1 and np.isnan(row["loss"]) and row["ce_count"] == 0
    assert result.verdicts == {}


def test_status_stalled(monkeypatch):
    # the decrease check is left unknown without a witness: the budget
    # widens once, from 200,000 to max_boxes, and then the run stalls
    budgets = []

    def unknown_decrease(cert, policy, env, delta, epsilon, cfg):
        budgets.append(cfg.max_boxes)
        return Verdict("unknown", "decrease", unknown_boxes=[env.domain],
                       unknown_volume_fraction=1.0)

    monkeypatch.setattr(clbf.cegis, "check_robust_decrease", unknown_decrease)
    result = cegis_run(tiny_config(max_iters=5, max_boxes=800_000))
    assert result.status == "stalled" and not result.success
    assert budgets == [200_000, 800_000]
    assert [r["iteration"] for r in result.iterations] == [1, 2]
    assert all(r["ce_count"] == 0 for r in result.iterations)
    assert result.verdicts["init"].proved and result.verdicts["safety"].proved
