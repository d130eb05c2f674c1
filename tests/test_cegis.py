import numpy as np

from clbf.boxes import Box
from clbf.cegis import TrainConfig, cegis_run, resample_counterexamples
from clbf.envs import EnvSpec


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
