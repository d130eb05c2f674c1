import numpy as np
import pytest

import clbf.evaluate
import clbf.verifier
from clbf.adversary import PgdConfig
from clbf.certificate import ClbfParams, FilteredCertificate
from clbf.evaluate import (
    OUTCOME_GOAL,
    OUTCOME_TIMEOUT,
    OUTCOME_UNSAFE,
    Campaign,
    rollout_batch,
    run_campaign,
    wilson_interval,
)
from clbf.nets import Mlp

from conftest import halving_env_1d, small_cert, small_policy


# ---------------------------------------------------------------------------
# wilson_interval


def test_wilson_interval_reference_values():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = wilson_interval(50, 100)
    assert lo == pytest.approx(0.40383, abs=1e-5)
    assert hi == pytest.approx(0.59617, abs=1e-5)


def test_wilson_interval_stays_in_unit_range_at_the_extremes():
    for n in (1, 7, 1000):
        for s in (0, n):
            lo, hi = wilson_interval(s, n)
            assert 0.0 <= lo <= s / n <= hi <= 1.0
        assert wilson_interval(0, n)[0] == pytest.approx(0.0, abs=1e-12)
        assert wilson_interval(n, n)[1] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# campaigns and rollouts


def test_run_campaign_is_deterministic_given_its_seed(pendulum):
    cert = small_cert(pendulum, seed=2)
    policy = small_policy(pendulum, seed=3)
    campaign = Campaign(n_states=64, horizon=10, seed=4,
                        modes=[("adversarial", 0.01), ("random", 0.05)])
    rows = run_campaign(policy, cert, campaign)
    # every row has both outcomes, so it depends on the sampled states
    assert len(rows) == 2 and all(0 < r.successes < r.n for r in rows)
    assert rows == run_campaign(policy, cert, campaign)


def test_rollout_stops_on_goal_and_unsafe_entry():
    env = halving_env_1d()
    policy = Mlp([np.zeros((1, 1))], [np.zeros(1)])
    cert = FilteredCertificate(Mlp([np.zeros((1, 1))], [np.zeros(1)]),
                               ClbfParams(), env)
    # 0.3 -> 0.15 lies in the goal; 1.8 -> 0.9 in the unsafe set;
    # -4 halves towards 0 from below and never enters either set
    X0 = np.array([[0.3], [1.8], [-4.0]])
    outcomes, steps = rollout_batch(policy, cert, X0, "random", 0.0, 5,
                                    np.random.default_rng(0))
    assert outcomes.tolist() == [OUTCOME_GOAL, OUTCOME_UNSAFE, OUTCOME_TIMEOUT]
    assert steps.tolist() == [1, 1, 5]


@pytest.mark.parametrize("hidden_bias, scale, x0, outcome, step", [
    # V = 0.5 relu(x - 1): the ball [0.99, 1.05] around 1.02 reaches the
    # unsafe set [0.25, 1], so the adversary ends the rollout at step 1
    (-1.0, 0.5, 2.04, OUTCOME_UNSAFE, 1),
    # V = relu(x): raw PGD would push -0.01 to 0.02 in the goal [0, 0.2],
    # where the filtered value is the low goal mask, so the center stays
    (0.0, 1.0, -0.02, OUTCOME_TIMEOUT, 6),
])
def test_adversarial_rollout_takes_the_filtered_ball_max(hidden_bias, scale, x0,
                                                         outcome, step):
    env = halving_env_1d()
    policy = Mlp([np.zeros((1, 1))], [np.zeros(1)])
    net = Mlp([np.array([[1.0]]), np.array([[scale]])],
              [np.array([hidden_bias]), np.zeros(1)])
    cert = FilteredCertificate(net, ClbfParams(), env)
    outcomes, steps = rollout_batch(policy, cert, np.array([[x0]]), "adversarial",
                                    0.03, 6, np.random.default_rng(0))
    assert outcomes.tolist() == [outcome] and steps.tolist() == [step]


def test_campaign_pgd_settings_reach_the_adversary(pendulum, monkeypatch):
    cert = small_cert(pendulum, seed=2)
    policy = small_policy(pendulum, seed=3)
    seen = []

    def recording(net, centers, cfg, rng=None, active=None):
        seen.append(cfg)
        return centers.copy()

    monkeypatch.setattr(clbf.verifier, "pgd_maximize_batch", recording)
    campaign = Campaign(n_states=4, horizon=2, seed=0,
                        modes=[("adversarial", 0.02)],
                        pgd=PgdConfig(steps=1, restarts=1))
    run_campaign(policy, cert, campaign)
    assert seen and all(
        cfg == PgdConfig(steps=1, delta=0.02, restarts=1)
        for cfg in seen)


BAD_CAMPAIGNS = [
    dict(n_states=0), dict(n_states=2.5), dict(horizon=0), dict(horizon=-1),
    dict(modes=[("random", -0.05)]), dict(modes=[("random", np.nan)]),
    dict(modes=[("adversarial", np.inf)]), dict(pgd=PgdConfig(steps=0)),
    # a good mode first: the bad one must still raise before any rollout
    dict(modes=[("adversarial", 0.01), ("nope", 0.01)]),
]


@pytest.mark.parametrize("setting", BAD_CAMPAIGNS, ids=repr)
def test_campaign_rejects_a_bad_setting_before_any_rollout(setting, pendulum, monkeypatch):
    def never(*args, **kw):
        pytest.fail("the campaign ran on an invalid setting")

    monkeypatch.setattr(clbf.evaluate, "sample_initial_states", never)
    monkeypatch.setattr(clbf.evaluate, "rollout_batch", never)
    campaign = Campaign(**{**dict(n_states=8, horizon=4), **setting})
    with pytest.raises(ValueError):
        run_campaign(small_policy(pendulum), small_cert(pendulum), campaign)


@pytest.mark.parametrize("delta", [-0.05, np.nan, np.inf])
def test_rollout_rejects_a_bad_delta(delta, pendulum):
    # a bad delta must not run nominally under its own label
    with pytest.raises(ValueError, match="delta"):
        rollout_batch(small_policy(pendulum), small_cert(pendulum), np.zeros((2, 2)),
                      "random", delta, 4, np.random.default_rng(0))
