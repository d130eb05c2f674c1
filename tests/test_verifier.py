import numpy as np
import pytest

from clbf.boxes import Box
from clbf.certificate import ClbfParams, FilteredCertificate
from clbf.envs import EnvSpec
from clbf.nets import Mlp, forward_batch, ibp_bounds, init_mlp
from clbf.verifier import (
    BnbConfig,
    bisect_largest_passing,
    certify_delta,
    check_init,
    check_robust_decrease,
    check_safety,
    ibp_policy_bounds,
)

from conftest import small_cert, small_policy


def constant_net(value, n_in=2):
    return Mlp([np.zeros((1, n_in))], [np.array([float(value)])])


def abs_net():
    """v(x) = |x| on 1-d states, encoded with a ReLU pair."""
    return Mlp([np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0]])],
               [np.zeros(2), np.zeros(1)])


def synth_env_1d(lo=0.5, hi=1.0):
    """f(x, u) = 0.5 x on the box [lo, hi]; no goal or unsafe set."""
    domain = Box(np.array([lo]), np.array([hi]))
    control = Box(np.array([-1.0]), np.array([1.0]))

    def step(X, U):
        return 0.5 * np.atleast_2d(np.asarray(X, dtype=float))

    def step_jac(X, U):
        k = np.atleast_2d(X).shape[0]
        return np.full((k, 1, 1), 0.5), np.zeros((k, 1, 1))

    def step_interval_arrays(x_lo, x_hi, u_lo, u_hi):
        return 0.5 * x_lo, 0.5 * x_hi

    return EnvSpec(
        name="synth1d", state_dim=1, control_dim=1,
        domain=domain, control_box=control,
        init_boxes=[domain], goal_boxes=[], unsafe_boxes=[],
        constants={}, step=step, step_jac=step_jac,
        step_interval_arrays=step_interval_arrays,
    )


def zero_policy(n_in=1, n_out=1):
    return Mlp([np.zeros((n_out, n_in))], [np.zeros(n_out)])


# ---------------------------------------------------------------------------
# check_init


def test_check_init_constant_pass(pendulum):
    cert = FilteredCertificate(constant_net(0.5), ClbfParams(), pendulum)
    v = check_init(cert, pendulum)
    assert v.proved and v.boxes_processed == 1


def test_check_init_constant_counterexample(pendulum):
    cert = FilteredCertificate(constant_net(1.5), ClbfParams(), pendulum)
    v = check_init(cert, pendulum)
    assert v.status == "counterexample"
    w = v.witness
    assert w.condition == "init"
    assert cert.value(w.state[None])[0] - cert.params.beta >= 1e-9
    assert pendulum.in_init(w.state[None])[0]


def test_check_init_sliver_matches_grid_oracle(pendulum):
    # raw value beta + margin * relu(theta - t0): above beta only on a sliver
    t0, slope = 0.22, 50.0
    net = Mlp(
        [np.array([[1.0, 0.0]]), np.array([[slope]])],
        [np.array([-t0]), np.array([1.0 - 1e-6])],
    )
    cert = FilteredCertificate(net, ClbfParams(), pendulum)
    v = check_init(cert, pendulum, BnbConfig(max_boxes=200_000))
    g = np.linspace(-0.3, 0.3, 201)
    GX, GY = np.meshgrid(g, g)
    grid = np.stack([GX.ravel(), GY.ravel()], axis=1)
    grid_violates = np.any(cert.value(grid) > cert.params.beta)
    assert grid_violates == (v.status == "counterexample")


def test_check_init_budget_exhaustion_is_unknown(pendulum):
    t0 = 0.29999
    net = Mlp(
        [np.array([[1.0, 0.0]]), np.array([[50.0]])],
        [np.array([-t0]), np.array([1.0])],
    )
    cert = FilteredCertificate(net, ClbfParams(), pendulum)
    v = check_init(cert, pendulum, BnbConfig(max_boxes=2, ce_limit=1, chunk=1))
    assert v.status in ("unknown", "counterexample")
    if v.status == "unknown":
        assert v.unknown_boxes and v.unknown_volume_fraction > 0


# ---------------------------------------------------------------------------
# check_safety


def test_check_safety_by_construction(pendulum):
    cert = small_cert(pendulum)
    v = check_safety(cert, pendulum)
    assert v.proved


def test_check_safety_rejects_low_mask(pendulum):
    params = ClbfParams(unsafe_mask=1.0)  # below alpha; caught as a verdict
    cert = FilteredCertificate(constant_net(0.0), params, pendulum)
    v = check_safety(cert, pendulum)
    assert v.status == "counterexample"
    assert v.witness.condition == "safety"


def test_unsafe_points_evaluate_to_mask(pendulum, rng):
    cert = small_cert(pendulum)
    pts = np.concatenate([b.sample(rng, 100) for b in pendulum.unsafe_boxes])
    assert np.all(cert.value(pts) == 1.2)


# ---------------------------------------------------------------------------
# ibp_policy_bounds


def test_policy_bounds_relu_example():
    net = Mlp([np.array([[1.0, -1.0]]), np.array([[1.0]])],
               [np.zeros(1), np.zeros(1)])
    B = Box(np.zeros(2), np.ones(2))
    lo, hi = ibp_policy_bounds(net, B.lo, B.hi)
    assert lo[0] == pytest.approx(0.0) and hi[0] == pytest.approx(1.0)


def test_policy_bounds_degenerate_box(rng):
    net = init_mlp([2, 8, 1], rng)
    x = rng.uniform(-1, 1, 2)
    lo, hi = ibp_policy_bounds(net, x, x)
    y = forward_batch(net, x[None])[0]
    assert np.allclose(lo, y) and np.allclose(hi, y)


def test_policy_bounds_sound_and_clamped(pendulum, rng):
    net = init_mlp([2, 16, 8, 1], rng)
    for _ in range(20):
        c = rng.uniform(-0.5, 0.5, 2)
        r = rng.uniform(0.01, 0.3, 2)
        B = Box(c - r, c + r)
        lo, hi = ibp_policy_bounds(net, B.lo, B.hi, pendulum.control_box)
        pts = B.sample(rng, 500)
        u = np.clip(forward_batch(net, pts), -1, 1)
        assert np.all(u >= lo - 1e-12) and np.all(u <= hi + 1e-12)
        assert np.all(lo >= -1) and np.all(hi <= 1)


# ---------------------------------------------------------------------------
# robust decrease


def test_decrease_proved_on_synthetic_contraction():
    env = synth_env_1d()
    cert = FilteredCertificate(abs_net(), ClbfParams(epsilon=0.1), env)
    v = check_robust_decrease(cert, zero_policy(), env, delta=0.1, epsilon=0.1)
    assert v.proved


def test_decrease_counterexample_on_sign_flipped_certificate():
    env = synth_env_1d()
    net = abs_net()
    net.weights[-1] = -net.weights[-1]  # v(x) = -|x| now increases along flow
    cert = FilteredCertificate(net, ClbfParams(epsilon=0.1), env)
    v = check_robust_decrease(cert, zero_policy(), env, delta=0.0, epsilon=0.1)
    assert v.status == "counterexample"
    w = v.witness
    # witness contract: exact re-evaluation shows the violation
    x = w.state[None]
    nxt = env.step(x, np.zeros((1, 1)))
    assert np.abs(w.ball_point - nxt[0]).max() <= 1e-12
    measured = 0.1 - (cert.value(x)[0] - cert.value(w.ball_point[None])[0])
    assert measured >= 1e-9
    assert measured == pytest.approx(w.violation)


def test_decrease_unknown_on_budget(pendulum):
    cert = small_cert(pendulum, seed=2)
    policy = small_policy(pendulum, seed=3)
    v = check_robust_decrease(cert, policy, pendulum, 0.0, 5e-3,
                              BnbConfig(max_boxes=3, chunk=1, outer_pgd_steps=0,
                                        inner_pgd=__import__("clbf.adversary", fromlist=["PgdConfig"]).PgdConfig(steps=1, restarts=1)))
    assert v.status in ("unknown", "counterexample")


def test_decrease_random_certificate_yields_valid_counterexample(pendulum):
    cert = small_cert(pendulum, seed=9)
    policy = small_policy(pendulum, seed=10)
    v = check_robust_decrease(cert, policy, pendulum, 0.0, 5e-3,
                              BnbConfig(max_boxes=50_000))
    # an untrained certificate essentially never satisfies the condition
    assert v.status == "counterexample"
    w = v.witness
    assert not pendulum.in_goal(w.state[None])[0]
    assert cert.value(w.state[None])[0] <= cert.params.beta


def test_decrease_delta_ball_touching_unsafe_is_refuted(pendulum):
    # certificate constant 0.9 (eligible everywhere, no descent at all)
    cert = FilteredCertificate(constant_net(0.9), ClbfParams(), pendulum)
    policy = zero_policy(2, 1)
    v = check_robust_decrease(cert, policy, pendulum, 0.05, 1e-6,
                              BnbConfig(max_boxes=20_000))
    assert v.status == "counterexample"


def test_refinement_monotone_proved_never_flips(pendulum):
    env = synth_env_1d()
    cert = FilteredCertificate(abs_net(), ClbfParams(epsilon=0.1), env)
    for budget in (10, 100, 1000):
        v = check_robust_decrease(cert, zero_policy(), env, 0.1, 0.1,
                                  BnbConfig(max_boxes=budget))
        assert v.status in ("proved", "unknown")


def test_proved_boxes_sound_by_sampling(rng):
    env = synth_env_1d()
    cert = FilteredCertificate(abs_net(), ClbfParams(epsilon=0.1), env)
    delta, eps = 0.1, 0.1
    v = check_robust_decrease(cert, zero_policy(), env, delta, eps)
    assert v.proved
    X = env.domain.sample(rng, 1000)
    nxt = env.step(X, np.zeros((1000, 1)))
    ball = nxt + rng.uniform(-delta, delta, (1000, 1))
    viol = eps - (cert.value(X) - cert.value(ball))
    assert np.all(viol <= 1e-9)


# ---------------------------------------------------------------------------
# bisection / certify_delta


def test_bisection_reference_case():
    passes = lambda d: d <= 0.0123
    best, _ = bisect_largest_passing(passes, 0.0, 0.1, 1e-4)
    assert 0.0122 <= best <= 0.0123


def test_bisection_against_stub_thresholds(rng):
    for _ in range(100):
        thresh = rng.uniform(1e-3, 0.099)
        best, hist = bisect_largest_passing(lambda d: d <= thresh, 0.0, 0.1, 1e-4)
        assert thresh - 1e-4 < best <= thresh
        # never exceeds any delta that failed
        fails = [d for d, ok in hist if not ok]
        assert all(best <= d for d in fails)


def test_bisection_degenerate_cases():
    best, _ = bisect_largest_passing(lambda d: False, 0.0, 0.1)
    assert best is None
    best, _ = bisect_largest_passing(lambda d: True, 0.0, 0.1)
    assert best == 0.1


def test_certify_delta_on_synthetic_contraction():
    env = synth_env_1d()
    cert = FilteredCertificate(abs_net(), ClbfParams(epsilon=0.1), env)
    # v(x) - max ball v = 0.5 x - delta >= 1e-6; at x=0.5 passes iff
    # delta <= 0.25 - 1e-6, capped by delta_hi
    delta, info = certify_delta(cert, zero_policy(), env, delta_hi=0.3,
                                epsilon=1e-6)
    assert 0.2499 <= delta <= 0.25


def test_certify_delta_requires_preconditions(pendulum):
    cert = FilteredCertificate(constant_net(1.5), ClbfParams(), pendulum)
    policy = small_policy(pendulum)
    delta, info = certify_delta(cert, policy, pendulum)
    assert delta == 0.0 and "precondition" in info["reason"]
