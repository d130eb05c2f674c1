from dataclasses import replace

import numpy as np
import pytest

import clbf.adversary
import clbf.losses
import clbf.verifier
from clbf.adversary import PgdConfig, pgd_maximize_batch
from clbf.certificate import ClbfParams, FilteredCertificate, filtered_upper_bound
from clbf.losses import (
    Batch,
    LossWeights,
    TotalLossConfig,
    loss_dec_grads,
    loss_init_grads,
    loss_lip_global_grads,
    total_loss_grads,
)
from clbf.boxes import Box
from clbf.envs import EnvSpec, make_env, pendulum_env
from clbf.nets import (Mlp, backward, forward_batch, forward_tape, init_mlp,
                       linf_lipschitz_bound, scalar_value, value_and_input_grad, zero_grads)
from clbf.verifier import _exact_violation

from conftest import (DyadicStarts, fd_param_grads, halving_env_1d, rel_err, small_cert,
                      small_policy)


def const_cert(env, values_net):
    return FilteredCertificate(values_net, ClbfParams(), env)


def affine_scalar_net(w, b=0.0):
    return Mlp([np.asarray(w, dtype=float)[None, :]], [np.array([float(b)])])


def loss_cfg(method="vanilla", delta=0.0, pgd_cfg=None, spectral_iters=50):
    return TotalLossConfig(method, LossWeights(), delta, pgd_cfg, spectral_iters)


def dec_loss(cert, policy, batch, method="vanilla", delta=0.0, pgd_cfg=None,
             rng=None, **cfg_kwargs):
    """loss_dec_grads under loss_cfg(method, delta, pgd_cfg, ...)."""
    cfg = loss_cfg(method, delta, pgd_cfg, **cfg_kwargs)
    return loss_dec_grads(cfg, cert, policy, batch, rng)


def fixed_lipschitz_bound(monkeypatch, L):
    """Make lip-neighbor's Lipschitz bound the constant L, with no gradient."""
    def fixed(net, iters=50, vs=None):
        return L, zero_grads(net), vs

    monkeypatch.setattr(clbf.losses, "linf_lipschitz_bound", fixed)


# ---------------------------------------------------------------------------
# loss_init


def test_loss_init_hand_values(pendulum):
    # nets that output a constant via zero weights and a bias
    for vals, want in (((0.5, 1.0), 0.0), ((1.5,), 0.5), ((0.5, 1.5, 1.2), 0.7)):
        net = affine_scalar_net([0.0, 0.0], 0.0)
        cert = const_cert(pendulum, net)
        # one state per target value; bias trick cannot produce mixed values,
        # so use a linear net reading the first coordinate instead
        w = np.array([1.0, 0.0])
        cert.net.weights[0] = w[None, :]
        states = np.array([[v, 0.0] for v in vals])
        assert loss_init_grads(loss_cfg(), cert, Batch(states))[0] == pytest.approx(want)


def test_loss_init_gradients_match_fd(pendulum, rng):
    cert = small_cert(pendulum, seed=11, dims=(8, 6))
    # push some values above beta so the hinge is active for part of the batch
    cert.net.biases[-1][0] += 1.0
    X = rng.uniform(-0.3, 0.3, (6, 2))

    def f():
        return loss_init_grads(loss_cfg(), cert, Batch(X))[0]

    val, cg = loss_init_grads(loss_cfg(), cert, Batch(X))
    assert val == pytest.approx(f())
    assert rel_err(cg, fd_param_grads(f, cert.net.params())) < 1e-4


# ---------------------------------------------------------------------------
# loss_dec and friends, hand-checkable cases


def tiny_env_1d():
    """1-d synthetic system f(x, u) = 0.5 x for hand-checkable descent, with
    no goal or unsafe set."""
    def step_jac(X, U):
        k = np.atleast_2d(X).shape[0]
        return np.full((k, 1, 1), 0.5), np.zeros((k, 1, 1))

    domain = Box(np.array([-4.0]), np.array([4.0]))
    return EnvSpec(
        name="tiny1d", state_dim=1, control_dim=1,
        domain=domain, control_box=Box(np.array([-1.0]), np.array([1.0])),
        init_boxes=[domain], goal_boxes=[], unsafe_boxes=[], constants={},
        step=lambda X, U: 0.5 * np.atleast_2d(X), step_jac=step_jac,
        step_interval_arrays=None,
    )


def test_loss_dec_hand_cases():
    env = tiny_env_1d()
    params = ClbfParams(epsilon=0.01)
    # net v(t) = a t + b on 1-d states
    for vx, vnext, want in ((1.0, 0.98, 0.0), (1.0, 0.995, 0.005)):
        x = 1.0
        a = 2 * (vx - vnext) / x
        b = vx - a * x
        cert = FilteredCertificate(affine_scalar_net([a], b), params, env)
        batch = Batch(np.array([[x]]))
        policy = affine_scalar_net([0.0], 0.0)
        assert dec_loss(cert, policy, batch)[0] == pytest.approx(want, abs=1e-12)


def test_loss_dec_precondition_filter():
    env = tiny_env_1d()
    params = ClbfParams(epsilon=0.01)
    # v(x) = 1.3 > beta at x, so the state is excluded even though the value rises
    cert = FilteredCertificate(affine_scalar_net([0.0], 1.3), params, env)
    policy = affine_scalar_net([0.0], 0.0)
    assert dec_loss(cert, policy, Batch(np.array([[1.0]])))[0] == 0.0


def test_loss_dec_neighbor_hand_cases(monkeypatch):
    env = tiny_env_1d()
    params = ClbfParams(epsilon=0.01)
    x = 1.0
    for vx, vnext, L, delta, want in (
        (1.0, 0.9, 2.0, 0.01, 0.0),
        (1.0, 0.9, 2.0, 0.05, 0.01),
    ):
        a = 2 * (vx - vnext) / x
        b = vx - a * x
        cert = FilteredCertificate(affine_scalar_net([a], b), params, env)
        policy = affine_scalar_net([0.0], 0.0)
        fixed_lipschitz_bound(monkeypatch, L)
        got = dec_loss(cert, policy, Batch(np.array([[x]])), "lip-neighbor",
                       delta=delta)[0]
        assert got == pytest.approx(want, abs=1e-12)


def test_loss_dec_neighbor_delta_zero_equals_dec(pendulum, rng):
    cert = small_cert(pendulum, seed=5)
    policy = small_policy(pendulum, seed=6)
    batch = Batch(pendulum.sample_states(rng, 64))
    got = dec_loss(cert, policy, batch, "lip-neighbor", delta=0.0)[0]
    assert got == pytest.approx(dec_loss(cert, policy, batch)[0])


def test_loss_dec_adv_delta_zero_equals_dec(pendulum, rng):
    cert = small_cert(pendulum, seed=5)
    policy = small_policy(pendulum, seed=6)
    batch = Batch(pendulum.sample_states(rng, 64))
    got = dec_loss(cert, policy, batch, "pgd", delta=0.0,
                   pgd_cfg=PgdConfig(delta=0.0))[0]
    assert got == pytest.approx(dec_loss(cert, policy, batch)[0])


def linear_corner_case_loss(epsilon):
    # v(t) = t: center value 0.5, ball max at 0.5 + delta
    env = tiny_env_1d()
    cert = FilteredCertificate(affine_scalar_net([1.0], 0.0),
                               ClbfParams(epsilon=epsilon), env)
    policy = affine_scalar_net([0.0], 0.0)
    delta = 0.1
    return dec_loss(cert, policy, Batch(np.array([[1.0]])), "pgd",
                    delta=delta, pgd_cfg=PgdConfig(delta=delta))[0]


def test_loss_dec_adv_linear_corner_case():
    # V(x)=1, worst next value = 0.5 + 0.1, residual = eps - (1 - 0.6)
    assert linear_corner_case_loss(0.01) == pytest.approx(
        max(0.0, 0.01 - (1.0 - 0.6)), abs=1e-9)


def test_loss_dec_adv_linear_corner_case_active_hinge():
    # at eps 0.5 the hinge is positive in the ball, so PGD runs and must
    # reach the ball's corner 0.6: 0.5 - (1 - 0.6)
    assert linear_corner_case_loss(0.5) == pytest.approx(0.1, abs=1e-9)


def test_loss_dec_adv_dominates_dec(pendulum, rng):
    for seed in range(10):
        cert = small_cert(pendulum, seed=seed)
        policy = small_policy(pendulum, seed=seed + 100)
        batch = Batch(pendulum.sample_states(rng, 64))
        adv = dec_loss(
            cert, policy, batch, "pgd", delta=0.01,
            pgd_cfg=PgdConfig(delta=0.01), rng=np.random.default_rng(0),
        )[0]
        assert adv >= dec_loss(cert, policy, batch)[0] - 1e-12


def test_loss_dec_adv_nondecreasing_in_delta(pendulum, rng):
    cert = small_cert(pendulum, seed=3)
    policy = small_policy(pendulum, seed=4)
    batch = Batch(pendulum.sample_states(rng, 64))
    prev = -1.0
    for delta in (0.0, 0.002, 0.005, 0.01, 0.02):
        got = dec_loss(
            cert, policy, batch, "pgd", delta=delta,
            pgd_cfg=PgdConfig(delta=delta), rng=np.random.default_rng(0),
        )[0]
        assert got >= prev - 1e-9
        prev = got


def test_loss_dec_rejects_mismatched_pgd_radius(pendulum, rng):
    cert = small_cert(pendulum, seed=3)
    policy = small_policy(pendulum, seed=4)
    batch = Batch(pendulum.sample_states(rng, 8))
    cfg = PgdConfig(delta=0.01)
    with pytest.raises(ValueError, match="delta"):
        dec_loss(cert, policy, batch, "pgd", pgd_cfg=cfg)
    with pytest.raises(ValueError, match="delta"):
        dec_loss(cert, policy, batch, "pgd", delta=0.02, pgd_cfg=cfg)


# ---------------------------------------------------------------------------
# the interval screen: PGD only where the descent hinge can be positive


def recorded_gradient_passes(monkeypatch):
    """The iterates of every value_and_input_grad pass PGD makes."""
    passes = []

    def recorded(net, x):
        passes.append(x.copy())
        return value_and_input_grad(net, x)

    monkeypatch.setattr(clbf.adversary, "value_and_input_grad", recorded)
    return passes


def test_loss_dec_adv_skips_screened_and_ineligible_rows(monkeypatch):
    # v(t) = t and x' = x / 2, so the ball's bound is x / 2 + delta and the
    # hinge eps - (x - x / 2 - delta) can be positive only for x <= 0.6
    env = tiny_env_1d()
    cert = FilteredCertificate(affine_scalar_net([1.0], 0.0),
                               ClbfParams(epsilon=0.2), env)
    policy = affine_scalar_net([0.0], 0.0)
    delta = 0.1
    cfg = PgdConfig(delta=delta, restarts=1)

    def loss(X):
        return dec_loss(cert, policy, Batch(np.array(X)), "pgd",
                        delta=delta, pgd_cfg=cfg)[0]

    # 1.0 is screened out, 2.0 is ineligible (V above beta)
    passes = recorded_gradient_passes(monkeypatch)
    assert loss([[1.0], [2.0]]) == 0.0
    assert passes == []
    # only 0.5 ascends, inside its ball around 0.25, to the corner 0.35
    assert loss([[1.0], [0.5], [2.0]]) == pytest.approx(0.2 - (0.5 - 0.35))
    assert passes and all(x.shape == (1, 1) for x in passes)
    assert all(abs(x[0, 0] - 0.25) <= delta + 1e-15 for x in passes)


def test_loss_dec_adv_gradient_rows_are_the_unscreened_rows(pendulum, rng,
                                                            monkeypatch):
    cert = small_cert(pendulum, seed=3)
    cert.net.biases[-1][0] += 1.1  # puts about half the batch above beta
    policy = small_policy(pendulum, seed=4)
    X = pendulum.sample_states(rng, 256)
    cfg = PgdConfig(delta=0.02, steps=10, restarts=2)
    # the screen from its definition
    p = cert.params
    V_x = scalar_value(cert.net, X)
    eligible = (V_x <= p.beta) & ~pendulum.in_goal(X)
    nxt = pendulum.step(X, forward_batch(policy, X))
    ub = filtered_upper_bound(cert, nxt - cfg.delta, nxt + cfg.delta)
    may_fail = eligible & (p.epsilon - (V_x - ub) >= 0)
    assert 0 < may_fail.sum() < eligible.sum() < len(X)

    passes = recorded_gradient_passes(monkeypatch)
    pgd_maximize_batch(cert.net, nxt, cfg, np.random.default_rng(5), may_fail)
    want = sum(len(x) for x in passes)
    passes.clear()
    dec_loss(cert, policy, Batch(X), "pgd", delta=cfg.delta,
             pgd_cfg=cfg, rng=np.random.default_rng(5))
    assert sum(len(x) for x in passes) == want > 0


def exact_env_2d():
    """x' = x / 2 + (0, u / 4), no goal or unsafe set: dyadic states stay
    dyadic, so with small-integer weights every sum of the loss is exact.
    The step does not clamp the control."""
    def step(X, U):
        Y = 0.5 * np.atleast_2d(X)
        Y[:, 1] += 0.25 * U[:, 0]
        return Y

    def step_jac(X, U):
        k = np.atleast_2d(X).shape[0]
        return (np.tile(0.5 * np.eye(2), (k, 1, 1)),
                np.tile(np.array([[0.0], [0.25]]), (k, 1, 1)))

    domain = Box(np.full(2, -2.0), np.full(2, 2.0))
    return EnvSpec(
        name="exact2d", state_dim=2, control_dim=1,
        domain=domain, control_box=Box(np.array([-np.inf]), np.array([np.inf])),
        init_boxes=[domain], goal_boxes=[], unsafe_boxes=[], constants={},
        step=step, step_jac=step_jac, step_interval_arrays=None,
    )


def exact_adv_case():
    """Integer-weight nets and states on a 1/8 grid: with a delta of 1/4,
    no BLAS blocking of a PGD batch can change a bit of the loss or its
    gradients. At that delta the batch mixes ineligible rows, screened rows
    and rows whose hinge PGD raises, two of them from zero."""
    rng = np.random.default_rng(9)

    def int_net(dims):
        return Mlp([rng.integers(-3, 4, (m, n)).astype(float)
                    for n, m in zip(dims, dims[1:])],
                   [rng.integers(-4, 5, m) / 4.0 for m in dims[1:]])

    cert_net, policy = int_net([2, 16, 8, 1]), int_net([2, 4, 1])
    X = rng.integers(-8, 9, (64, 2)) / 8.0
    cert_net.biases[-1] += 1.0 - np.median(scalar_value(cert_net, X))
    cert = FilteredCertificate(cert_net, ClbfParams(epsilon=0.125), exact_env_2d())
    is_ce = np.arange(64) % 5 == 0
    return cert, policy, Batch(X, is_ce)


def test_loss_dec_adv_screen_matches_pgd_on_every_row_bit_for_bit(monkeypatch):
    cert, policy, batch = exact_adv_case()
    cfg = PgdConfig(steps=12, delta=1 / 4, restarts=3)
    masks = []

    def screened(net, centers, cfg, rng=None, active=None):
        masks.append(active)
        return pgd_maximize_batch(net, centers, cfg, rng, active)

    def every_row(cert, eligible, *args):
        return np.ones(len(eligible), dtype=bool)

    def run(method="pgd"):
        return dec_loss(cert, policy, batch, method, delta=cfg.delta, pgd_cfg=cfg,
                        rng=DyadicStarts(9))

    monkeypatch.setattr(clbf.losses, "CE_WEIGHT", 4.0)
    monkeypatch.setattr(clbf.verifier, "pgd_maximize_batch", screened)
    got = run()
    monkeypatch.setattr(clbf.losses, "decrease_may_fail", every_row)
    want = run()

    # the batch has screened and unscreened eligible rows, and PGD matters
    active, searched = masks
    assert np.all(searched)
    eligible = scalar_value(cert.net, batch.states) <= cert.params.beta
    assert active is not None and not np.any(active & ~eligible)
    assert 0 < active.sum() < eligible.sum() < len(eligible)
    assert got[0] == want[0] > run("vanilla")[0]
    for g, w in zip(got[1] + got[2], want[1] + want[2]):
        assert np.array_equal(g, w)


# ---------------------------------------------------------------------------
# the ball's worst point is the verifier's: verifier.ball_max


def test_loss_dec_adv_sees_the_unsafe_reach_of_the_ball():
    # x' = x / 2 + u / 4 with u = 0, unsafe set [0.25, 1], V = 0.5 relu(x - 1):
    # V(2.04) = 0.52 <= beta, and the ball [0.99, 1.05] around 1.02 reaches
    # the unsafe set, where the filtered value is unsafe_mask
    env = replace(halving_env_1d(), step=lambda X, U: 0.5 * X + 0.25 * U,
                  step_jac=lambda X, U: (np.full((len(X), 1, 1), 0.5),
                                         np.full((len(X), 1, 1), 0.25)))
    net = Mlp([np.array([[1.0]]), np.array([[0.5]])], [np.array([-1.0]), np.zeros(1)])
    cert = FilteredCertificate(net, ClbfParams(), env)
    policy = Mlp([np.zeros((1, 1))], [np.zeros(1)])
    x = np.array([[2.04]])
    delta = 0.03
    val, cg, pg, _ = dec_loss(cert, policy, Batch(x), "pgd", delta=delta,
                              pgd_cfg=PgdConfig(delta=delta))
    p = cert.params
    assert val == pytest.approx(p.epsilon - (0.52 - p.unsafe_mask), abs=1e-12)
    assert val == pytest.approx(0.685, abs=1e-12)
    # the masked ball point passes no gradient: the policy gets none, and
    # the certificate only that of -V(x)
    assert all(not np.any(g) for g in pg)
    want = backward(net, forward_tape(net, x), -np.ones((1, 1)))[0]
    for g, w in zip(cg, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("env_name, delta", [("pendulum", 0.02), ("docking2d", 0.05)])
def test_loss_dec_adv_equals_the_verifiers_exact_violation(env_name, delta, monkeypatch):
    env = make_env(env_name)
    # a wide margin, so that PGD points outside the unsafe set count too
    cert = FilteredCertificate(small_cert(env, seed=3).net, ClbfParams(epsilon=0.2), env)
    policy = small_policy(env, seed=4)
    X = env.sample_states(np.random.default_rng(0), 4000)
    nxt = env.step(X, forward_batch(policy, X))
    reach = env.unsafe_intersects(nxt - delta, nxt + delta)
    # 32 states whose balls reach the unsafe corners, 32 whose balls do not
    X = np.concatenate([X[reach][:32], X[~reach][:32]])
    cert.net.biases[-1][0] += cert.params.beta - np.median(cert.raw(X))
    nxt = env.step(X, forward_batch(policy, X))
    cfg = PgdConfig(steps=10, delta=delta, restarts=2)
    monkeypatch.setattr(clbf.verifier, "INNER_PGD", cfg)  # the same search on both sides

    got = dec_loss(cert, policy, Batch(X), "pgd", delta=delta, pgd_cfg=cfg,
                   rng=np.random.default_rng(7))[0]
    viol, ball_pts, _ = _exact_violation(cert, X, nxt, cert.raw(X), cert.value(nxt),
                                         delta, cert.params.epsilon,
                                         np.random.default_rng(7))
    # rows realized in the unsafe set, and rows realized by PGD, both count
    counted, unsafe = viol > 0, env.in_unsafe(ball_pts)
    assert np.any(counted & unsafe)
    assert np.any(counted & ~unsafe & np.any(ball_pts != nxt, axis=1))
    assert abs(got - np.maximum(0.0, viol).sum()) <= 1e-12


# ---------------------------------------------------------------------------
# loss_lip_global


def test_loss_lip_global_hand_cases():
    net = Mlp([2 * np.eye(2), 3 * np.eye(2)], [np.zeros(2), np.zeros(2)])
    assert loss_lip_global_grads(net, 10.0)[0] == pytest.approx(0.0)
    assert loss_lip_global_grads(net, 4.0)[0] == pytest.approx(2.0)
    assert loss_lip_global_grads(net, 6.0)[0] == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        loss_lip_global_grads(net, 0.0)


# ---------------------------------------------------------------------------
# gradient checks vs central finite differences


def _randomize_biases(net, rng, scale=0.05):
    # generic biases keep pre-activations away from the exact ReLU kink,
    # where finite differences and the chosen subgradient disagree
    for b in net.biases:
        b += rng.uniform(-scale, scale, b.shape)


def _dec_fd_setup(env, rng, seed):
    cert = small_cert(env, seed=seed, dims=(8, 6))
    policy = small_policy(env, seed=seed + 50, dims=(6,))
    _randomize_biases(cert.net, rng)
    _randomize_biases(policy, rng)
    states = env.sample_states(rng, 6)
    return cert, policy, Batch(states)


def test_loss_dec_gradients_match_fd(pendulum, rng):
    cert, policy, batch = _dec_fd_setup(pendulum, rng, 21)

    def f():
        return dec_loss(cert, policy, batch)[0]

    val, cg, pg, _ = dec_loss(cert, policy, batch)
    assert val == pytest.approx(f())
    assert val > 0  # hinge active somewhere, otherwise the check is vacuous
    assert rel_err(cg, fd_param_grads(f, cert.net.params())) < 1e-4
    assert rel_err(pg, fd_param_grads(f, policy.params())) < 1e-4


def test_loss_dec_adv_gradients_match_fd(pendulum, rng):
    cert, policy, batch = _dec_fd_setup(pendulum, rng, 31)
    cfg = PgdConfig(delta=0.01, steps=10, restarts=2)

    def f():
        return dec_loss(cert, policy, batch, "pgd", delta=cfg.delta,
                        pgd_cfg=cfg, rng=np.random.default_rng(5))[0]

    val, cg, pg, _ = dec_loss(
        cert, policy, batch, "pgd", delta=cfg.delta, pgd_cfg=cfg,
        rng=np.random.default_rng(5),
    )
    assert val == pytest.approx(f())
    assert val > 0
    assert rel_err(cg, fd_param_grads(f, cert.net.params())) < 1e-4
    assert rel_err(pg, fd_param_grads(f, policy.params())) < 1e-4


def test_loss_dec_neighbor_gradients_match_fd(pendulum, rng):
    cert, policy, batch = _dec_fd_setup(pendulum, rng, 41)
    delta = 0.01

    def f():
        return dec_loss(cert, policy, batch, "lip-neighbor", delta=delta,
                        spectral_iters=300)[0]

    val, cg, pg, _ = dec_loss(cert, policy, batch, "lip-neighbor",
                              delta=delta, spectral_iters=300)
    assert val == pytest.approx(f())
    assert val > 0
    assert rel_err(cg, fd_param_grads(f, cert.net.params())) < 1e-4
    assert rel_err(pg, fd_param_grads(f, policy.params())) < 1e-4


def test_loss_lip_global_gradients_match_fd(rng):
    net = init_mlp([2, 8, 6, 1], rng)

    def f():
        return loss_lip_global_grads(net, 0.5, iters=300)[0]

    val, cg, _ = loss_lip_global_grads(net, 0.5, iters=300)
    assert val == pytest.approx(f())
    assert val > 0
    assert rel_err(cg, fd_param_grads(f, net.params())) < 1e-4


# ---------------------------------------------------------------------------
# theorem: zero neighbor loss implies the robust condition on the batch


def test_zero_neighbor_loss_implies_ball_descent(rng, monkeypatch):
    env = tiny_env_1d()
    params = ClbfParams(epsilon=0.01)
    # v(t) = |t| via a relu pair; true decrease v(x) - v(x/2) = |x| / 2
    net = Mlp(
        [np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0]])],
        [np.zeros(2), np.zeros(1)],
    )
    cert = FilteredCertificate(net, params, env)
    policy = affine_scalar_net([0.0], 0.0)
    X = rng.uniform(0.3, 1.0, (512, 1))
    delta = 0.02
    fixed_lipschitz_bound(monkeypatch, linf_lipschitz_bound(net)[0])
    assert dec_loss(cert, policy, Batch(X), "lip-neighbor", delta=delta)[0] == 0.0
    # exhaustive ball sampling: raw value everywhere in the ball drops enough
    for x in X[:64]:
        nxt = 0.5 * x
        ball = nxt + rng.uniform(-delta, delta, (1000, 1))
        vx = scalar_value(net, x[None])[0]
        vals = scalar_value(net, ball)
        assert np.all(vx - vals >= params.epsilon - 1e-9)


# ---------------------------------------------------------------------------
# total loss


def test_total_loss_all_zero(pendulum):
    # certificate pinned low: all hinges inactive, descent trivially satisfied
    env = tiny_env_1d()
    params = ClbfParams(epsilon=0.01)
    cert = FilteredCertificate(affine_scalar_net([0.4], 0.0), params, env)
    policy = affine_scalar_net([0.0], 0.0)
    cfg = TotalLossConfig("vanilla", LossWeights(tau=100.0))
    init_b = Batch(np.array([[0.5]]))
    dec_b = Batch(np.array([[1.0]]))
    assert total_loss_grads(cfg, cert, policy, env, init_b, dec_b)[0] == pytest.approx(0.0)


def test_total_loss_vanilla_weighted_sum():
    env = tiny_env_1d()
    params = ClbfParams(epsilon=0.01)
    # v(t) = t: init state at 1.5 violates beta by 0.5;
    # dec state at 0.4: v=0.4, next 0.2, drop 0.2 >= eps, no dec violation;
    # dec state at 0.018: v=0.018, next 0.009, drop 0.009, violation 1e-3
    cert = FilteredCertificate(affine_scalar_net([1.0], 0.0), params, env)
    policy = affine_scalar_net([0.0], 0.0)
    cfg = TotalLossConfig("vanilla", LossWeights())
    init_b = Batch(np.array([[1.5]]))
    dec_b = Batch(np.array([[0.4], [0.018]]))
    want = 1.0 * 0.5 + 10.0 * (0.01 - 0.009)
    got = total_loss_grads(cfg, cert, policy, env, init_b, dec_b)[0]
    assert got == pytest.approx(want, abs=1e-12)


def test_total_loss_counterexample_weighting(monkeypatch):
    env = tiny_env_1d()
    params = ClbfParams(epsilon=0.01)
    cert = FilteredCertificate(affine_scalar_net([1.0], 0.0), params, env)
    policy = affine_scalar_net([0.0], 0.0)
    x = 0.018  # contributes 0.001 to the dec hinge
    # a multiplier unlike any other weight, read when the loss runs
    monkeypatch.setattr(clbf.losses, "CE_WEIGHT", 37.0)
    base = TotalLossConfig("vanilla", LossWeights())
    plain = total_loss_grads(base, cert, policy, env, Batch(np.zeros((0, 1))),
                             Batch(np.array([[x]])))[0]
    tagged = total_loss_grads(base, cert, policy, env, Batch(np.zeros((0, 1))),
                              Batch(np.array([[x]]), np.array([True])))[0]
    assert tagged == pytest.approx(37.0 * plain)


@pytest.mark.parametrize("tau", [0.0, -1.0, np.nan])
def test_loss_weights_reject_a_tau_that_is_not_positive(tau):
    with pytest.raises(ValueError, match="tau"):
        LossWeights(tau=tau).validate()


def test_total_loss_rejects_unknown_method():
    with pytest.raises(ValueError):
        TotalLossConfig("sgd", LossWeights()).validate()


@pytest.mark.parametrize("method", ["vanilla", "lip-reg", "pgd", "lip-neighbor"])
def test_total_loss_rejects_negative_delta(method):
    # a negative radius would loosen the descent condition (the neighbour
    # slack -L * delta turns positive), whatever the method
    with pytest.raises(ValueError, match="delta"):
        TotalLossConfig(method, LossWeights(), -0.1).validate()


@pytest.mark.parametrize("delta", [np.nan, np.inf])
def test_total_loss_rejects_nan_and_infinite_delta(delta):
    with pytest.raises(ValueError, match="delta"):
        TotalLossConfig("pgd", LossWeights(), delta).validate()


def test_total_loss_rejects_mismatched_pgd_radius():
    cfg = TotalLossConfig("pgd", LossWeights(), delta=0.01,
                          pgd_cfg=PgdConfig(delta=0.02))
    with pytest.raises(ValueError, match="delta"):
        cfg.validate()


def test_total_loss_rejects_an_env_other_than_the_certificates(rng):
    # the terms read cert.env: a second object would be silently ignored
    cert = small_cert(pendulum_env())
    batch = Batch(cert.env.sample_states(rng, 4))
    with pytest.raises(ValueError, match="cert.env"):
        total_loss_grads(loss_cfg(), cert, small_policy(cert.env), pendulum_env(), batch,
                         batch)


def test_total_loss_gradients_match_fd(pendulum, rng, monkeypatch):
    monkeypatch.setattr(clbf.losses, "CE_WEIGHT", 3.0)
    for method, delta in (("vanilla", 0.0), ("lip-reg", 0.0),
                          ("pgd", 0.01), ("lip-neighbor", 0.01)):
        cert = small_cert(pendulum, seed=61, dims=(8, 6))
        policy = small_policy(pendulum, seed=62, dims=(6,))
        _randomize_biases(cert.net, rng)
        _randomize_biases(policy, rng)
        init_b = Batch(rng.uniform(-0.3, 0.3, (4, 2)))
        dec_b = Batch(pendulum.sample_states(rng, 5), np.array([True, 0, 0, 1, 0], bool))
        lw = LossWeights(tau=0.5)
        cfg = TotalLossConfig(method, lw, delta=delta,
                              pgd_cfg=PgdConfig(delta=delta, steps=8, restarts=2),
                              spectral_iters=300)

        def f():
            return total_loss_grads(cfg, cert, policy, pendulum, init_b, dec_b,
                                    np.random.default_rng(9))[0]

        val, cg, pg, _ = total_loss_grads(cfg, cert, policy, pendulum, init_b,
                                          dec_b, np.random.default_rng(9))
        assert val == pytest.approx(f()), method
        assert rel_err(cg, fd_param_grads(f, cert.net.params())) < 1e-4, method
        assert rel_err(pg, fd_param_grads(f, policy.params())) < 1e-4, method


@pytest.mark.parametrize("method", ["vanilla", "lip-reg", "pgd", "lip-neighbor"])
def test_total_loss_is_the_weighted_sum_of_its_terms_bit_for_bit(pendulum, rng, method,
                                                                 monkeypatch):
    # distinct weights, so that two swapped ones show
    lam_init, lam_dec, lam_lip = 1.5, 7.0, 0.3
    for name, value in (("LAMBDA_INIT", lam_init), ("LAMBDA_DEC", lam_dec),
                        ("LAMBDA_LIP_GLOBAL", lam_lip), ("CE_WEIGHT", 3.0)):
        monkeypatch.setattr(clbf.losses, name, value)
    cert = small_cert(pendulum, seed=71, dims=(8, 6))
    cert.net.biases[-1][0] += 1.1  # both hinges active on part of the batches
    policy = small_policy(pendulum, seed=72, dims=(6,))
    init_b = Batch(rng.uniform(-0.3, 0.3, (8, 2)), np.arange(8) % 3 == 0)
    dec_b = Batch(pendulum.sample_states(rng, 32), np.arange(32) % 4 == 0)
    lw = LossWeights(tau=0.5)
    cfg = TotalLossConfig(method, lw, 0.02, PgdConfig(delta=0.02, steps=8, restarts=2), 20)
    vs = linf_lipschitz_bound(cert.net, 5)[2]  # a warm start for the power iteration

    val, cg, pg, new_vs = total_loss_grads(cfg, cert, policy, pendulum, init_b, dec_b,
                                           np.random.default_rng(3), vs)
    dec_val, dec_cg, dec_pg, dec_vs = loss_dec_grads(cfg, cert, policy, dec_b,
                                                     np.random.default_rng(3), vs)
    init_val, init_cg = loss_init_grads(cfg, cert, init_b)
    assert dec_val > 0 and init_val > 0
    want_val = lam_init * init_val + lam_dec * dec_val
    want_cg = [lam_init * a + lam_dec * b for a, b in zip(init_cg, dec_cg)]
    want_vs = dec_vs
    if method == "lip-reg":
        lip_val, lip_cg, want_vs = loss_lip_global_grads(cert.net, lw.tau,
                                                         cfg.spectral_iters, vs)
        assert lip_val > 0
        want_val += lam_lip * lip_val
        want_cg = [g + lam_lip * c for g, c in zip(want_cg, lip_cg)]
    assert val == want_val
    for g, w in zip(cg + pg, want_cg + [lam_dec * d for d in dec_pg]):
        assert np.array_equal(g, w)
    for v, w in zip(new_vs, want_vs):
        assert np.array_equal(v, w)
