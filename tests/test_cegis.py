import numpy as np
import pytest

import clbf.cegis
import clbf.losses
import clbf.nets
import clbf.verifier
from clbf.adversary import PgdConfig
from clbf.boxes import Box
from clbf.cegis import (CegisResult, TrainConfig, cegis_run, resample_counterexamples,
                        tau_search, teacher_control)
from clbf.certificate import ClbfParams, FilteredCertificate
from clbf.envs import EnvSpec, make_env, pendulum_env
from clbf.evaluate import sample_initial_states
from clbf.losses import LossWeights, TotalLossConfig
from clbf.nets import Mlp
from clbf.verifier import BnbConfig, Verdict


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
                                   condition="init")
    assert pts.shape == (102, 1)
    first, second = pts[:51, 0], pts[51:, 0]
    assert first[0] == 1.1 and second[0] == -1.9
    assert np.all((first >= 1.0) & (first <= 1.6))
    assert np.all((second >= -2.0) & (second <= -1.4))
    # the ball reaches past the box's inner face, so clipping was needed
    assert np.any(first == 1.0) and np.any(second == -2.0)


def test_decrease_resampling_drops_goal_states(pendulum):
    # just outside the goal's face theta = 0.2: the ball reaches into the goal
    ce = np.array([0.2 + 1e-4, 0.0])
    pts = resample_counterexamples(pendulum, [ce], 200, 1e-3, np.random.default_rng(0),
                                   condition="decrease")
    assert np.array_equal(pts[0], ce)
    assert 1 < len(pts) < 201  # the filter dropped some points, not all
    assert np.all(pendulum.domain.contains(pts))
    assert not np.any(pendulum.in_goal(pts)) and not np.any(pendulum.in_unsafe(pts))


def resample_reference(env, states, m, radius, rng, condition):
    """The per-counterexample loop that resample_counterexamples replaced."""
    out = []
    for ce in states:
        pts = ce + rng.uniform(-radius, radius, (m, len(ce)))
        if condition == "init":
            box = next((b for b in env.init_boxes if b.contains(ce)),
                       env.init_boxes[0])
            pts = box.clip(pts)
        else:
            pts = env.domain.clip(pts)
            pts = pts[~env.in_goal(pts) & ~env.in_unsafe(pts)]
        out += [ce[None, :], pts]
    return np.concatenate(out) if out else np.empty((0, env.state_dim))


@pytest.mark.parametrize("condition", ["init", "decrease"])
@pytest.mark.parametrize("env_name", ["pendulum", "twoinit1d"])
def test_resampling_equals_the_per_counterexample_loop(env_name, condition):
    rng = np.random.default_rng(3)
    if env_name == "pendulum":
        env, radius = pendulum_env(), 0.05
        # states near the goal's faces, so that the ball reaches into the goal
        states = np.concatenate([env.sample_init(rng, 20),
                                 rng.uniform(-0.25, 0.25, (20, 2))])
    else:
        # counterexamples in both initial boxes, on their faces, and one in
        # neither (its region is then the first box)
        env, radius = two_init_boxes_env_1d(), 0.5
        states = np.array([[1.1], [-1.9], [1.5], [-1.0], [2.0], [-1.5], [0.0]])
    got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
    got = resample_counterexamples(env, states, 30, radius, got_rng, condition)
    want = resample_reference(env, states, 30, radius, want_rng, condition)
    assert np.array_equal(got, want)
    assert got_rng.random() == want_rng.random()  # the same draws were used
    if env_name == "pendulum" and condition == "decrease":
        assert len(states) < len(got) < 31 * len(states)  # the filter dropped some


@pytest.mark.parametrize("env_name,horizon", [("pendulum", 16), ("docking2d", 13)])
def test_teacher_reaches_the_goal_safely(env_name, horizon):
    # the teacher that warm start regresses onto solves the task it is paired
    # with: from every sampled initial state it reaches the goal within the
    # horizon and never enters the unsafe set on the way
    env = make_env(env_name)
    X = sample_initial_states(env, 2000, np.random.default_rng(0))
    running = np.ones(len(X), dtype=bool)
    for _ in range(horizon):
        X = env.step(X, teacher_control(env, X))
        assert not np.any(env.in_unsafe(X[running]))
        running &= ~env.in_goal(X)
    assert not np.any(running)


def test_docking_run_proves_safety():
    # docking's goal lies inside the safe band, so the unsafe set takes the
    # unsafe mask everywhere and safety holds by construction: the run
    # verifies the init and decrease conditions only
    cfg = TrainConfig(env_name="docking2d", epochs_per_iter=2, warmstart_epochs=2,
                      max_iters=1, teacher_samples=2000, max_boxes=2000)
    result = cegis_run(cfg)
    assert set(result.verdicts) == {"init", "decrease"}
    assert result.cert.params.unsafe_mask > result.cert.params.beta


# ---------------------------------------------------------------------------
# configuration and run status


def test_resolved_rejects_unknown_env_and_method():
    with pytest.raises(ValueError, match="unknown environment 'nope'.*pendulum"):
        TrainConfig(env_name="nope").resolved()
    with pytest.raises(ValueError, match="unknown method 'nope'.*vanilla"):
        TrainConfig(method="nope").resolved()


# settings that once failed only after warm start or a training phase, and a
# timeout that NaN would switch off: time.monotonic() > nan is never true
BAD_SETTINGS = [("max_boxes", np.nan), ("max_boxes", 0), ("epsilon", np.nan),
                ("epsilon", -1.0), ("tau", -1.0), ("tau", np.nan), ("delta", np.inf),
                ("delta", -1.0), ("timeout_hours", np.nan), ("timeout_hours", 0.0),
                ("timeout_hours", -1.0), ("max_iters", 0), ("max_iters", 2.5),
                ("epochs_per_iter", -5), ("epochs_per_iter", 0), ("teacher_samples", 0),
                ("warmstart_epochs", -1), ("warmstart_epochs", np.nan)]


@pytest.mark.parametrize("name,value", BAD_SETTINGS)
def test_resolved_validates_every_setting(name, value):
    with pytest.raises(ValueError, match=name):
        TrainConfig(method="lip-reg", **{name: value}).resolved()


@pytest.mark.parametrize("name,value", BAD_SETTINGS)
def test_cegis_run_rejects_a_bad_setting_before_warm_start(name, value, monkeypatch):
    def no_warm_start(*args):
        pytest.fail("warm start ran on an invalid config")

    monkeypatch.setattr(clbf.cegis, "warm_start", no_warm_start)
    with pytest.raises(ValueError, match=name):
        cegis_run(tiny_config(method="lip-reg", **{name: value}))


# (env, method): epsilon, delta, tau, max_boxes as resolved() fills them in
RESOLVED = {
    ("pendulum", "vanilla"): (5e-3, 0.0, 3.0, 2_000_000),
    ("pendulum", "pgd"): (5e-3, 5e-3, 3.0, 2_000_000),
    ("pendulum", "lip-reg"): (5e-3, 0.0, 3.0, 2_000_000),
    ("pendulum", "lip-neighbor"): (5e-3, 1e-3, 3.0, 2_000_000),
    ("docking2d", "vanilla"): (1e-2, 0.0, 1.0, 20_000_000),
    ("docking2d", "pgd"): (1e-2, 1e-2, 1.0, 20_000_000),
    ("docking2d", "lip-reg"): (1e-2, 0.0, 1.0, 20_000_000),
    ("docking2d", "lip-neighbor"): (1e-2, 1e-2, 1.0, 20_000_000),
}


@pytest.mark.parametrize("env_name,method", sorted(RESOLVED))
def test_sub_configs_and_net_dims_stay_pinned(env_name, method):
    # every value written out, so that a trim of TrainConfig or of a
    # sub-config's defaults that changes a run shows here
    epsilon, delta, tau, max_boxes = RESOLVED[env_name, method]
    cfg = TrainConfig(env_name, method).resolved()
    assert cfg.clbf_params() == ClbfParams(beta=1.0, epsilon=epsilon, delta=delta,
                                           goal_mask=-10.0, unsafe_mask=1.2)
    assert cfg.loss_config() == TotalLossConfig(
        method, LossWeights(tau=tau), delta, PgdConfig(steps=20, delta=delta, restarts=3),
        spectral_iters=5)
    assert cfg.bnb_config() == BnbConfig(max_boxes=max_boxes, ce_limit=8, seed=0)
    # the settings no caller varies, which the modules hold as constants
    v, lo, nets = clbf.verifier, clbf.losses, clbf.nets
    assert (v.MIN_WIDTH, v.CHUNK, v.INNER_PGD, v.OUTER_PGD_STEPS) == (
        1e-4, 4096, PgdConfig(steps=20, delta=0.0, restarts=2), 5)
    assert (lo.LAMBDA_INIT, lo.LAMBDA_DEC, lo.LAMBDA_LIP_GLOBAL, lo.CE_WEIGHT) == (
        1.0, 10.0, 1.0, 100.0)
    assert (nets.Adam().lr, nets.BETA1, nets.BETA2, nets.EPS) == (1e-3, 0.9, 0.999, 1e-8)
    env = make_env(env_name)
    policy, cert, _ = clbf.cegis.warm_start(
        TrainConfig(env_name, method, warmstart_epochs=0, teacher_samples=500),
        np.random.default_rng(0))
    n = env.state_dim
    assert cert.net.dims == [n, 64, 32, 16, 1]
    assert policy.dims == {"pendulum": [n, 128, 128, 1], "docking2d": [n, 20, 20, 2]}[env_name]


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
        return Verdict("unknown", "decrease", unknown_lo=env.domain.lo[None],
                       unknown_hi=env.domain.hi[None], unknown_volume_fraction=1.0)

    monkeypatch.setattr(clbf.cegis, "check_robust_decrease", unknown_decrease)
    result = cegis_run(tiny_config(max_iters=5, max_boxes=800_000))
    assert result.status == "stalled" and not result.success
    assert budgets == [200_000, 800_000]
    assert [r["iteration"] for r in result.iterations] == [1, 2]
    assert all(r["ce_count"] == 0 for r in result.iterations)
    assert result.verdicts["init"].proved and set(result.verdicts) == {"init", "decrease"}


def test_status_certified(monkeypatch):
    proved = {c: Verdict("proved", c) for c in ("init", "decrease")}
    monkeypatch.setattr(clbf.cegis, "check_init", lambda cert, cfg: proved["init"])
    monkeypatch.setattr(clbf.cegis, "check_robust_decrease",
                        lambda cert, policy, env, *args: proved["decrease"])
    result = cegis_run(tiny_config(max_iters=3))
    assert result.status == "certified" and result.success
    [row] = result.iterations
    assert row["iteration"] == 1 and row["ce_count"] == 0
    assert result.verdicts == proved


def test_rows_split_the_time_by_phase_and_the_counterexamples_by_condition():
    result = cegis_run(tiny_config(max_iters=2))
    assert len(result.iterations) == 2
    for row in result.iterations:
        assert set(row["ce_by_condition"]) == {"init", "decrease"}
        assert sum(row["ce_by_condition"].values()) == row["ce_count"] > 0
        assert row["train_s"] >= 0.0 and row["verify_s"] > 0.0
        assert row["train_s"] + row["verify_s"] <= row["wall_time_s"]
    assert result.iterations[-1]["ce_by_condition"] == \
        {c: len(v.witnesses) for c, v in result.verdicts.items()}


@pytest.mark.parametrize("phase", ["warm_start", "cegis_run"])
def test_a_non_finite_loss_ends_the_phase_before_the_optimizer_step(phase, monkeypatch):
    # loss 1 with unit gradients, then NaN with NaN gradients: a step on
    # them would write NaN into the weights
    seen = []

    def loss_then_nan(cfg, cert, policy, env, init_b, dec_b, rng=None,
                      spectral_vs=None):
        seen.append([p.copy() for p in cert.net.params() + policy.params()])
        g = 1.0 if len(seen) == 1 else np.nan
        return (g, [np.full_like(p, g) for p in cert.net.params()],
                [np.full_like(p, g) for p in policy.params()], spectral_vs)

    monkeypatch.setattr(clbf.cegis, "total_loss_grads", loss_then_nan)
    if phase == "warm_start":
        cfg = tiny_config(warmstart_epochs=5)
        policy, cert, diag = clbf.cegis.warm_start(cfg, np.random.default_rng(0))
        assert diag["warmstart_warning"] == "certificate pre-training diverged"
        assert np.isnan(diag["warmstart_loss"])
    else:
        result = cegis_run(tiny_config(epochs_per_iter=5, max_iters=3))
        assert result.status == "diverged" and not result.success
        [row] = result.iterations
        assert np.isnan(row["loss"]) and row["verify_s"] == 0.0
        assert row["ce_by_condition"] == {"init": 0, "decrease": 0}
        policy, cert = result.policy, result.cert
    assert len(seen) == 2
    # the first step moved the certificate, and the policy only if it trains
    n_cert = len(cert.net.params())
    moved = [not np.array_equal(a, b) for a, b in zip(seen[0], seen[1])]
    assert moved == [True] * n_cert + [phase == "cegis_run"] * (len(moved) - n_cert)
    for got, want in zip(cert.net.params() + policy.params(), seen[1]):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("phase", ["warm_start", "cegis_run"])
def test_a_zero_loss_ends_the_phase_before_the_optimizer_step(phase, monkeypatch):
    # loss 1 with unit gradients, then loss 0 with zero gradients: Adam's
    # momentum would still move the weights on a second step
    seen = []

    def loss_then_zero(cfg, cert, policy, env, init_b, dec_b, rng=None,
                       spectral_vs=None):
        seen.append([p.copy() for p in cert.net.params() + policy.params()])
        g = float(len(seen) == 1)
        return (g, [np.full_like(p, g) for p in cert.net.params()],
                [np.full_like(p, g) for p in policy.params()], spectral_vs)

    monkeypatch.setattr(clbf.cegis, "total_loss_grads", loss_then_zero)
    if phase == "warm_start":
        cfg = tiny_config(warmstart_epochs=5)
        policy, cert, diag = clbf.cegis.warm_start(cfg, np.random.default_rng(0))
        assert diag["warmstart_loss"] == 0.0
    else:
        proved = Verdict("proved", "decrease")
        monkeypatch.setattr(clbf.cegis, "check_init", lambda *args: proved)
        monkeypatch.setattr(clbf.cegis, "check_robust_decrease", lambda *args: proved)
        result = cegis_run(tiny_config(epochs_per_iter=5))
        assert result.iterations[0]["loss"] == 0.0
        policy, cert = result.policy, result.cert
    assert len(seen) == 2
    after_first_step = seen[1]
    assert not all(np.array_equal(a, b) for a, b in zip(seen[0], after_first_step))
    for got, want in zip(cert.net.params() + policy.params(), after_first_step):
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# tau search


def fake_cegis_run(pendulum, vanilla_ok=True, tau_min=2.5, runs=None):
    """A run that succeeds for vanilla (if vanilla_ok) with a net whose
    spectral product is 6, and for lip-reg iff tau >= tau_min. Each config
    run is appended to runs, and a 501st run raises, so that a search which
    never ends fails instead of hanging."""
    net = Mlp([2 * np.eye(2), np.array([[3.0, 0.0]])], [np.zeros(2), np.zeros(1)])
    runs = [] if runs is None else runs

    def run(cfg):
        runs.append(cfg)
        if len(runs) > 500:
            raise RuntimeError("more than 500 runs")
        ok = vanilla_ok if cfg.method == "vanilla" else cfg.tau >= tau_min
        cert = FilteredCertificate(net, ClbfParams(), pendulum)
        status = "certified" if ok else "max_iters"
        return CegisResult(net, cert, status, config=cfg)

    return run


def test_tau_search_bisects_below_the_vanilla_product(monkeypatch, pendulum):
    monkeypatch.setattr(clbf.cegis, "cegis_run", fake_cegis_run(pendulum))
    tau, run, info = tau_search(TrainConfig(), resolution=0.25)
    assert info["vanilla_status"] == "certified"
    assert info["tau_hi"] == pytest.approx(6.0)
    assert info["probes"][0] == (info["tau_hi"], "certified")
    assert 2.5 <= tau < 2.75
    assert run.success and run.config.method == "lip-reg" and run.config.tau == tau
    assert all((t >= 2.5) == (status == "certified") for t, status in info["probes"])


def test_tau_search_without_a_converged_vanilla_run(monkeypatch, pendulum):
    monkeypatch.setattr(clbf.cegis, "cegis_run",
                        fake_cegis_run(pendulum, vanilla_ok=False))
    tau, run, info = tau_search(TrainConfig())
    assert tau is None and run is None
    assert info["vanilla_status"] == "max_iters" and info["probes"] == []
    assert "vanilla run did not converge" in info["reason"]


def test_tau_search_with_an_infeasible_upper_bound(monkeypatch, pendulum):
    monkeypatch.setattr(clbf.cegis, "cegis_run", fake_cegis_run(pendulum, tau_min=10.0))
    tau, run, info = tau_search(TrainConfig())
    assert tau is None and run is None
    assert info["probes"] == [(pytest.approx(6.0), "max_iters")]
    assert "infeasible" in info["reason"]


def test_tau_search_rejects_a_resolution_that_is_not_positive(monkeypatch, pendulum):
    runs = []
    monkeypatch.setattr(clbf.cegis, "cegis_run", fake_cegis_run(pendulum, runs=runs))
    for resolution in (0.0, -0.25):
        with pytest.raises(ValueError, match="resolution must be positive"):
            tau_search(TrainConfig(), resolution=resolution)
    assert runs == []


def test_tau_search_below_the_float_spacing_ends(monkeypatch, pendulum):
    # the bisection ends when its ends are adjacent floats, hi converging
    # and lo not: hi is then the smallest converging tau itself
    runs = []
    monkeypatch.setattr(clbf.cegis, "cegis_run", fake_cegis_run(pendulum, runs=runs))
    tau, run, info = tau_search(TrainConfig(), resolution=1e-300)
    assert tau == 2.5 and run.config.tau == 2.5
    assert max(t for t, status in info["probes"] if status != "certified") \
        == np.nextafter(2.5, -np.inf)
    assert len(runs) == len(info["probes"]) + 1  # the vanilla run


def test_tau_search_resolves_each_run_for_its_own_method(monkeypatch, pendulum):
    # the caller's method is replaced before the defaults are resolved, so
    # pgd's delta default does not carry into the vanilla and lip-reg runs
    seen = {}
    for method in ("pgd", "vanilla"):
        seen[method] = []
        monkeypatch.setattr(clbf.cegis, "cegis_run",
                            fake_cegis_run(pendulum, runs=seen[method]))
        tau_search(TrainConfig(method=method))
    assert len(seen["pgd"]) > 2 and seen["pgd"] == seen["vanilla"]
    assert all(cfg.delta == 0.0 for cfg in seen["pgd"])
