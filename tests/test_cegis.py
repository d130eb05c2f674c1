import numpy as np
import pytest

import clbf.cegis
from clbf.boxes import Box
from clbf.cegis import (CegisResult, TrainConfig, cegis_run, resample_counterexamples,
                        tau_search)
from clbf.certificate import ClbfParams, FilteredCertificate
from clbf.envs import EnvSpec, pendulum_env
from clbf.nets import Mlp
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


def test_decrease_resampling_drops_goal_states(pendulum):
    # just outside the goal's face theta = 0.2: the ball reaches into the goal
    ce = np.array([0.2 + 1e-4, 0.0])
    pts = resample_counterexamples(pendulum, [ce], 200, 1e-3, np.random.default_rng(0),
                                   init_condition=False)
    assert np.array_equal(pts[0], ce)
    assert 1 < len(pts) < 201  # the filter dropped some points, not all
    assert np.all(pendulum.domain.contains(pts))
    assert not np.any(pendulum.in_goal(pts)) and not np.any(pendulum.in_unsafe(pts))


def test_docking_run_proves_safety():
    # docking's goal lies inside the safe band, so the unsafe set takes the
    # unsafe mask everywhere and safety holds by construction: the run
    # verifies the init and decrease conditions only
    cfg = TrainConfig(env_name="docking2d", epochs_per_iter=2, warmstart_epochs=2,
                      max_iters=1, teacher_samples=2000, max_boxes=2000)
    result = cegis_run(cfg)
    assert set(result.verdicts) == {"init", "decrease"}
    assert result.cert.params.unsafe_mask >= result.cert.params.alpha


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
    monkeypatch.setattr(clbf.cegis, "check_init", lambda cert, env, cfg: proved["init"])
    monkeypatch.setattr(clbf.cegis, "check_robust_decrease",
                        lambda cert, policy, env, *args: proved["decrease"])
    result = cegis_run(tiny_config(max_iters=3))
    assert result.status == "certified" and result.success
    [row] = result.iterations
    assert row["iteration"] == 1 and row["ce_count"] == 0
    assert result.verdicts == proved


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
        policy, cert, diag = clbf.cegis.warm_start(pendulum_env(), cfg,
                                                   np.random.default_rng(0))
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

    def run(cfg, env=None):
        runs.append(cfg)
        if len(runs) > 500:
            raise RuntimeError("more than 500 runs")
        ok = vanilla_ok if cfg.method == "vanilla" else cfg.tau >= tau_min
        cert = FilteredCertificate(net, ClbfParams(), pendulum)
        status = "certified" if ok else "max_iters"
        return CegisResult(net, cert, ok, status, config=cfg)

    return run


def test_tau_search_bisects_below_the_vanilla_product(monkeypatch, pendulum):
    monkeypatch.setattr(clbf.cegis, "cegis_run", fake_cegis_run(pendulum))
    tau, run, info = tau_search(TrainConfig(), resolution=0.25, env=pendulum)
    assert info["vanilla_status"] == "certified"
    assert info["tau_hi"] == pytest.approx(6.0)
    assert info["probes"][0] == (info["tau_hi"], "certified")
    assert 2.5 <= tau < 2.75
    assert run.success and run.config.method == "lip-reg" and run.config.tau == tau
    assert all((t >= 2.5) == (status == "certified") for t, status in info["probes"])


def test_tau_search_without_a_converged_vanilla_run(monkeypatch, pendulum):
    monkeypatch.setattr(clbf.cegis, "cegis_run",
                        fake_cegis_run(pendulum, vanilla_ok=False))
    tau, run, info = tau_search(TrainConfig(), env=pendulum)
    assert tau is None and run is None
    assert info["vanilla_status"] == "max_iters" and info["probes"] == []
    assert "vanilla run did not converge" in info["reason"]


def test_tau_search_with_an_infeasible_upper_bound(monkeypatch, pendulum):
    monkeypatch.setattr(clbf.cegis, "cegis_run", fake_cegis_run(pendulum, tau_min=10.0))
    tau, run, info = tau_search(TrainConfig(), env=pendulum)
    assert tau is None and run is None
    assert info["probes"] == [(pytest.approx(6.0), "max_iters")]
    assert "infeasible" in info["reason"]


def test_tau_search_rejects_a_resolution_that_is_not_positive(monkeypatch, pendulum):
    runs = []
    monkeypatch.setattr(clbf.cegis, "cegis_run", fake_cegis_run(pendulum, runs=runs))
    for resolution in (0.0, -0.25):
        with pytest.raises(ValueError, match="resolution must be positive"):
            tau_search(TrainConfig(), resolution=resolution, env=pendulum)
    assert runs == []


def test_tau_search_below_the_float_spacing_ends(monkeypatch, pendulum):
    # the bisection ends when its ends are adjacent floats, hi converging
    # and lo not: hi is then the smallest converging tau itself
    runs = []
    monkeypatch.setattr(clbf.cegis, "cegis_run", fake_cegis_run(pendulum, runs=runs))
    tau, run, info = tau_search(TrainConfig(), resolution=1e-300, env=pendulum)
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
        tau_search(TrainConfig(method=method), env=pendulum)
    assert len(seen["pgd"]) > 2 and seen["pgd"] == seen["vanilla"]
    assert all(cfg.delta == 0.0 for cfg in seen["pgd"])
