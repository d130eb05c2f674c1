"""Counterexample-guided training of the certificate-controller pair.

The loop: regress the policy onto a hand-designed stabilizing teacher, then
pre-train the certificate with the policy frozen, then alternate between
joint training (until the total loss reaches zero or the epoch cap) and
sound verification. States violating a condition are re-sampled into a
growing counterexample dataset that enters the loss with a large multiplier.
Also hosts the budget search for the smallest feasible Lipschitz bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .adversary import PgdConfig
from .certificate import ClbfParams, FilteredCertificate
from .envs import EnvSpec, make_env
from .losses import METHODS, Batch, LossWeights, TotalLossConfig, total_loss_grads
from .nets import (Adam, Mlp, backward, forward_batch, forward_tape, init_mlp,
                   spectral_product_grads)
from .verifier import BnbConfig, bisect_boundary, check_init, check_robust_decrease

ENV_DEFAULTS = {
    "pendulum": dict(epsilon=5e-3, tau=3.0, policy_hidden=(128, 128),
                     max_boxes=2_000_000,
                     method_delta={"pgd": 5e-3, "lip-neighbor": 1e-3}),
    "docking2d": dict(epsilon=1e-2, tau=1.0, policy_hidden=(20, 20),
                      max_boxes=20_000_000,
                      method_delta={"pgd": 1e-2, "lip-neighbor": 1e-2}),
}


@dataclass
class TrainConfig:
    env_name: str = "pendulum"
    method: str = "vanilla"
    seed: int = 0
    # certificate scalars
    alpha: float = 1.2
    beta: float = 1.0
    epsilon: float | None = None   # env default when None
    delta: float | None = None     # (env, method) default when None
    tau: float | None = None       # env default when None
    goal_mask: float = -10.0
    unsafe_mask: float = 1.2
    # loss weights
    lambda_init: float = 1.0
    lambda_dec: float = 10.0
    lambda_lip_global: float = 1.0
    ce_weight: float = 100.0
    # architecture
    cert_hidden: tuple = (64, 32, 16)
    policy_hidden: tuple | None = None
    # training loop
    lr: float = 1e-3
    batch_size: int = 512
    epochs_per_iter: int = 2000
    warmstart_epochs: int = 500
    teacher_samples: int = 10_000
    teacher_tol: float = 1e-3
    max_iters: int = 50
    timeout_hours: float = 12.0
    loss_zero_tol: float = 1e-12
    train_spectral_iters: int = 5
    # counterexample handling
    resample_m: int = 64
    resample_radius: float = 1e-3
    ce_limit: int = 8
    ce_cap: int = 4096
    # verification budgets
    max_boxes: int | None = None
    min_width: float = 1e-4
    verify_chunk: int = 4096
    # pgd
    pgd_steps: int = 20
    pgd_restarts: int = 3

    def resolved(self) -> "TrainConfig":
        if self.env_name not in ENV_DEFAULTS:
            raise ValueError(f"unknown environment {self.env_name!r}; "
                             f"choose from {sorted(ENV_DEFAULTS)}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        d = ENV_DEFAULTS[self.env_name]
        out = replace(self)
        if out.epsilon is None:
            out.epsilon = d["epsilon"]
        if out.tau is None:
            out.tau = d["tau"]
        if out.policy_hidden is None:
            out.policy_hidden = d["policy_hidden"]
        if out.max_boxes is None:
            out.max_boxes = d["max_boxes"]
        if out.delta is None:
            out.delta = d["method_delta"].get(self.method, 0.0)
        return out

    def clbf_params(self) -> ClbfParams:
        return ClbfParams(alpha=self.alpha, beta=self.beta, epsilon=self.epsilon,
                          delta=self.delta, goal_mask=self.goal_mask,
                          unsafe_mask=self.unsafe_mask)

    def loss_weights(self) -> LossWeights:
        return LossWeights(self.lambda_init, self.lambda_dec, self.lambda_lip_global,
                           self.tau, self.ce_weight).validate()

    def pgd_config(self) -> PgdConfig:
        return PgdConfig(steps=self.pgd_steps, delta=self.delta,
                         restarts=self.pgd_restarts)

    def loss_config(self) -> TotalLossConfig:
        return TotalLossConfig(self.method, self.loss_weights(), self.delta,
                               self.pgd_config(), self.train_spectral_iters)

    def bnb_config(self, max_boxes: int | None = None) -> BnbConfig:
        return BnbConfig(max_boxes=max_boxes or self.max_boxes,
                         min_width=self.min_width, ce_limit=self.ce_limit,
                         chunk=self.verify_chunk, seed=self.seed)


@dataclass
class CegisResult:
    policy: Mlp
    cert: FilteredCertificate
    success: bool
    status: str     # "certified" | "timeout" | "max_iters" | "diverged" | "stalled"
    iterations: list[dict] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    warmstart: dict = field(default_factory=dict)
    config: TrainConfig | None = None


# ---------------------------------------------------------------------------
# teachers and warm start


def teacher_control(env: EnvSpec, X: np.ndarray) -> np.ndarray:
    """Hand-designed stabilizing feedback, clamped to the control bounds."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if env.name == "pendulum":
        u = -0.5 * X[:, 0] - 0.15 * X[:, 1]
        return np.clip(u[:, None], -1.0, 1.0)
    if env.name == "docking2d":
        F = -0.5 * X[:, 0:2] - 6.0 * X[:, 2:4]
        return np.clip(F, -1.0, 1.0)
    raise ValueError(f"no teacher for environment {env.name!r}")


def warm_start(env: EnvSpec, config: TrainConfig,
               rng: np.random.Generator) -> tuple[Mlp, FilteredCertificate, dict]:
    """Policy regression onto the teacher plus certificate pre-training.

    Returns (policy, cert, diagnostics); a teacher fit missing the tolerance
    is reported in the diagnostics but training continues best-effort.
    """
    cfg = config.resolved()
    diag = {}
    policy = init_mlp([env.state_dim, *cfg.policy_hidden, env.control_dim], rng)
    region = env.domain if env.safe_box is None else env.safe_box
    X = region.sample(rng, cfg.teacher_samples)
    U_t = teacher_control(env, X)

    opt = Adam(lr=1e-3)
    mse = np.inf

    for step in range(4000):
        idx = rng.integers(0, X.shape[0], cfg.batch_size)
        xb, ub = X[idx], U_t[idx]
        tape = forward_tape(policy, xb)
        err = tape.output - ub
        grads, _ = backward(policy, tape, 2.0 * err / xb.shape[0])
        opt.step(policy.params(), grads)
        if step % 200 == 199:
            mse = float(np.mean((forward_batch(policy, X) - U_t) ** 2))
            if mse < cfg.teacher_tol:
                break
    mse = float(np.mean((forward_batch(policy, X) - U_t) ** 2))
    diag["teacher_mse"] = mse
    if mse >= cfg.teacher_tol:
        diag["teacher_warning"] = f"teacher regression MSE {mse:.2e} above tolerance"

    cert = FilteredCertificate(
        init_mlp([env.state_dim, *cfg.cert_hidden, 1], rng),
        cfg.clbf_params(), env,
    )
    # pre-train the certificate with the policy frozen
    tl_cfg = cfg.loss_config()
    opt_c = Adam(lr=cfg.lr)
    vs, val = None, np.nan  # no loss is measured when warmstart_epochs is 0
    for _ in range(cfg.warmstart_epochs):
        init_b = Batch(env.sample_init(rng, cfg.batch_size))
        dec_b = Batch(env.sample_states(rng, cfg.batch_size))
        val, cg, _, vs = total_loss_grads(tl_cfg, cert, policy, env, init_b,
                                          dec_b, rng, spectral_vs=vs)
        if not np.isfinite(val):
            diag["warmstart_warning"] = "certificate pre-training diverged"
            break
        if val < cfg.loss_zero_tol:  # Adam's momentum would still move the weights
            break
        opt_c.step(cert.net.params(), cg)
    diag["warmstart_loss"] = float(val)
    return policy, cert, diag


# ---------------------------------------------------------------------------
# counterexample resampling


def resample_counterexamples(env: EnvSpec, states: list[np.ndarray], m: int,
                             radius: float, rng: np.random.Generator,
                             init_condition: bool) -> np.ndarray:
    """m uniform samples in the l-inf ball around each counterexample,
    clipped into the relevant region and filtered to trainable states. An
    init counterexample's region is the first initial box that contains it;
    a decrease counterexample's is the domain. The counterexample itself is
    always kept."""
    out = []
    for ce in states:
        pts = ce + rng.uniform(-radius, radius, (m, len(ce)))
        if init_condition:
            box = next((b for b in env.init_boxes if b.contains(ce)),
                       env.init_boxes[0])
            pts = box.clip(pts)
        else:
            pts = env.domain.clip(pts)
            keep = ~env.in_goal(pts) & ~env.in_unsafe(pts)
            pts = pts[keep]
        out.append(ce[None, :])
        out.append(pts)
    return np.concatenate(out) if out else np.empty((0, env.state_dim))


# ---------------------------------------------------------------------------
# the loop


def cegis_run(config: TrainConfig, env: EnvSpec | None = None) -> CegisResult:
    """Algorithm: train to zero loss, verify, resample around violations,
    repeat until certified, out of iterations, or out of time."""
    cfg = config.resolved()
    env = env or make_env(cfg.env_name)
    rng = np.random.default_rng(cfg.seed)
    t0 = time.monotonic()
    deadline = t0 + cfg.timeout_hours * 3600.0

    policy, cert, ws_diag = warm_start(env, cfg, rng)
    result = CegisResult(policy, cert, False, "running", warmstart=ws_diag,
                         config=cfg)

    tl_cfg = cfg.loss_config()
    opt = Adam(lr=cfg.lr)
    params = cert.net.params() + policy.params()
    D_ce_init = np.empty((0, env.state_dim))
    D_ce_dec = np.empty((0, env.state_dim))
    vs = None
    verify_budget = min(cfg.max_boxes, 200_000)

    for iteration in range(1, cfg.max_iters + 1):
        it_start = time.monotonic()
        # ----- training phase
        loss = np.inf
        for epoch in range(cfg.epochs_per_iter):
            init_states = env.sample_init(rng, cfg.batch_size)
            dec_states = env.sample_states(rng, cfg.batch_size)
            init_b = _with_ce(init_states, D_ce_init, cfg.ce_cap, rng)
            dec_b = _with_ce(dec_states, D_ce_dec, cfg.ce_cap, rng)
            loss, cg, pg, vs = total_loss_grads(tl_cfg, cert, policy, env,
                                                init_b, dec_b, rng,
                                                spectral_vs=vs)
            if not np.isfinite(loss):
                result.status = "diverged"
                result.iterations.append(_row(iteration, loss, 0, t0))
                return result
            if loss < cfg.loss_zero_tol:  # Adam's momentum would still move the weights
                break
            opt.step(params, cg + pg)
            if time.monotonic() > deadline:
                break

        # ----- verification phase
        bnb = cfg.bnb_config(verify_budget)
        v_init = check_init(cert, env, bnb)
        v_dec = check_robust_decrease(cert, policy, env, cfg.delta,
                                      cfg.epsilon, bnb)
        ces_init = [w.state for w in v_init.witnesses]
        ces_dec = [w.state for w in v_dec.witnesses]
        ce_count = len(ces_init) + len(ces_dec)
        result.iterations.append(_row(iteration, loss, ce_count, t0))
        result.verdicts = {"init": v_init, "decrease": v_dec}

        if ce_count == 0 and v_init.proved and v_dec.proved:
            result.success = True
            result.status = "certified"
            return result
        if ce_count:
            if ces_init:
                D_ce_init = _grow(D_ce_init, resample_counterexamples(
                    env, ces_init, cfg.resample_m, cfg.resample_radius, rng, True))
            if ces_dec:
                D_ce_dec = _grow(D_ce_dec, resample_counterexamples(
                    env, ces_dec, cfg.resample_m, cfg.resample_radius, rng, False))
        else:
            # no counterexample but not proved: widen the verification budget
            if verify_budget >= cfg.max_boxes:
                result.status = "stalled"
                return result
            verify_budget = min(cfg.max_boxes, verify_budget * 4)
        if time.monotonic() > deadline:
            result.status = "timeout"
            return result

    result.status = "max_iters"
    return result


def _row(iteration, loss, ce_count, t0):
    return {"iteration": iteration, "loss": float(loss), "ce_count": ce_count,
            "wall_time_s": time.monotonic() - t0}


def _grow(existing: np.ndarray, new: np.ndarray) -> np.ndarray:
    return np.concatenate([existing, new]) if new.size else existing


def _with_ce(fresh: np.ndarray, ce: np.ndarray, cap: int,
             rng: np.random.Generator) -> Batch:
    if ce.shape[0] == 0:
        return Batch(fresh)
    if ce.shape[0] > cap:
        idx = rng.choice(ce.shape[0], cap, replace=False)
        ce = ce[idx]
    states = np.concatenate([fresh, ce])
    tags = np.concatenate([np.zeros(fresh.shape[0], bool),
                           np.ones(ce.shape[0], bool)])
    return Batch(states, tags)


# ---------------------------------------------------------------------------
# tau search


def tau_search(config: TrainConfig, resolution: float = 0.25,
               env: EnvSpec | None = None):
    """Smallest Lipschitz budget tau at which lip-reg training still
    converges, found by bisection below a converged vanilla model's
    measured spectral-norm product.

    Returns (tau_star, result_at_tau_star, info). tau_star is None when even
    the vanilla-derived upper bound fails. The bisection runs to resolution
    > 0 or to adjacent floats.
    """
    if not resolution > 0:
        raise ValueError("resolution must be positive")
    # each run's defaults (delta among them) are those of its own method
    cfg = replace(config, method="vanilla").resolved()
    env = env or make_env(cfg.env_name)
    vanilla = cegis_run(cfg, env)
    info = {"vanilla_status": vanilla.status, "probes": []}
    if not vanilla.success:
        info["reason"] = "vanilla run did not converge; no feasible upper bound"
        return None, None, info
    tau_hi = spectral_product_grads(vanilla.cert.net)[0]
    info["tau_hi"] = tau_hi
    best_run = None

    def converges(tau):
        nonlocal best_run
        run = cegis_run(replace(config, method="lip-reg", tau=float(tau)).resolved(), env)
        info["probes"].append((float(tau), run.status))
        if run.success:  # bisection keeps each converging probe as its end
            best_run = run
        return run.success

    if not converges(tau_hi):
        info["reason"] = "even the vanilla Lipschitz bound is infeasible"
        return None, None, info
    tau = bisect_boundary(converges, tau_hi, 0.0, resolution)
    return tau, best_run, info
