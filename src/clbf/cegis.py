"""Counterexample-guided training of the certificate-controller pair.

The loop: regress the policy onto a hand-designed stabilizing teacher, then
alternate between a training phase (until the total loss reaches zero or the
epoch cap) and sound verification. Certificate pre-training is that training
phase with the policy frozen and no counterexamples. States violating a
condition are re-sampled into a growing counterexample store, keyed by the
verifier's condition names, whose states enter the loss with a large
multiplier. Also hosts the budget search for the smallest feasible Lipschitz
bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .adversary import PgdConfig, check_count
from .boxes import Box
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


# Settings no caller varies. A setting becomes a TrainConfig field again only
# when two callers need different values.
CERT_HIDDEN = (64, 32, 16)
BATCH_SIZE = 512
TEACHER_TOL = 1e-3       # teacher regression MSE
LOSS_ZERO_TOL = 1e-12    # a training phase ends below this loss
SPECTRAL_ITERS = 5       # power iterations per training step
RESAMPLE_M = 64          # samples around each counterexample
RESAMPLE_RADIUS = 1e-3
CE_LIMIT = 8             # witnesses per verifier check
CE_CAP = 4096            # counterexamples per condition in one batch


@dataclass
class TrainConfig:
    env_name: str = "pendulum"
    method: str = "vanilla"
    seed: int = 0
    epsilon: float | None = None   # env default when None
    delta: float | None = None     # (env, method) default when None
    tau: float | None = None       # env default when None
    epochs_per_iter: int = 2000
    warmstart_epochs: int = 500
    teacher_samples: int = 10_000
    max_iters: int = 50
    timeout_hours: float = 12.0
    max_boxes: int | None = None   # env default when None

    def resolved(self) -> "TrainConfig":
        if self.env_name not in ENV_DEFAULTS:
            raise ValueError(f"unknown environment {self.env_name!r}; "
                             f"choose from {sorted(ENV_DEFAULTS)}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        d = ENV_DEFAULTS[self.env_name]
        default = {"epsilon": d["epsilon"], "tau": d["tau"], "max_boxes": d["max_boxes"],
                   "delta": d["method_delta"].get(self.method, 0.0)}
        out = replace(self, **{k: v for k, v in default.items() if getattr(self, k) is None})
        if not out.timeout_hours > 0:  # a NaN fails too
            raise ValueError("timeout_hours must be positive")
        for name in ("epochs_per_iter", "warmstart_epochs", "teacher_samples", "max_iters"):
            check_count(name, getattr(out, name), 0 if name == "warmstart_epochs" else 1)
        # the derived configs check every other setting, before any work
        out.clbf_params()
        out.loss_config().validate()
        out.bnb_config().validate()
        return out

    def clbf_params(self) -> ClbfParams:
        return ClbfParams(epsilon=self.epsilon, delta=self.delta)

    def loss_config(self) -> TotalLossConfig:
        return TotalLossConfig(self.method, LossWeights(tau=self.tau).validate(),
                               self.delta, PgdConfig(delta=self.delta), SPECTRAL_ITERS)

    def bnb_config(self, max_boxes: int | None = None) -> BnbConfig:
        return BnbConfig(max_boxes=max_boxes or self.max_boxes, ce_limit=CE_LIMIT,
                         seed=self.seed)


@dataclass
class CegisResult:
    policy: Mlp
    cert: FilteredCertificate
    status: str     # "certified" | "timeout" | "max_iters" | "diverged" | "stalled"
    iterations: list[dict] = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)
    warmstart: dict = field(default_factory=dict)
    config: TrainConfig | None = None

    @property
    def success(self) -> bool:
        return self.status == "certified"


# ---------------------------------------------------------------------------
# teachers, warm start and the training phase


def teacher_control(env: EnvSpec, X: np.ndarray) -> np.ndarray:
    """Hand-designed feedback, clamped to the control bounds, that reaches the
    goal from the initial set without entering the unsafe set."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if env.name == "pendulum":
        # low gains: a unit torque moves theta_dot by 8 in one step
        u = -0.15 * X[:, 0] - 0.1 * X[:, 1]
        return np.clip(u[:, None], -1.0, 1.0)
    if env.name == "docking2d":
        F = -0.5 * X[:, 0:2] - 6.0 * X[:, 2:4]
        return np.clip(F, -1.0, 1.0)
    raise ValueError(f"no teacher for environment {env.name!r}")


def warm_start(config: TrainConfig,
               rng: np.random.Generator) -> tuple[Mlp, FilteredCertificate, dict]:
    """Policy regression onto the teacher plus certificate pre-training.

    Returns (policy, cert, diagnostics); a teacher fit missing TEACHER_TOL
    is reported in the diagnostics but training continues best-effort.
    """
    cfg = config.resolved()
    env = make_env(cfg.env_name)
    diag = {}
    policy_hidden = ENV_DEFAULTS[cfg.env_name]["policy_hidden"]
    policy = init_mlp([env.state_dim, *policy_hidden, env.control_dim], rng)
    region = Box(env.safe_box.clip(env.domain.lo), env.safe_box.clip(env.domain.hi))
    X = region.sample(rng, cfg.teacher_samples)
    U_t = teacher_control(env, X)

    opt = Adam()
    for step in range(4000):
        idx = rng.integers(0, X.shape[0], BATCH_SIZE)
        xb, ub = X[idx], U_t[idx]
        tape = forward_tape(policy, xb)
        err = tape.output - ub
        grads, _ = backward(policy, tape, 2.0 * err / xb.shape[0])
        opt.step(policy.params(), grads)
        if step % 200 == 199:
            mse = float(np.mean((forward_batch(policy, X) - U_t) ** 2))
            if mse < TEACHER_TOL:
                break
    mse = float(np.mean((forward_batch(policy, X) - U_t) ** 2))
    diag["teacher_mse"] = mse
    if mse >= TEACHER_TOL:
        diag["teacher_warning"] = f"teacher regression MSE {mse:.2e} above tolerance"

    cert = FilteredCertificate(
        init_mlp([env.state_dim, *CERT_HIDDEN, 1], rng),
        cfg.clbf_params(), env,
    )
    # pre-train the certificate with the policy frozen
    loss, _, diverged = _train_phase(cfg, cert, policy, cfg.warmstart_epochs,
                                     cert.net.params(), Adam(), rng)
    if diverged:
        diag["warmstart_warning"] = "certificate pre-training diverged"
    # no loss is measured when warmstart_epochs is 0
    diag["warmstart_loss"] = float(loss) if cfg.warmstart_epochs else np.nan
    return policy, cert, diag


def _train_phase(cfg, cert, policy, epochs, params, opt, rng, vs=None,
                 ce=None, deadline=np.inf):
    """Up to epochs steps of opt on params (the certificate's, then the
    policy's unless it is frozen) against the total loss of BATCH_SIZE fresh
    init and decrease states, each mixed with at most CE_CAP of the
    counterexamples that the store ce holds under that condition. Ends at a
    non-finite loss, at a loss below LOSS_ZERO_TOL before that step's update
    (Adam's momentum would still move the weights), or past the deadline.
    Returns (loss, vs, diverged); loss is inf when no step ran."""
    tl_cfg = cfg.loss_config()
    ce = ce or {}
    loss = np.inf
    for _ in range(epochs):
        init_states = cert.env.sample_init(rng, BATCH_SIZE)
        dec_states = cert.env.sample_states(rng, BATCH_SIZE)
        init_b = _with_ce(init_states, ce.get("init"), CE_CAP, rng)
        dec_b = _with_ce(dec_states, ce.get("decrease"), CE_CAP, rng)
        loss, cg, pg, vs = total_loss_grads(tl_cfg, cert, policy, cert.env, init_b,
                                            dec_b, rng, spectral_vs=vs)
        if not np.isfinite(loss):
            return loss, vs, True
        if loss < LOSS_ZERO_TOL:
            break
        opt.step(params, (cg + pg)[:len(params)])  # drops a frozen policy's
        if time.monotonic() > deadline:
            break
    return loss, vs, False


def _with_ce(fresh, ce, cap, rng) -> Batch:
    """The fresh states, then at most cap of the counterexamples ce (drawn
    without replacement), which are tagged."""
    ce = fresh[:0] if ce is None else ce
    if len(ce) > cap:
        ce = ce[rng.choice(len(ce), cap, replace=False)]
    is_ce = np.arange(len(fresh) + len(ce)) >= len(fresh)
    return Batch(np.concatenate([fresh, ce]), is_ce)


# ---------------------------------------------------------------------------
# counterexample resampling


def resample_counterexamples(env: EnvSpec, states: np.ndarray, m: int,
                             radius: float, rng: np.random.Generator,
                             condition: str) -> np.ndarray:
    """m uniform samples in the l-inf ball around each of the (k, n)
    counterexample states of the verifier's condition ("init" or
    "decrease"), clipped into the relevant region. An init counterexample's
    region is the first initial box that contains it (else the first initial
    box). A decrease counterexample's is the domain, and of its samples only
    those in eligible_cover, the decrease check's roots, are kept. Each
    counterexample is kept, followed by its samples."""
    k, n = len(states), env.state_dim
    states = np.asarray(states, dtype=float).reshape(k, n)
    pts = states[:, None] + rng.uniform(-radius, radius, (k, m, n))
    keep = np.ones((k, m + 1), bool)  # column 0: the counterexample itself
    if condition == "init":
        boxes = env.init_boxes
        first = np.argmax([b.contains(states) for b in boxes], axis=0)  # 0 if none
        pts = np.clip(pts, np.array([b.lo for b in boxes])[first, None],
                      np.array([b.hi for b in boxes])[first, None])
    else:
        pts = env.domain.clip(pts).reshape(-1, n)
        in_cover = np.zeros(len(pts), dtype=bool)
        for box in env.eligible_cover:
            in_cover |= box.contains(pts)
        keep[:, 1:] = in_cover.reshape(k, m)
    return np.concatenate([states[:, None], pts.reshape(k, m, n)], axis=1)[keep]


# ---------------------------------------------------------------------------
# the loop


def cegis_run(config: TrainConfig) -> CegisResult:
    """Algorithm: train to zero loss, verify, resample around violations,
    repeat until certified, out of iterations, or out of time."""
    cfg = config.resolved()
    rng = np.random.default_rng(cfg.seed)
    t0 = time.monotonic()
    deadline = t0 + cfg.timeout_hours * 3600.0

    policy, cert, ws_diag = warm_start(cfg, rng)
    result = CegisResult(policy, cert, "running", warmstart=ws_diag, config=cfg)

    opt = Adam()
    params = cert.net.params() + policy.params()
    ce = {c: np.empty((0, cert.env.state_dim)) for c in ("init", "decrease")}
    vs = None
    verify_budget = min(cfg.max_boxes, 200_000)

    for iteration in range(1, cfg.max_iters + 1):
        t_train = time.monotonic()
        loss, vs, diverged = _train_phase(cfg, cert, policy, cfg.epochs_per_iter,
                                          params, opt, rng, vs, ce, deadline)
        t_verify = time.monotonic()
        if diverged:
            result.status = "diverged"
            result.iterations.append(_row(iteration, loss, dict.fromkeys(ce, 0), t0,
                                          t_verify - t_train, 0.0))
            return result

        bnb = cfg.bnb_config(verify_budget)
        result.verdicts = {"init": check_init(cert, bnb),
                           "decrease": check_robust_decrease(cert, policy, cert.env,
                                                             cfg.delta, cfg.epsilon, bnb)}
        found = {c: len(v.witnesses) for c, v in result.verdicts.items()}
        result.iterations.append(_row(iteration, loss, found, t0, t_verify - t_train,
                                      time.monotonic() - t_verify))

        if all(v.proved for v in result.verdicts.values()):  # a proof has no witness
            result.status = "certified"
            return result
        for c, v in result.verdicts.items():
            if v.witnesses:
                ce[c] = np.concatenate([ce[c], resample_counterexamples(
                    cert.env, [w.state for w in v.witnesses], RESAMPLE_M,
                    RESAMPLE_RADIUS, rng, c)])
        if not any(found.values()):
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


def _row(iteration, loss, ce_by_condition, t0, train_s, verify_s):
    return {"iteration": iteration, "loss": float(loss),
            "ce_count": sum(ce_by_condition.values()),
            "ce_by_condition": ce_by_condition, "train_s": train_s,
            "verify_s": verify_s, "wall_time_s": time.monotonic() - t0}


# ---------------------------------------------------------------------------
# tau search


def tau_search(config: TrainConfig, resolution: float = 0.25):
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
    vanilla = cegis_run(replace(config, method="vanilla").resolved())
    info = {"vanilla_status": vanilla.status, "probes": []}
    if not vanilla.success:
        info["reason"] = "vanilla run did not converge; no feasible upper bound"
        return None, None, info
    tau_hi = spectral_product_grads(vanilla.cert.net)[0]
    info["tau_hi"] = tau_hi
    best_run = None

    def converges(tau):
        nonlocal best_run
        run = cegis_run(replace(config, method="lip-reg", tau=float(tau)).resolved())
        info["probes"].append((float(tau), run.status))
        if run.success:  # bisection keeps each converging probe as its end
            best_run = run
        return run.success

    if not converges(tau_hi):
        info["reason"] = "even the vanilla Lipschitz bound is infeasible"
        return None, None, info
    tau = bisect_boundary(converges, tau_hi, 0.0, resolution)
    return tau, best_run, info
