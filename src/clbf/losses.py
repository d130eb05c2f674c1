"""Training losses for the certificate-controller pair.

All losses are hinge sums: non-negative, zero exactly when every summand's
condition holds with the required margin. The descent loss evaluates the
next state through the filtered certificate, so transitions into the goal
are rewarded by the low goal mask and transitions into the unsafe set are
penalised by the high unsafe mask.

Four functions: loss_init_grads (initial-set cap), loss_dec_grads (the
descent condition under its nominal, adversarial and Lipschitz-neighbourhood
objectives), loss_lip_global_grads (global Lipschitz regularisation) and
total_loss_grads (the weighted sum a training method uses). Each returns its
value together with exact reverse-mode gradients with respect to the
certificate parameters, the policy parameters and (where meaningful) the
batch states. Gradients flow through the dynamics Jacobian into the policy;
for the adversarial objective they flow through the certificate at the
attacked point but not through the search that found it.

The adversarial objective searches the delta-ball (PGD) only on the rows
that certificate.decrease_may_fail passes, the interval screen the
verifier's counterexample hunt uses: eligible rows whose hinge can be
positive somewhere in the ball. At every other row the hinge is zero
throughout the ball (up to the rounding of the interval bound), so
whichever ball point is used there adds nothing to the value or to any
gradient; the search is skipped and the nominal next state kept.
Ineligible rows count nothing and get no search either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversary import PgdConfig, check_delta, pgd_maximize_batch
from .certificate import FilteredCertificate, decrease_may_fail
from .envs import EnvSpec
from .nets import (
    Mlp,
    accumulate,
    backward,
    forward_tape,
    linf_lipschitz_bound,
    spectral_product_grads,
    zero_grads,
)

METHODS = ("vanilla", "pgd", "lip-neighbor", "lip-reg")


@dataclass
class LossWeights:
    """Loss coefficients, Lipschitz budget and counterexample multiplier."""

    lambda_init: float = 1.0
    lambda_dec: float = 10.0  # the descent term, whichever objective the method uses
    lambda_lip_global: float = 1.0
    tau: float = 3.0
    ce_weight: float = 100.0

    def validate(self):
        for name in ("lambda_init", "lambda_dec", "lambda_lip_global"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.ce_weight < 1:
            raise ValueError("ce_weight must be >= 1")
        return self


@dataclass
class Batch:
    """States sampled outside the goal and unsafe sets, tagged by origin."""

    states: np.ndarray
    is_ce: np.ndarray | None = None  # True where the state came from a counterexample

    def __post_init__(self):
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if self.is_ce is None:
            self.is_ce = np.zeros(self.states.shape[0], dtype=bool)

    def weight_vector(self, ce_weight: float) -> np.ndarray:
        return np.where(self.is_ce, ce_weight, 1.0)


# ---------------------------------------------------------------------------
# initial-set loss


def loss_init_grads(cert: FilteredCertificate, init_states: np.ndarray,
                    weights: np.ndarray | None = None):
    """Hinge sum of V(x) <= beta over initial states: (value, cert_grads,
    state_grads).

    Raw network values: the initial set is unmasked (its goal overlap is
    trained too, which keeps interval bounds provable across the boundary).
    """
    X = np.atleast_2d(np.asarray(init_states, dtype=float))
    k = X.shape[0]
    w = np.ones(k) if weights is None else np.asarray(weights, dtype=float)
    tape = forward_tape(cert.net, X)
    v = tape.output[:, 0]
    active = v > cert.params.beta
    value = float((w * np.maximum(0.0, v - cert.params.beta)).sum())
    up = (w * active)[:, None]
    cert_g, gX = backward(cert.net, tape, up)
    return value, cert_g, gX


# ---------------------------------------------------------------------------
# descent loss


def _check_pgd_radius(delta: float, pgd_cfg: PgdConfig | None):
    if pgd_cfg is not None and pgd_cfg.delta != delta:
        raise ValueError(f"pgd_cfg.delta={pgd_cfg.delta} differs from delta={delta}")


def loss_dec_grads(cert: FilteredCertificate, policy: Mlp, env: EnvSpec,
                   batch: Batch, mode: str = "plain",
                   weights: np.ndarray | None = None,
                   delta: float = 0.0,
                   pgd_cfg: PgdConfig | None = None,
                   rng: np.random.Generator | None = None,
                   L_p: float | None = None,
                   spectral_iters: int = 50,
                   spectral_vs: list[np.ndarray] | None = None):
    """Descent hinge sum: V must drop by at least epsilon per step.

    mode: "plain" (nominal next state), "adv" (PGD point in the delta-ball,
    kept only when its filtered value beats the nominal one; the PGD offset
    is treated as frozen; PGD runs only on the rows decrease_may_fail
    passes, as elsewhere the hinge and its gradients are zero at every ball
    point), or "neighbor" (nominal next state plus the slack
    L_p * delta, which covers the whole delta-ball). In "neighbor" mode a
    given L_p is a constant; None recomputes it from the current weights
    with linf_lipschitz_bound and includes its gradient term.

    A given pgd_cfg must state the same radius as delta.

    Returns (value, cert_grads, policy_grads, state_grads, spectral_vs).
    """
    _check_pgd_radius(delta, pgd_cfg)
    p = cert.params
    X = batch.states
    w = np.ones(X.shape[0]) if weights is None else weights

    tape_x = forward_tape(cert.net, X)
    V_x = tape_x.output[:, 0]
    # precondition: summands only where V(x) <= beta; goal states never count
    eligible = (V_x <= p.beta) & ~env.in_goal(X)

    tape_pi = forward_tape(policy, X)
    U_raw = tape_pi.output
    NXT = env.step(X, U_raw)  # clamps internally

    dLp = None
    new_vs = spectral_vs
    if mode != "neighbor":
        L_p = 0.0
    elif L_p is None:
        L_p, dLp, new_vs = linf_lipschitz_bound(cert.net, spectral_iters, spectral_vs)

    if mode == "adv" and delta > 0.0:
        cfg = pgd_cfg if pgd_cfg is not None else PgdConfig(delta=delta)
        may_fail = decrease_may_fail(cert, eligible, V_x, NXT, delta, p.epsilon)
        Y_pgd = pgd_maximize_batch(cert.net, NXT, cfg, rng, may_fail)
        v_pgd, _ = cert.apply_masks(Y_pgd, cert.raw(Y_pgd))
        v_nom, _ = cert.apply_masks(NXT, cert.raw(NXT))
        use_pgd = v_pgd >= v_nom  # keep the stronger candidate per state
        Y = np.where(use_pgd[:, None], Y_pgd, NXT)
    else:
        Y = NXT

    tape_y = forward_tape(cert.net, Y)
    V_y, unmasked_y = cert.apply_masks(Y, tape_y.output[:, 0])

    residual = p.epsilon - (V_x - V_y - L_p * delta)
    hinge = np.where(eligible, np.maximum(0.0, residual), 0.0)
    value = float((w * hinge).sum())

    active = eligible & (residual > 0.0)
    coef = w * active

    # certificate: -dV(x) + dV(y) on the unmasked paths, + delta * dL_p;
    # the upstream coefficients carry the batch weights and hinge masks, so
    # the returned input gradients gVx / gVy are already scaled
    cert_g, gVx = backward(cert.net, tape_x, -coef[:, None])
    up_y = (coef * unmasked_y)[:, None]
    g_y, gy = backward(cert.net, tape_y, up_y)
    accumulate(cert_g, g_y)
    if dLp is not None and delta > 0.0:
        accumulate(cert_g, dLp, scale=delta * coef.sum())

    # policy and states: through the dynamics Jacobian at the (clamped)
    # control; the policy's reverse pass also yields its input gradient
    A, Bu = env.step_jac(X, U_raw)
    gu = np.einsum("kij,ki->kj", Bu, gy)
    policy_g, g_pi = backward(policy, tape_pi, gu)
    gX = gVx + np.einsum("kij,ki->kj", A, gy) + g_pi
    return value, cert_g, policy_g, gX, new_vs


def loss_lip_global_grads(net: Mlp, tau: float, iters: int = 50,
                          vs: list[np.ndarray] | None = None):
    """Hinge on the spectral-norm product exceeding the budget tau:
    (value, grads, vs)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    prod, prod_grads, new_vs = spectral_product_grads(net, iters, vs)
    grads = prod_grads if prod > tau else zero_grads(net)
    return max(0.0, prod - tau), grads, new_vs


# ---------------------------------------------------------------------------
# total loss


@dataclass
class TotalLossConfig:
    method: str
    weights: LossWeights
    delta: float = 0.0
    pgd_cfg: PgdConfig | None = None
    spectral_iters: int = 50

    def validate(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        self.weights.validate()
        check_delta(self.delta)
        _check_pgd_radius(self.delta, self.pgd_cfg)
        return self


def total_loss_grads(cfg: TotalLossConfig, cert: FilteredCertificate,
                     policy: Mlp, env: EnvSpec, init_batch: Batch,
                     dec_batch: Batch, rng: np.random.Generator | None = None,
                     spectral_vs: list[np.ndarray] | None = None):
    """Weighted sum of the method's active loss terms.

    Counterexample-tagged states contribute with multiplier ce_weight.
    Returns (value, cert_grads, policy_grads, spectral_vs); the vectors warm
    start the next step's power iteration.
    """
    cfg.validate()
    lw = cfg.weights
    w_init = init_batch.weight_vector(lw.ce_weight)
    w_dec = dec_batch.weight_vector(lw.ce_weight)

    mode = {"vanilla": "plain", "lip-reg": "plain",
            "pgd": "adv", "lip-neighbor": "neighbor"}[cfg.method]

    dec_val, dec_cg, dec_pg, _, new_vs = loss_dec_grads(
        cert, policy, env, dec_batch, mode, w_dec, delta=cfg.delta,
        pgd_cfg=cfg.pgd_cfg, rng=rng, spectral_iters=cfg.spectral_iters,
        spectral_vs=spectral_vs,
    )
    init_val, init_cg, _ = loss_init_grads(cert, init_batch.states, w_init)
    value = lw.lambda_init * init_val + lw.lambda_dec * dec_val

    cert_g = zero_grads(cert.net)
    accumulate(cert_g, init_cg, scale=lw.lambda_init)
    accumulate(cert_g, dec_cg, scale=lw.lambda_dec)
    if cfg.method == "lip-reg":
        lip_val, lip_cg, new_vs = loss_lip_global_grads(
            cert.net, lw.tau, cfg.spectral_iters, spectral_vs
        )
        value += lw.lambda_lip_global * lip_val
        accumulate(cert_g, lip_cg, scale=lw.lambda_lip_global)
    policy_g = zero_grads(policy)
    accumulate(policy_g, dec_pg, scale=lw.lambda_dec)
    return value, cert_g, policy_g, new_vs
