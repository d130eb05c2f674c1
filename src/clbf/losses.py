"""Training losses for the certificate-controller pair.

All losses are hinge sums: non-negative, zero exactly when every summand's
condition holds with the required margin. The descent loss evaluates the
next state through the filtered certificate, so transitions into the goal
are rewarded by the low goal mask and transitions into the unsafe set are
penalised by the high unsafe mask.

Four functions: loss_init_grads (initial-set cap), loss_dec_grads (the
descent condition), loss_lip_global_grads (global Lipschitz regularisation)
and total_loss_grads (the weighted sum a training method uses). The terms
read one settings object, TotalLossConfig, and speak one vocabulary, its
method: "vanilla", "pgd", "lip-neighbor" or "lip-reg". Each returns its
value together with exact reverse-mode gradients with respect to the
certificate parameters and, where they enter, the policy parameters; no
term returns gradients with respect to the states, which training does not
use. Gradients flow through the dynamics' control Jacobian into the policy;
for the adversarial objective they flow through the certificate at the
attacked point but not through the search that found it.

The adversarial objective takes its ball point from verifier.ball_max, the
verifier's own: a ball reaching the unsafe set counts at unsafe_mask, and
the hinge's gradient then comes through -V(x) alone. The search runs only
on the rows that certificate.decrease_may_fail passes, the interval screen
the verifier's counterexample hunt uses: eligible rows whose hinge can be
positive somewhere in the ball. At every other row the hinge is zero
throughout the ball (up to the rounding of the interval bound), so
whichever ball point is used there adds nothing to the value or to any
gradient; the search is skipped and the nominal next state kept.
Ineligible rows count nothing and get no search either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversary import PgdConfig, check_delta
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
from .verifier import ball_max

METHODS = ("vanilla", "pgd", "lip-neighbor", "lip-reg")


# Loss coefficients no caller varies, read at call time. One becomes a
# LossWeights field again only when two callers need different values.
LAMBDA_INIT = 1.0
LAMBDA_DEC = 10.0  # the descent term, whichever objective the method uses
LAMBDA_LIP_GLOBAL = 1.0
CE_WEIGHT = 100.0  # the multiplier of counterexample-tagged states


@dataclass
class LossWeights:
    """The Lipschitz budget of the lip-reg term."""

    tau: float = 3.0

    def validate(self):
        if not self.tau > 0:  # a NaN fails too
            raise ValueError("tau must be positive")
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

    def weight_vector(self) -> np.ndarray:
        return np.where(self.is_ce, CE_WEIGHT, 1.0)


# ---------------------------------------------------------------------------
# initial-set loss


def loss_init_grads(cfg: TotalLossConfig, cert: FilteredCertificate, batch: Batch):
    """Hinge sum of V(x) <= beta over initial states: (value, cert_grads).

    Raw network values: the initial set is unmasked (its goal overlap is
    trained too, which keeps interval bounds provable across the boundary).
    """
    cfg.validate()
    w = batch.weight_vector()
    tape = forward_tape(cert.net, batch.states)
    v = tape.output[:, 0]
    active = v > cert.params.beta
    value = float((w * np.maximum(0.0, v - cert.params.beta)).sum())
    return value, backward(cert.net, tape, (w * active)[:, None])[0]


# ---------------------------------------------------------------------------
# descent loss


def loss_dec_grads(cfg: TotalLossConfig, cert: FilteredCertificate, policy: Mlp,
                   batch: Batch, rng: np.random.Generator | None = None,
                   spectral_vs: list[np.ndarray] | None = None):
    """Descent hinge sum: V must drop by at least epsilon per step.

    The next state is, by cfg.method: the nominal one ("vanilla",
    "lip-reg"); the ball point of verifier.ball_max ("pgd"; unsafe reach
    included, the offset treated as frozen, the search run only on the rows
    decrease_may_fail passes, as elsewhere the hinge and its gradients are
    zero at every ball point); or the nominal one plus the slack L * delta
    ("lip-neighbor"), with L = linf_lipschitz_bound of the current weights
    and its gradient, which covers the whole delta-ball.

    Returns (value, cert_grads, policy_grads, spectral_vs).
    """
    cfg.validate()
    env, p, X, delta = cert.env, cert.params, batch.states, cfg.delta
    w = batch.weight_vector()

    tape_x = forward_tape(cert.net, X)
    V_x = tape_x.output[:, 0]
    # precondition: summands only where V(x) <= beta; goal states never count
    eligible = (V_x <= p.beta) & ~env.in_goal(X)

    tape_pi = forward_tape(policy, X)
    U_raw = tape_pi.output
    NXT = env.step(X, U_raw)  # clamps internally

    L, dL = 0.0, None
    if cfg.method == "lip-neighbor":
        L, dL, spectral_vs = linf_lipschitz_bound(cert.net, cfg.spectral_iters,
                                                  spectral_vs)

    Y = NXT
    if cfg.method == "pgd" and delta > 0.0:
        may_fail = decrease_may_fail(cert, eligible, V_x, NXT, delta, p.epsilon)
        Y = ball_max(cert, NXT, cert.value(NXT), delta,
                     cfg.pgd_cfg if cfg.pgd_cfg is not None else PgdConfig(),
                     rng, may_fail)[1]

    tape_y = forward_tape(cert.net, Y)
    V_y, unmasked_y = cert.apply_masks(Y, tape_y.output[:, 0])

    residual = p.epsilon - (V_x - V_y - L * delta)
    hinge = np.where(eligible, np.maximum(0.0, residual), 0.0)
    value = float((w * hinge).sum())

    active = eligible & (residual > 0.0)
    coef = w * active

    # certificate: -dV(x) + dV(y) on the unmasked paths, + delta * dL; the
    # upstream coefficients carry the batch weights and hinge masks
    cert_g = backward(cert.net, tape_x, -coef[:, None])[0]
    g_y, gy = backward(cert.net, tape_y, (coef * unmasked_y)[:, None])
    accumulate(cert_g, g_y)
    if dL is not None and delta > 0.0:
        accumulate(cert_g, dL, scale=delta * coef.sum())

    # policy: through the dynamics' control Jacobian at the (clamped) control
    Bu = env.step_jac(X, U_raw)[1]
    policy_g = backward(policy, tape_pi, np.einsum("kij,ki->kj", Bu, gy))[0]
    return value, cert_g, policy_g, spectral_vs


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
    """The settings every loss term reads: the training method (one of
    METHODS), the weights (the coefficients themselves are this module's
    constants), the perturbation radius and its PGD search, and the power
    iterations of the Lipschitz estimates."""

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
        if self.pgd_cfg is not None and self.pgd_cfg.delta != self.delta:
            raise ValueError(f"pgd_cfg.delta={self.pgd_cfg.delta} differs from "
                             f"delta={self.delta}")
        return self


def total_loss_grads(cfg: TotalLossConfig, cert: FilteredCertificate,
                     policy: Mlp, env: EnvSpec, init_batch: Batch,
                     dec_batch: Batch, rng: np.random.Generator | None = None,
                     spectral_vs: list[np.ndarray] | None = None):
    """Weighted sum of the method's active loss terms.

    Counterexample-tagged states contribute with multiplier CE_WEIGHT; env
    must be the certificate's cert.env, or a ValueError is raised. Returns
    (value, cert_grads, policy_grads, spectral_vs); the vectors warm start
    the next step's power iteration.
    """
    if env is not cert.env:
        raise ValueError("env is not the certificate's environment cert.env")
    dec_val, dec_cg, dec_pg, new_vs = loss_dec_grads(cfg, cert, policy, dec_batch,
                                                     rng, spectral_vs)
    init_val, init_cg = loss_init_grads(cfg, cert, init_batch)
    value = LAMBDA_INIT * init_val + LAMBDA_DEC * dec_val

    cert_g = zero_grads(cert.net)
    accumulate(cert_g, init_cg, scale=LAMBDA_INIT)
    accumulate(cert_g, dec_cg, scale=LAMBDA_DEC)
    if cfg.method == "lip-reg":
        lip_val, lip_cg, new_vs = loss_lip_global_grads(
            cert.net, cfg.weights.tau, cfg.spectral_iters, spectral_vs
        )
        value += LAMBDA_LIP_GLOBAL * lip_val
        accumulate(cert_g, lip_cg, scale=LAMBDA_LIP_GLOBAL)
    policy_g = zero_grads(policy)
    accumulate(policy_g, dec_pg, scale=LAMBDA_DEC)
    return value, cert_g, policy_g, new_vs
