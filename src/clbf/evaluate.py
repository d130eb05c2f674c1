"""Empirical robustness campaigns: perturbed rollouts and success tables.

A rollout applies either the filtered certificate's delta-ball maximizer
(verifier.ball_max) or uniform random noise to each computed next state,
and terminates on goal entry, unsafe entry (such as leaving pendulum's
domain; EnvSpec keeps the two sets disjoint), or the horizon. Campaigns are
vectorised across all rollouts and deterministic given their seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adversary import PgdConfig
from .certificate import FilteredCertificate
from .envs import EnvSpec
from .nets import Mlp, forward_batch
from .verifier import ball_max

OUTCOME_GOAL = "reached_goal"
OUTCOME_UNSAFE = "entered_unsafe"
OUTCOME_TIMEOUT = "timed_out"
WILSON_Z = 1.96  # two-sided 95 percent normal quantile


@dataclass
class Campaign:
    n_states: int = 10_000
    horizon: int = 200
    modes: list[tuple[str, float]] = field(default_factory=lambda: [("adversarial", 0.01)])
    seed: int = 0
    pgd: PgdConfig = field(default_factory=PgdConfig)


def rollout_batch(policy: Mlp, cert: FilteredCertificate, X0: np.ndarray, mode: str,
                  delta: float, horizon: int, rng: np.random.Generator,
                  pgd: PgdConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Simulate all rollouts together on cert.env; returns (outcomes, steps) arrays.

    mode "adversarial": each next state is replaced by verifier.ball_max,
    the filtered certificate's maximizer in its delta-ball, with the PGD
    settings of `pgd` (defaults if None). mode "random": uniform
    per-coordinate noise in [-delta, delta].
    """
    if mode not in ("adversarial", "random"):
        raise ValueError(f"unknown perturbation mode {mode!r}")
    X = np.atleast_2d(np.asarray(X0, dtype=float)).copy()
    k = X.shape[0]
    outcome = np.full(k, -1, dtype=np.int8)  # -1 running, 0 goal, 1 unsafe
    steps = np.full(k, horizon, dtype=np.int64)
    active = np.arange(k)
    pgd = pgd or PgdConfig()
    for t in range(1, horizon + 1):
        if active.size == 0:
            break
        Xa = X[active]
        nxt = cert.env.step(Xa, forward_batch(policy, Xa))  # step clamps the control
        if delta > 0.0:
            if mode == "adversarial":
                nxt = ball_max(cert, nxt, cert.value(nxt), delta, pgd, rng,
                               np.ones(len(nxt), dtype=bool))[1]
            else:
                nxt = nxt + rng.uniform(-delta, delta, nxt.shape)
        X[active] = nxt
        in_goal = cert.env.in_goal(nxt)
        in_unsafe = cert.env.in_unsafe(nxt)
        done = in_goal | in_unsafe
        if np.any(done):
            idx = active[done]
            outcome[idx] = np.where(in_goal[done], 0, 1)
            steps[idx] = t
            active = active[~done]
    outcomes = np.where(outcome == 0, OUTCOME_GOAL,
                        np.where(outcome == 1, OUTCOME_UNSAFE, OUTCOME_TIMEOUT))
    return outcomes, steps


def sample_initial_states(env: EnvSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """States from the initial set but outside the goal, by rejection."""
    out = np.empty((0, env.state_dim))
    while out.shape[0] < n:
        cand = env.sample_init(rng, 2 * n)
        keep = ~env.in_goal(cand)
        out = np.concatenate([out, cand[keep]])
    return out[:n]


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """95 percent score interval for a binomial proportion."""
    z = WILSON_Z
    if n == 0:
        return 0.0, 1.0
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class CampaignRow:
    mode: str
    delta: float
    n: int
    successes: int
    rate: float
    wilson_lo: float
    wilson_hi: float


def run_campaign(policy: Mlp, cert: FilteredCertificate,
                 campaign: Campaign) -> list[CampaignRow]:
    """Success rate per (mode, delta) over shared initial states of cert.env."""
    root = np.random.SeedSequence(campaign.seed)
    init_ss, *mode_ss = root.spawn(1 + len(campaign.modes))
    X0 = sample_initial_states(cert.env, campaign.n_states, np.random.default_rng(init_ss))
    rows = []
    for (mode, delta), ss in zip(campaign.modes, mode_ss):
        outcomes, _ = rollout_batch(policy, cert, X0, mode, delta, campaign.horizon,
                                    np.random.default_rng(ss), campaign.pgd)
        s = int(np.sum(outcomes == OUTCOME_GOAL))
        lo, hi = wilson_interval(s, campaign.n_states)
        rows.append(CampaignRow(mode, delta, campaign.n_states, s,
                                s / campaign.n_states, lo, hi))
    return rows
