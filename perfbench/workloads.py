"""The three workloads: set-up, one operation, its outside checks and outputs.

verify-robust   check_robust_decrease of the pinned pair at delta = DELTA,
                ce_limit 8 as in CEGIS, fixed box budget. Every failed box
                is hunted with inner PGD, so the adversary and the nets'
                input-gradient passes do most of the work. The check runs
                24 rounds (a round pops the boxes its predecessor split, at
                most one 4096-row chunk): 1, 2, 4, ..., 2048 and 1672 boxes,
                a trough of 16 to 398 while interval bounds prove most of
                the domain, then 742, 1382, 2726 and 4096 around the planted
                fixed point; 15599 boxes, 10334 of them hunted. The hunt's
                sign ascent finds one witness, at the fixed point, in round
                14.
verify-nominal  the same pair, budget and seed at delta = 0. PGD returns at
                once, so the time goes to interval bounds, the interval step,
                splitting and the box queue; an adversary change must not
                move it. Interval bounds prove all but the witness's box
                and some min-width boxes at the fixed point within 12125
                boxes. Run it by name; BENCHMARK.json leaves it out so that
                the gated workloads get runs long enough to be steady on a
                shared 2-core machine.
train-pgd       TRAIN_STEPS joint steps of total_loss_grads (method pgd,
                batch 512) plus Adam.step from a seeded init: the nets'
                reverse pass for parameter gradients.

The workload seed is the verifier's PGD seed on verify-*, and the init and
sampling seed on train-pgd. clbf is reached only through public calls, and
the layer calls are looked up on their modules at call time so that the
tracer sees them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

import clbf.losses
import clbf.verifier
from clbf.adversary import PgdConfig
from clbf.certificate import FilteredCertificate
from clbf.envs import EnvSpec
from clbf.losses import Batch, LossWeights, TotalLossConfig
from clbf.nets import Adam, Mlp, forward_batch, init_mlp
from clbf.verifier import WITNESS_SLACK, BnbConfig, Verdict

import synth

WORKLOADS = ("verify-robust", "verify-nominal", "train-pgd")
BOX_BUDGET = 12288  # B&B stops at the first round that reaches this
CE_LIMIT = 8        # TrainConfig.ce_limit
TRAIN_STEPS = 16
TRAIN_BATCH = 512   # TrainConfig.batch_size


@dataclass
class VerifyState:
    env: EnvSpec
    policy: Mlp
    cert: FilteredCertificate
    delta: float
    cfg: BnbConfig


@dataclass
class TrainState:
    env: EnvSpec
    policy0: Mlp
    cert0: FilteredCertificate
    loss_cfg: TotalLossConfig
    seed: int
    steps: int = TRAIN_STEPS


@dataclass
class TrainResult:
    losses: list[float]
    policy: Mlp
    cert: FilteredCertificate


def setup(workload: str, seed: int):
    """Everything an operation needs; the part timed as setup_s."""
    env = synth.synth_env()
    if workload in ("verify-robust", "verify-nominal"):
        policy, cert = synth.load_pair(env)
        delta = synth.DELTA if workload == "verify-robust" else 0.0
        cfg = BnbConfig(max_boxes=BOX_BUDGET, ce_limit=CE_LIMIT, seed=seed).validate()
        return VerifyState(env, policy, cert, delta, cfg)
    if workload == "train-pgd":
        rng = np.random.default_rng(seed)
        policy = init_mlp(synth.POLICY_DIMS, rng)
        params = synth.clbf_params(synth.TRAIN_EPSILON)
        cert = FilteredCertificate(init_mlp(synth.CERT_DIMS, rng), params, env)
        pgd = PgdConfig(steps=20, delta=synth.DELTA, restarts=3)
        loss_cfg = TotalLossConfig("pgd", LossWeights(), synth.DELTA, pgd, 5).validate()
        return TrainState(env, policy, cert, loss_cfg, seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def run_op(state):
    if isinstance(state, VerifyState):
        return clbf.verifier.check_robust_decrease(
            state.cert, state.policy, state.env, state.delta, synth.EPSILON, state.cfg)
    return _train(state)


def _train(s: TrainState) -> TrainResult:
    rng = np.random.default_rng((s.seed, 1))
    policy = s.policy0.copy()
    cert = FilteredCertificate(s.cert0.net.copy(), s.cert0.params, s.env)
    opt_cert, opt_policy = Adam(lr=1e-3), Adam(lr=1e-3)
    vs, losses = None, []
    for _ in range(s.steps):
        init_b = Batch(s.env.sample_init(rng, TRAIN_BATCH))
        dec_b = Batch(s.env.sample_states(rng, TRAIN_BATCH))
        loss, cg, pg, vs = clbf.losses.total_loss_grads(
            s.loss_cfg, cert, policy, s.env, init_b, dec_b, rng, spectral_vs=vs)
        losses.append(loss)
        opt_cert.step(cert.net.params(), cg)
        opt_policy.step(policy.params(), pg)
    return TrainResult(losses, policy, cert)


def check(state, result) -> list[str]:
    """Outside checks through public calls; an empty list means correct."""
    if isinstance(state, VerifyState):
        return _check_verdict(state, result)
    problems = []
    if not all(np.isfinite(result.losses)):
        problems.append(f"non-finite training loss {result.losses}")
    if not (result.policy.all_finite() and result.cert.net.all_finite()):
        problems.append("non-finite parameters after training")
    return problems


def _check_verdict(s: VerifyState, v: Verdict) -> list[str]:
    problems = []
    if v.status not in ("proved", "counterexample", "unknown"):
        problems.append(f"unknown verdict status {v.status!r}")
    if v.status == "counterexample" and not v.witnesses:
        problems.append("counterexample verdict without a witness")
    if not 0.0 <= v.unknown_volume_fraction <= 1.0:
        problems.append(f"unknown volume fraction {v.unknown_volume_fraction}")
    if len(v.witnesses) > s.cfg.ce_limit:
        problems.append(f"{len(v.witnesses)} witnesses past ce_limit {s.cfg.ce_limit}")
    for i, w in enumerate(v.witnesses):
        x = np.asarray(w.state, dtype=float)[None]
        u = s.env.clamp_control(forward_batch(s.policy, x))
        nxt = s.env.step(x, u)[0]
        y = np.asarray(w.ball_point, dtype=float)
        if np.abs(y - nxt).max() > s.delta + 1e-12:
            problems.append(f"witness {i}: ball point off the delta-ball around f(x, pi(x))")
        v_x = s.cert.value(x)[0]
        if v_x > s.cert.params.beta or s.env.in_goal(x)[0]:
            problems.append(f"witness {i}: state is not eligible")
        violation = synth.EPSILON - (v_x - s.cert.value(y[None])[0])
        if violation < WITNESS_SLACK:
            problems.append(f"witness {i}: violation {violation!r} below WITNESS_SLACK")
    return problems


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def outputs(result) -> dict:
    """Deterministic outputs, compared exactly between commits."""
    if isinstance(result, Verdict):
        return {"status": result.status,
                "boxes_processed": result.boxes_processed,
                "witnesses": len(result.witnesses),
                "witness_digest": _digest(
                    [a for w in result.witnesses for a in (w.state, w.ball_point)]),
                "unknown_boxes": len(result.unknown_boxes),
                "unknown_volume_frac": result.unknown_volume_fraction}
    return {"steps": len(result.losses),
            "final_loss": result.losses[-1],
            "loss_digest": _digest([result.losses]),
            "param_digest": _digest(result.policy.params() + result.cert.net.params())}
