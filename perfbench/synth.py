"""The benchmark's own system under test and its pinned certificate-policy pair.

The system is a 2-D discrete-time map with a clamped scalar control,

    x' = A (x - p) + p + b clamp(u, -1, 1) + tent(x) k,

whose uncontrolled attractor p lies outside the domain [-0.25, 0.25]^2, so
almost every trajectory drifts towards p and leaves the domain and a
certificate that decreases along the flow exists with a true margin. The
exception is planted: tent is a pyramid of height 1 on an L1 ball of radius
BUMP_RADIUS around BUMP_CENTER and k cancels the drift at its apex, so
BUMP_CENTER is a fixed point and no certificate decreases in a small diamond
around it. Interval bounds cannot prove the boxes near it, and the
counterexample hunt finds the diamond only once the boxes are a few
thousandths wide, deep in the branch-and-bound tree. Every other failed box
is hunted in full without a witness. The map is piecewise affine, and its
step, Jacobian and interval image are exact. There is no goal and no unsafe
set, so the verifier never takes its mask path.

The pair is stored as JSON with repr-exact floats in ``pair.json`` next to
this file; ``make_pair.py`` regenerates it from PAIR_SEED by running the
train-pgd workload's training loop for PAIR_STEPS steps.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from clbf.boxes import Box
from clbf.certificate import ClbfParams, FilteredCertificate
from clbf.envs import EnvSpec
from clbf.nets import Mlp

PAIR_PATH = Path(__file__).resolve().parent / "pair.json"
PAIR_SEED = 3
PAIR_STEPS = 300
CERT_DIMS = [2, 64, 32, 16, 1]     # TrainConfig.cert_hidden
POLICY_DIMS = [2, 128, 128, 1]     # pendulum policy_hidden
DELTA = 5e-3                       # pendulum pgd default
EPSILON = 5e-3                     # pendulum default
# Training asks for ten times the verified decrease, so away from the planted
# fixed point the check at EPSILON holds with room to spare and interval
# bounds prove most of the domain within the verify workloads' box budget.
TRAIN_EPSILON = 10 * EPSILON

A = np.array([[0.6, 0.1], [-0.1, 0.6]])
ATTRACTOR = np.array([1.5, 0.0])
B = np.array([0.0, 0.02])
# The planted fixed point lies two thirds and one third of the way across the
# domain, so every box centre stays about a sixth of a box width from it and
# only the hunt's sign ascent reaches the violating diamond: in round 14 of
# the verify-robust check's 24, at tree depth 13.
BUMP_CENTER = np.array([0.0833, -0.0834])
BUMP_RADIUS = 0.01
BUMP_K = (np.eye(2) - A) @ (BUMP_CENTER - ATTRACTOR)  # f(BUMP_CENTER, 0) = BUMP_CENTER


def _tent(X):
    """Value and gradient of the pyramid max(0, 1 - |x - c|_1 / r)."""
    d = X - BUMP_CENTER
    t = 1.0 - np.abs(d).sum(axis=1) / BUMP_RADIUS
    inside = t > 0.0
    grad = -np.sign(d) / BUMP_RADIUS * inside[:, None]
    return np.maximum(t, 0.0), grad


def _tent_interval(lo, hi):
    """Exact range of the pyramid over each box [lo, hi]."""
    near = np.maximum(np.maximum(lo - BUMP_CENTER, BUMP_CENTER - hi), 0.0).sum(axis=1)
    far = np.maximum(np.abs(lo - BUMP_CENTER), np.abs(hi - BUMP_CENTER)).sum(axis=1)
    return (np.maximum(1.0 - far / BUMP_RADIUS, 0.0),
            np.maximum(1.0 - near / BUMP_RADIUS, 0.0))


def synth_env() -> EnvSpec:
    """The drift system, built through the public EnvSpec constructor."""
    absA, absB = np.abs(A), np.abs(B)
    offset = ATTRACTOR - A @ ATTRACTOR
    domain = Box(np.array([-0.25, -0.25]), np.array([0.25, 0.25]))
    init = Box(np.array([-0.25, -0.125]), np.array([-0.125, 0.125]))
    control_box = Box(np.array([-1.0]), np.array([1.0]))

    def step(X, U):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        U = np.atleast_2d(np.asarray(U, dtype=float))
        u = np.clip(U[:, :1], -1.0, 1.0)
        t, _ = _tent(X)
        return X @ A.T + offset + u * B + t[:, None] * BUMP_K

    def step_jac(X, U):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        U = np.atleast_2d(np.asarray(U, dtype=float))
        mask = ((U[:, 0] > -1.0) & (U[:, 0] < 1.0)).astype(float)
        _, grad = _tent(X)
        return (A + BUMP_K[None, :, None] * grad[:, None, :],
                B[None, :, None] * mask[:, None, None])

    def step_interval_arrays(x_lo, x_hi, u_lo, u_hi):
        u_lo = np.clip(u_lo[:, :1], -1.0, 1.0)
        u_hi = np.clip(u_hi[:, :1], -1.0, 1.0)
        mid = 0.5 * (x_lo + x_hi) @ A.T + offset + 0.5 * (u_lo + u_hi) * B
        rad = 0.5 * (x_hi - x_lo) @ absA.T + 0.5 * (u_hi - u_lo) * absB
        t_lo, t_hi = _tent_interval(x_lo, x_hi)
        k_pos, k_neg = np.maximum(BUMP_K, 0.0), np.minimum(BUMP_K, 0.0)
        lo = mid - rad + t_lo[:, None] * k_pos + t_hi[:, None] * k_neg
        hi = mid + rad + t_hi[:, None] * k_pos + t_lo[:, None] * k_neg
        return lo, hi

    def nowhere(x):
        return np.zeros(np.atleast_2d(x).shape[0], dtype=bool)

    def no_box(lo, hi):
        return np.zeros(np.atleast_2d(lo).shape[0], dtype=bool)

    return EnvSpec(
        name="perfbench-drift2d", state_dim=2, control_dim=1,
        domain=domain, control_box=control_box,
        init_boxes=[init], goal_boxes=[], unsafe_boxes=[],
        constants={}, step=step, step_jac=step_jac,
        step_interval_arrays=step_interval_arrays,
        in_goal=nowhere, in_unsafe=nowhere,
        goal_intersects=no_box, goal_contains=no_box,
        unsafe_intersects=no_box, unsafe_contains=no_box,
        eligible_cover=[domain],
    )


def clbf_params(epsilon: float = EPSILON) -> ClbfParams:
    return ClbfParams(epsilon=epsilon, delta=DELTA).validate()


def _net_doc(net: Mlp) -> dict:
    return {"weights": [W.tolist() for W in net.weights],
            "biases": [b.tolist() for b in net.biases]}


def _net_from_doc(doc: dict) -> Mlp:
    return Mlp([np.array(W, dtype=float) for W in doc["weights"]],
               [np.array(b, dtype=float) for b in doc["biases"]])


def save_pair(policy: Mlp, cert_net: Mlp, info: dict, path: Path = PAIR_PATH):
    doc = {"seed": PAIR_SEED, "steps": PAIR_STEPS, "info": info,
           "policy": _net_doc(policy), "certificate": _net_doc(cert_net)}
    path.write_text(json.dumps(doc) + "\n")


def load_pair(env: EnvSpec, path: Path = PAIR_PATH) -> tuple[Mlp, FilteredCertificate]:
    """The pinned (policy, certificate); rejects nets of the wrong shape."""
    doc = json.loads(path.read_text())
    policy = _net_from_doc(doc["policy"])
    cert_net = _net_from_doc(doc["certificate"])
    if policy.dims != POLICY_DIMS or cert_net.dims != CERT_DIMS:
        raise ValueError(f"{path} holds nets of dims {policy.dims} and "
                         f"{cert_net.dims}, expected {POLICY_DIMS} and {CERT_DIMS}")
    return policy, FilteredCertificate(cert_net, clbf_params(), env)
