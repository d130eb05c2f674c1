"""Filtered control Lyapunov-barrier certificate.

The certificate is a scalar ReLU network whose output is overridden on the
task sets: goal states evaluate to a fixed low mask, unsafe states to a fixed
high mask. Filtering discharges the barrier condition by construction, so no
training samples are needed inside the unsafe set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import Box
from .envs import EnvSpec
from .nets import Mlp, ibp_bounds, scalar_value


@dataclass
class ClbfParams:
    """Scalar parameters of the certificate and its robustness contract.

    alpha: threshold exceeded on unsafe states; beta: cap on initial states;
    epsilon: required per-step decrease; delta: l-inf perturbation radius;
    goal_mask: value on the goal set, the certificate's global lower bound.
    """

    alpha: float = 1.2
    beta: float = 1.0
    epsilon: float = 5e-3
    delta: float = 0.0
    goal_mask: float = -10.0
    unsafe_mask: float = 1.2

    def validate(self):
        if not (self.alpha > self.beta > self.goal_mask):
            raise ValueError("need alpha > beta > goal_mask")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.unsafe_mask < self.alpha:
            raise ValueError("unsafe_mask must be >= alpha")
        return self


@dataclass(frozen=True)
class FilteredCertificate:
    """Certificate network with goal/unsafe masking over an environment."""

    net: Mlp
    params: ClbfParams
    env: EnvSpec

    def __post_init__(self):
        if self.net.n_in != self.env.state_dim or self.net.n_out != 1:
            raise ValueError("certificate dimensions do not match the environment")

    def raw(self, X: np.ndarray) -> np.ndarray:
        """Unmasked network values, batched."""
        return scalar_value(self.net, np.atleast_2d(X))

    def apply_masks(self, X: np.ndarray, raw: np.ndarray):
        """Filter raw network values at states X: goal_mask on the goal set,
        unsafe_mask on the unsafe set (EnvSpec keeps the two disjoint), raw
        elsewhere.

        Returns (filtered values, mask of the states where raw applies).
        """
        in_unsafe = self.env.in_unsafe(X)
        in_goal = self.env.in_goal(X)
        v = np.where(in_goal, self.params.goal_mask,
                     np.where(in_unsafe, self.params.unsafe_mask, raw))
        return v, ~(in_goal | in_unsafe)

    def value(self, X: np.ndarray) -> np.ndarray:
        """Filtered values, batched (see apply_masks)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.apply_masks(X, scalar_value(self.net, X))[0]


def value_bounds_arrays(
    cert: FilteredCertificate, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sound bounds on the filtered value over each of (k, n) boxes.

    Mask values of any intersected set are included, and unless a box is
    entirely masked the whole box is fed through the network. Conservative
    when a box straddles set boundaries, but child boxes of a bisection never
    yield looser bounds than their parent, so refining a box in check_init
    never loses ground; test_value_bounds_monotone_refinement checks this.
    That is why this routine stays next to the tighter clipped_bounds: the
    tiled bound is not monotone under bisection. On 3,000 random pendulum boxes
    (seeded [2, 16, 8, 1] certificate), 160 of the 12,000 bisection children
    had tiled bounds looser than their parent's.
    """
    env, p = cert.env, cert.params
    k = lo.shape[0]
    goal_hit = env.goal_intersects(lo, hi)
    goal_all = env.goal_contains(lo, hi)
    unsafe_hit = env.unsafe_intersects(lo, hi)
    unsafe_all = env.unsafe_contains(lo, hi)
    fully_masked = goal_all | unsafe_all

    out_lo = np.full(k, np.inf)
    out_hi = np.full(k, -np.inf)
    need_net = ~fully_masked
    if np.any(need_net):
        n_lo, n_hi = ibp_bounds(cert.net, lo[need_net], hi[need_net])
        out_lo[need_net] = n_lo[:, 0]
        out_hi[need_net] = n_hi[:, 0]
    out_lo = np.where(goal_hit, np.minimum(out_lo, p.goal_mask), out_lo)
    out_hi = np.where(goal_hit, np.maximum(out_hi, p.goal_mask), out_hi)
    out_lo = np.where(unsafe_hit, np.minimum(out_lo, p.unsafe_mask), out_lo)
    out_hi = np.where(unsafe_hit, np.maximum(out_hi, p.unsafe_mask), out_hi)
    return out_lo, out_hi


def clipped_bounds(
    cert: FilteredCertificate, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Tighter sound bounds on the filtered value over each of (k, n) boxes:
    the network is only evaluated on the part of a box outside the masked
    sets (tiled exactly), masks cover the rest.

    Used by the verifier for next-state boxes, where the whole-box treatment
    of value_bounds_arrays would drag goal-adjacent regions through the
    network.
    """
    env, p = cert.env, cert.params
    k = lo.shape[0]
    g_int = env.goal_intersects(lo, hi)
    u_int = env.unsafe_intersects(lo, hi)
    out_lo = np.full(k, np.inf)
    out_hi = np.full(k, -np.inf)
    out_lo[g_int] = out_hi[g_int] = p.goal_mask
    out_lo[u_int] = np.minimum(out_lo[u_int], p.unsafe_mask)
    out_hi[u_int] = np.maximum(out_hi[u_int], p.unsafe_mask)
    plain = ~g_int & ~u_int
    if np.any(plain):
        n_lo, n_hi = ibp_bounds(cert.net, lo[plain], hi[plain])
        out_lo[plain] = n_lo[:, 0]
        out_hi[plain] = n_hi[:, 0]
    # boxes that straddle a mask boundary: tile the unmasked part exactly
    piece_lo, piece_hi, owner = [], [], []
    for i in np.flatnonzero(~plain):
        for piece in env.unmasked_pieces(Box(lo[i], hi[i])):
            piece_lo.append(piece.lo)
            piece_hi.append(piece.hi)
            owner.append(i)
    if owner:
        n_lo, n_hi = ibp_bounds(cert.net, np.stack(piece_lo), np.stack(piece_hi))
        np.minimum.at(out_lo, np.asarray(owner), n_lo[:, 0])
        np.maximum.at(out_hi, np.asarray(owner), n_hi[:, 0])
    return out_lo, out_hi
