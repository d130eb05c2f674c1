"""Filtered control Lyapunov-barrier certificate.

The certificate is a scalar ReLU network whose output is overridden on the
task sets: goal states evaluate to a fixed low mask, unsafe states to a fixed
high mask above beta. Filtering discharges the barrier condition by
construction: no check or training sample is needed in the unsafe set. The
verifier bounds the filtered value over boxes from above with one routine,
filtered_upper_bound, on whole (k, n) arrays of boxes; no check needs a
lower bound of it. The same bound
over a delta-ball screens the descent condition (decrease_may_fail) for the
verifier's counterexample hunt and for adversarial training alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adversary import check_delta
from .envs import EnvSpec
from .nets import Mlp, ibp_bounds, scalar_value


@dataclass(frozen=True)
class ClbfParams:
    """Scalar parameters of the certificate, validated at construction.

    beta: cap on initial states; epsilon: required per-step decrease; delta:
    l-inf perturbation radius; goal_mask: value on the goal set, the
    certificate's global lower bound; unsafe_mask: value on the unsafe set,
    the barrier threshold, above beta.
    """

    beta: float = 1.0
    epsilon: float = 5e-3
    delta: float = 0.0
    goal_mask: float = -10.0
    unsafe_mask: float = 1.2

    def __post_init__(self):
        self.validate()

    def validate(self):
        # written so that a NaN fails each test
        if not self.unsafe_mask > self.beta > self.goal_mask:
            raise ValueError("need unsafe_mask > beta > goal_mask")
        if not (self.goal_mask > -np.inf and self.unsafe_mask < np.inf):
            raise ValueError("goal_mask and unsafe_mask must be finite")
        check_epsilon(self.epsilon)
        check_delta(self.delta)
        return self


def check_epsilon(epsilon: float):
    """Reject a decrease margin that is not positive and finite, or NaN."""
    if not 0 < epsilon < np.inf:
        raise ValueError("epsilon must be positive and finite")


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


def filtered_upper_bound(
    cert: FilteredCertificate, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Sound upper bound on the filtered value over each of (k, n) boxes.

    The mask value of each set a box meets counts, and the network is bounded
    only on the part of the box outside the masked sets, tiled exactly by
    env.unmasked_pieces: one interval pass over all pieces, and each box
    takes the largest bound of its own. Every tile lies inside its box and
    the same mask values count, so at each box this bound is at most the
    whole-box bound (the network's interval bound over the whole box, raised
    to the masks of the sets it meets), up to float rounding.
    """
    env, p = cert.env, cert.params
    u_int = env.unsafe_intersects(lo, hi)
    out = np.full(lo.shape[0], -np.inf)
    out[env.goal_intersects(lo, hi)] = p.goal_mask
    out[u_int] = np.maximum(out[u_int], p.unsafe_mask)
    piece_lo, piece_hi, owner = env.unmasked_pieces(lo, hi)
    np.maximum.at(out, owner, ibp_bounds(cert.net, piece_lo, piece_hi)[1][:, 0])
    return out


def decrease_may_fail(cert: FilteredCertificate, eligible: np.ndarray,
                      v_x: np.ndarray, nxt: np.ndarray, delta: float,
                      epsilon: float) -> np.ndarray:
    """The eligible rows whose descent hinge epsilon - (v_x - V(y)) can be
    non-negative at some y in the delta-ball around their next state nxt.

    The test is epsilon - (v_x - ub) >= 0, with ub the filtered_upper_bound
    of the ball. Every ball point's filtered value is at most ub, so at every
    other row the hinge is negative throughout the ball (up to the rounding
    of ub): no search of that ball can find a violation or move a hinge
    loss. Only the eligible rows are bounded.
    """
    may_fail = np.zeros(len(eligible), dtype=bool)
    rows = np.flatnonzero(eligible)
    ub = filtered_upper_bound(cert, nxt[rows] - delta, nxt[rows] + delta)
    may_fail[rows] = epsilon - (v_x[rows] - ub) >= 0
    return may_fail
