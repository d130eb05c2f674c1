"""Benchmark environments: point dynamics, sound interval extensions, task sets.

Two systems are provided. The torque-limited pendulum must reach the upright
region without leaving its domain or falling into its two high-angle corners;
the planar spacecraft (Clohessy-Wiltshire relative motion, exact discrete
closed form) must reach a position box near the origin while keeping position
and velocity inside a safe band. Both step functions are total: controls are
clamped to their bounds inside the step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boxes import Box, subtract, volumes


# ---------------------------------------------------------------------------
# interval helpers


def _iv_scale(a: float, lo: np.ndarray, hi: np.ndarray):
    """a * [lo, hi], sound for either sign of a."""
    x, y = a * lo, a * hi
    return np.minimum(x, y), np.maximum(x, y)


def sin_range(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact range of sin over [lo, hi], vectorised.

    Checks endpoints plus any interior critical points pi/2 + 2k*pi (maxima)
    and -pi/2 + 2k*pi (minima).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    s_lo, s_hi = np.sin(lo), np.sin(hi)
    out_lo = np.minimum(s_lo, s_hi)
    out_hi = np.maximum(s_lo, s_hi)
    two_pi = 2.0 * np.pi
    has_max = np.ceil((lo - np.pi / 2) / two_pi) <= np.floor((hi - np.pi / 2) / two_pi)
    has_min = np.ceil((lo + np.pi / 2) / two_pi) <= np.floor((hi + np.pi / 2) / two_pi)
    out_hi = np.where(has_max, 1.0, out_hi)
    out_lo = np.where(has_min, -1.0, out_lo)
    return out_lo, out_hi


# ---------------------------------------------------------------------------
# environment spec


@dataclass
class EnvSpec:
    """A discrete-time control system plus its task sets.

    step / step_jac / step_interval_arrays are batched over the leading axis
    and clamp the control (or its bounds) to control_box themselves.
    step_jac returns the Jacobians of the total (clamp-included) transition.
    The goal set is the union of goal_boxes. The unsafe set is everything
    outside safe_box together with the union of unsafe_boxes. safe_box
    defaults to the unbounded box, not to domain, so that a system that may
    leave its domain harmlessly (perfbench/synth.py) keeps its network values
    there. The two sets are disjoint: a goal box that meets the unsafe set
    raises ValueError.

    unmasked_pieces tiles the part of boxes outside both sets, where the
    network rather than a mask gives the value; it is always derived from
    these boxes. The set predicates and eligible_cover (the unmasked pieces
    of domain) are derived from them too when left None. Those stay settable
    fields because perfbench/synth.py passes them by keyword.
    """

    name: str
    state_dim: int
    control_dim: int
    domain: Box
    control_box: Box
    init_boxes: list[Box]
    goal_boxes: list[Box]
    unsafe_boxes: list[Box]
    constants: dict
    step: Callable[[np.ndarray, np.ndarray], np.ndarray]
    step_jac: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    step_interval_arrays: Callable[..., tuple[np.ndarray, np.ndarray]]
    safe_box: Box | None = None
    in_goal: Callable[[np.ndarray], np.ndarray] | None = None
    in_unsafe: Callable[[np.ndarray], np.ndarray] | None = None
    goal_intersects: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    goal_contains: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    unsafe_intersects: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    unsafe_contains: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    eligible_cover: list[Box] | None = None

    def __post_init__(self):
        n = self.state_dim
        self.safe_box = self.safe_box or Box(np.full(n, -np.inf), np.full(n, np.inf))
        goal, unsafe, safe = self.goal_boxes, self.unsafe_boxes, [self.safe_box]
        # a box meets the complement of safe iff it is not inside safe, and
        # lies in it iff it misses safe
        derived = dict(
            in_goal=lambda x: _boxes_contain(goal, x, x),
            goal_intersects=lambda lo, hi: _boxes_intersect(goal, lo, hi),
            goal_contains=lambda lo, hi: _boxes_contain(goal, lo, hi),
            in_unsafe=lambda x: ~_boxes_contain(safe, x, x) | _boxes_contain(unsafe, x, x),
            unsafe_intersects=lambda lo, hi: (~_boxes_contain(safe, lo, hi)
                                              | _boxes_intersect(unsafe, lo, hi)),
            unsafe_contains=lambda lo, hi: (~_boxes_intersect(safe, lo, hi)
                                            | _boxes_contain(unsafe, lo, hi)),
        )
        for name, fn in derived.items():
            if getattr(self, name) is None:
                setattr(self, name, fn)
        for g in goal:
            if self.unsafe_intersects(g.lo, g.hi)[0]:
                raise ValueError(f"goal box {g} meets the unsafe set")
        if self.eligible_cover is None:
            lo, hi, _ = self.unmasked_pieces(self.domain.lo[None], self.domain.hi[None])
            self.eligible_cover = [Box(l, h) for l, h in zip(lo, hi)]

    def unmasked_pieces(self, lo: np.ndarray, hi: np.ndarray):
        """Tile the part of each of the (k, n) boxes [lo, hi] outside the goal
        and unsafe sets: (piece_lo, piece_hi, owner) as boxes.subtract gives
        them, after each box is clipped to safe_box."""
        lo = np.maximum(lo, self.safe_box.lo)
        hi = np.minimum(hi, self.safe_box.hi)
        rows = np.flatnonzero(np.all(lo <= hi, axis=1))
        p_lo, p_hi, owner = subtract(lo[rows], hi[rows], self.goal_boxes + self.unsafe_boxes)
        return p_lo, p_hi, rows[owner]

    def clamp_control(self, u: np.ndarray) -> np.ndarray:
        return np.clip(u, self.control_box.lo, self.control_box.hi)

    def sample_init(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Uniform over the initial set (proportional to box volumes)."""
        if len(self.init_boxes) == 1:
            return self.init_boxes[0].sample(rng, k)
        vols = volumes(np.array([b.lo for b in self.init_boxes]),
                       np.array([b.hi for b in self.init_boxes]))
        counts = rng.multinomial(k, vols / vols.sum())
        parts = [b.sample(rng, c) for b, c in zip(self.init_boxes, counts) if c]
        return np.concatenate(parts)

    def sample_states(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Uniform over domain \\ (goal u unsafe) by rejection."""
        out = np.empty((0, self.state_dim))
        region = self.eligible_cover
        lo = np.stack([b.lo for b in region]).min(axis=0)
        hi = np.stack([b.hi for b in region]).max(axis=0)
        while out.shape[0] < k:
            cand = rng.uniform(lo, hi, size=(2 * k, self.state_dim))
            keep = ~self.in_goal(cand) & ~self.in_unsafe(cand)
            out = np.concatenate([out, cand[keep]])
        return out[:k]


def _boxes_intersect(boxes: list[Box], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    lo = np.atleast_2d(lo)
    hi = np.atleast_2d(hi)
    hit = np.zeros(lo.shape[0], dtype=bool)
    for b in boxes:
        hit |= np.all((lo <= b.hi) & (b.lo <= hi), axis=1)
    return hit


def _boxes_contain(boxes: list[Box], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    lo = np.atleast_2d(lo)
    hi = np.atleast_2d(hi)
    hit = np.zeros(lo.shape[0], dtype=bool)
    for b in boxes:
        hit |= np.all((lo >= b.lo) & (hi <= b.hi), axis=1)
    return hit


# ---------------------------------------------------------------------------
# pendulum


PENDULUM_CONSTANTS = {"g": 10.0, "m": 0.15, "l": 0.5, "b": 0.1, "T": 0.05}


def pendulum_env() -> EnvSpec:
    """Torque-limited pendulum, state (theta, theta_dot), control u in [-1, 1].

    theta_dot' = (1-b) theta_dot + (1.5 g sin(theta) / (2 l) + (3/(m l^2)) 2u) T
    theta'     = theta + theta_dot' T

    The state is neither wrapped nor clamped; leaving the domain is unsafe.
    """
    c = dict(PENDULUM_CONSTANTS)
    g, m, l, b, T = c["g"], c["m"], c["l"], c["b"], c["T"]
    c1 = 1.0 - b
    c2 = 1.5 * g / (2.0 * l) * T
    c3 = 3.0 / (m * l * l) * 2.0 * T

    control_box = Box(np.array([-1.0]), np.array([1.0]))

    def step(X, U):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        U = np.atleast_2d(np.asarray(U, dtype=float))
        u = np.clip(U[:, 0], -1.0, 1.0)
        th, thd = X[:, 0], X[:, 1]
        thd_next = c1 * thd + c2 * np.sin(th) + c3 * u
        th_next = th + thd_next * T
        return np.stack([th_next, thd_next], axis=1)

    def step_jac(X, U):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        U = np.atleast_2d(np.asarray(U, dtype=float))
        k = X.shape[0]
        cos_th = np.cos(X[:, 0])
        mask = ((U[:, 0] > -1.0) & (U[:, 0] < 1.0)).astype(float)
        A = np.zeros((k, 2, 2))
        A[:, 1, 0] = c2 * cos_th
        A[:, 1, 1] = c1
        A[:, 0, 0] = 1.0 + T * c2 * cos_th
        A[:, 0, 1] = T * c1
        Bu = np.zeros((k, 2, 1))
        Bu[:, 1, 0] = c3 * mask
        Bu[:, 0, 0] = T * c3 * mask
        return A, Bu

    def step_interval_arrays(x_lo, x_hi, u_lo, u_hi):
        u_lo = np.clip(u_lo[:, 0], -1.0, 1.0)
        u_hi = np.clip(u_hi[:, 0], -1.0, 1.0)
        s_lo, s_hi = sin_range(x_lo[:, 0], x_hi[:, 0])
        t1_lo, t1_hi = _iv_scale(c1, x_lo[:, 1], x_hi[:, 1])
        t2_lo, t2_hi = _iv_scale(c2, s_lo, s_hi)
        t3_lo, t3_hi = _iv_scale(c3, u_lo, u_hi)
        thd_lo = t1_lo + t2_lo + t3_lo
        thd_hi = t1_hi + t2_hi + t3_hi
        d_lo, d_hi = _iv_scale(T, thd_lo, thd_hi)
        th_lo = x_lo[:, 0] + d_lo
        th_hi = x_hi[:, 0] + d_hi
        return np.stack([th_lo, thd_lo], axis=1), np.stack([th_hi, thd_hi], axis=1)

    domain = Box(np.array([-0.7, -0.7]), np.array([0.7, 0.7]))
    init = [Box(np.array([-0.3, -0.3]), np.array([0.3, 0.3]))]
    goal = [Box(np.array([-0.2, -0.2]), np.array([0.2, 0.2]))]
    unsafe = [
        Box(np.array([-0.7, -0.7]), np.array([-0.6, 0.0])),
        Box(np.array([0.6, 0.0]), np.array([0.7, 0.7])),
    ]

    return EnvSpec(
        name="pendulum",
        state_dim=2,
        control_dim=1,
        domain=domain,
        control_box=control_box,
        init_boxes=init,
        goal_boxes=goal,
        unsafe_boxes=unsafe,
        constants=c,
        step=step,
        step_jac=step_jac,
        step_interval_arrays=step_interval_arrays,
        safe_box=domain,
    )


# ---------------------------------------------------------------------------
# planar docking


DOCKING_CONSTANTS = {"m": 12.0, "n": 0.001027, "T": 1.0}


def _x_minus_sin(x: float) -> float:
    """x - sin(x) without cancellation for small x."""
    if abs(x) < 1e-2:
        x2 = x * x
        return x * x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0))
    return x - np.sin(x)


def docking_matrices(m: float, n: float, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact discretisation of the Clohessy-Wiltshire equations.

    Returns (A, B) with next = A x + B u for state (x, y, vx, vy) and
    constant thrust u = (Fx, Fy) over one period T. 1-cos and nT-sin terms
    use cancellation-free forms since n*T is tiny.
    """
    nT = n * T
    s = np.sin(nT)
    c = np.cos(nT)
    omc = 2.0 * np.sin(0.5 * nT) ** 2  # 1 - cos(nT)
    xms = _x_minus_sin(nT)             # nT - sin(nT)
    A = np.array([
        [4.0 - 3.0 * c, 0.0, s / n, 2.0 * omc / n],
        [-6.0 * xms, 1.0, -2.0 * omc / n, (4.0 * s - 3.0 * nT) / n],
        [3.0 * n * s, 0.0, c, 2.0 * s],
        [-6.0 * n * omc, 0.0, -2.0 * s, 4.0 * c - 3.0],
    ])
    B = np.array([
        [omc / (n * n), 2.0 * xms / (n * n)],
        [-2.0 * xms / (n * n), (4.0 * omc - 1.5 * nT * nT) / (n * n)],
        [s / n, 2.0 * omc / n],
        [-2.0 * omc / n, (4.0 * s - 3.0 * nT) / n],
    ]) / m
    return A, B


def docking_env() -> EnvSpec:
    """Planar spacecraft docking, state (x, y, vx, vy), thrust in [-1, 1]^2.

    The transition is affine: next = A x + B clamp(u). The goal set is the
    position box [-0.35, 0.35]^2 at any velocity inside the safe band, so it
    does not meet the unsafe set, which is everything outside the safe band
    [-2, 2]^2 x [-0.5, 0.5]^2. Verification uses the bounding box
    [-2.5, 2.5]^2 x [-0.75, 0.75]^2 as a compact stand-in for R^4.
    """
    c = dict(DOCKING_CONSTANTS)
    A, Bu = docking_matrices(c["m"], c["n"], c["T"])
    absA, absB = np.abs(A), np.abs(Bu)

    control_box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))

    def step(X, U):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        U = np.atleast_2d(np.asarray(U, dtype=float))
        u = np.clip(U, -1.0, 1.0)
        return X @ A.T + u @ Bu.T

    def step_jac(X, U):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        U = np.atleast_2d(np.asarray(U, dtype=float))
        k = X.shape[0]
        mask = ((U > -1.0) & (U < 1.0)).astype(float)
        Aj = np.broadcast_to(A, (k, 4, 4)).copy()
        Bj = np.broadcast_to(Bu, (k, 4, 2)).copy() * mask[:, None, :]
        return Aj, Bj

    def step_interval_arrays(x_lo, x_hi, u_lo, u_hi):
        u_lo = np.clip(u_lo, -1.0, 1.0)
        u_hi = np.clip(u_hi, -1.0, 1.0)
        x_mid = 0.5 * (x_lo + x_hi)
        x_rad = 0.5 * (x_hi - x_lo)
        u_mid = 0.5 * (u_lo + u_hi)
        u_rad = 0.5 * (u_hi - u_lo)
        mid = x_mid @ A.T + u_mid @ Bu.T
        rad = x_rad @ absA.T + u_rad @ absB.T
        return mid - rad, mid + rad

    safe = Box(np.array([-2.0, -2.0, -0.5, -0.5]), np.array([2.0, 2.0, 0.5, 0.5]))
    goal = [Box(np.array([-0.35, -0.35, -0.5, -0.5]), np.array([0.35, 0.35, 0.5, 0.5]))]
    init = [Box(np.array([-1.0, -1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0]))]
    domain = Box(
        np.array([-2.5, -2.5, -0.75, -0.75]), np.array([2.5, 2.5, 0.75, 0.75])
    )

    return EnvSpec(
        name="docking2d",
        state_dim=4,
        control_dim=2,
        domain=domain,
        control_box=control_box,
        init_boxes=init,
        goal_boxes=goal,
        unsafe_boxes=[],
        constants=c,
        step=step,
        step_jac=step_jac,
        step_interval_arrays=step_interval_arrays,
        safe_box=safe,
    )


ENVS = {"pendulum": pendulum_env, "docking2d": docking_env}


def make_env(name: str) -> EnvSpec:
    if name not in ENVS:
        raise ValueError(f"unknown environment {name!r}; choose from {sorted(ENVS)}")
    return ENVS[name]()
