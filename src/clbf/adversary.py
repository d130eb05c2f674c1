"""Projected gradient ascent on the certificate value inside an l-inf ball.

Used both to harden training (worst-case next states) and to attack trained
controllers during empirical evaluation. Ascent is on the raw network; the
best value seen across iterates and restarts is returned, so the result never
falls below the ball center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import Mlp, forward_batch, value_and_input_grad


@dataclass
class PgdConfig:
    steps: int = 20
    step_size: float | None = None  # defaults to delta / 4
    delta: float = 0.0
    restarts: int = 3  # first restart starts at the center, rest random

    def validate(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.step_size is not None and self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        return self


def pgd_maximize_batch(
    net: Mlp,
    centers: np.ndarray,
    cfg: PgdConfig,
    rng: np.random.Generator | None = None,
    active: np.ndarray | None = None,
) -> np.ndarray:
    """Approximate per-row maximizers of the net over l-inf balls.

    Sign-gradient ascent with exact projection onto [center - delta,
    center + delta]. Restarts draw their starting points sequentially from
    rng, so with a fixed generator seed the first restarts of a longer run
    coincide with a shorter one.

    With a boolean mask `active`, only the active rows are ascended and the
    others return their centers. Starts are still drawn for every row, so
    the generator ends in the same state as after the unmasked call.
    """
    cfg.validate()
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if cfg.delta == 0.0:
        return centers.copy()
    if rng is None:
        rng = np.random.default_rng(0)
    starts = [rng.uniform(centers - cfg.delta, centers + cfg.delta)
              for _ in range(cfg.restarts - 1)]
    if active is None:
        return _ascend(net, centers, starts, cfg)
    out = centers.copy()
    rows = np.flatnonzero(active)
    if rows.size:
        out[rows] = _ascend(net, centers[rows], [s[rows] for s in starts], cfg)
    return out


def _ascend(net: Mlp, centers: np.ndarray, starts: list[np.ndarray],
            cfg: PgdConfig) -> np.ndarray:
    """The ascent of pgd_maximize_batch from the centers, then from each of
    the drawn starts; returns the best iterate of every row."""
    step = cfg.step_size if cfg.step_size is not None else cfg.delta / 4.0
    lo = centers - cfg.delta
    hi = centers + cfg.delta

    def keep_best(x, v):
        improve = v > best_v
        best_v[improve] = v[improve]
        best_x[improve] = x[improve]

    best_x = centers.copy()
    # restart 0 starts at the centers, so this pass is also its first step
    best_v, g = value_and_input_grad(net, centers)
    for restart, x in enumerate([centers, *starts]):
        for i in range(cfg.steps):
            if restart or i:
                v, g = value_and_input_grad(net, x)
                keep_best(x, v)
            x = np.clip(x + step * np.sign(g), lo, hi)
        keep_best(x, forward_batch(net, x)[:, 0])
    return best_x

