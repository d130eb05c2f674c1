"""Projected gradient ascent on the certificate value inside an l-inf ball.

Used both to harden training (worst-case next states) and to attack trained
controllers during empirical evaluation. Training and the verifier's
counterexample hunt pass an `active` mask from one shared interval screen,
certificate.decrease_may_fail, so only balls where the descent condition can
fail are searched. Ascent is on the raw network; the best value seen across
iterates and restarts is returned, so the result never falls below the ball
center. A row stops ascending once a step leaves it where it was (a ball
corner, or a zero gradient): from a fixed point every later step repeats the
same value and gradient and cannot improve the best, so stopping changes the
result only by the BLAS rounding of the smaller batches that the rows still
moving make.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import Mlp, forward_batch, value_and_input_grad


@dataclass
class PgdConfig:
    steps: int = 20
    delta: float = 0.0
    restarts: int = 3  # first restart starts at the center, rest random

    def validate(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
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

    Sign-gradient ascent with step delta / 4 and exact projection onto
    [center - delta, center + delta], first from the centers, then from one
    random start per further restart; returns the best iterate of every row.
    Restarts draw their starting points sequentially from rng, so with a
    fixed generator seed the first restarts of a longer run coincide with a
    shorter one.

    A row whose step leaves its iterate unchanged has reached a fixed point
    and stops for the rest of its restart: every later step would repeat its
    value and gradient, and only strict improvements replace the best. With
    a boolean mask `active`, only the active rows ascend at all and the
    others return their centers. Starts are still drawn for every row, so
    the generator ends in the same state as after the unmasked call. The
    result is that of ascending every row to the end, up to the BLAS
    rounding of the smaller batches of rows still live.
    """
    cfg.validate()
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if cfg.delta == 0.0:
        return centers.copy()
    if rng is None:
        rng = np.random.default_rng(0)
    starts = [rng.uniform(centers - cfg.delta, centers + cfg.delta)
              for _ in range(cfg.restarts - 1)]
    rows = np.arange(len(centers)) if active is None else np.flatnonzero(active)
    step = cfg.delta / 4.0
    best_x = centers.copy()
    best_v = np.full(len(centers), -np.inf)

    def keep_best(live, x, v):
        improve = v > best_v[live]
        best_v[live[improve]] = v[improve]
        best_x[live[improve]] = x[improve]

    for start in [centers, *starts]:
        live, x = rows, start[rows]
        lo, hi = centers[live] - cfg.delta, centers[live] + cfg.delta
        for _ in range(cfg.steps):
            if not live.size:
                break
            v, g = value_and_input_grad(net, x)
            keep_best(live, x, v)
            x_next = np.clip(x + step * np.sign(g), lo, hi)
            moved = (x_next != x).any(axis=1)
            live, x, lo, hi = live[moved], x_next[moved], lo[moved], hi[moved]
        if live.size:
            keep_best(live, x, forward_batch(net, x)[:, 0])
    return best_x
