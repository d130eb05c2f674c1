"""Projected gradient ascent on the certificate value inside an l-inf ball.

Its one caller is verifier.ball_max, which applies the goal and unsafe masks
for the verifier, adversarial training and adversarial rollouts alike.
Training and the verifier's counterexample hunt pass an `active` mask from
one shared interval screen, certificate.decrease_may_fail, so only balls
where the descent condition can fail are searched. Ascent is on the raw
network; the best value seen across iterates and restarts is returned, so
the result never falls below the ball center.

All restarts ascend together: the centers and every random start of the
active rows form one stacked batch, so each step makes one gradient pass
(the first one holds restarts times the active rows). Each restart keeps its
own best, replaced only on a strict improvement, and each row takes the
first restart whose best is its maximum, so the first (restart, step) to
reach the maximum wins, as when the restarts ran one after another.

A row stops ascending once a step leaves it where it was (a ball corner, or
a zero gradient) or takes it back to the iterate before (a 2-cycle). The
step is a function of the iterate alone, so from there every later step
repeats the same one or two points, values and gradients and cannot improve
the best. Stacking and stopping change the result only by the BLAS rounding
of the batches the live rows make, which differ in size and composition
from those of one restart at a time without stops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import Mlp, forward_batch, value_and_input_grad


def check_delta(delta: float):
    """Reject a perturbation radius that is negative, NaN or infinite."""
    # written so that a NaN fails the first test
    if not delta >= 0:
        raise ValueError("delta must be non-negative")
    if not np.isfinite(delta):
        raise ValueError("delta must be finite")


def check_count(name: str, value, least: int):
    """Reject a count that is not an integer of at least `least`."""
    if not (isinstance(value, (int, np.integer)) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}")


@dataclass
class PgdConfig:
    steps: int = 20
    delta: float = 0.0
    restarts: int = 3  # first restart starts at the center, rest random

    def validate(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        check_delta(self.delta)
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
    [center - delta, center + delta], from the centers and from one random
    start per further restart; returns the best iterate of every row.
    Restarts draw their starting points sequentially from rng, so with a
    fixed generator seed the first restarts of a longer run coincide with a
    shorter one.

    The restarts ascend as one stacked batch: the first gradient pass holds
    restarts times the active rows, and each later one the (row, restart)
    pairs still live. A pair stops for good when its step leaves its iterate
    unchanged (a fixed point) or returns it to the iterate before (a
    2-cycle): every later step would repeat one of the last two iterates,
    and only strict improvements replace a best. Each row then takes the
    first restart whose best is its maximum, so the first (restart, step)
    to reach a row's maximum wins. With a boolean mask `active`, only the
    active rows ascend at all and the others return their centers. Starts
    are still drawn for every row, so the generator ends in the same state
    as after the unmasked call, and each active row starts where it would
    there. The result is that of ascending every row through every restart
    and step in turn, up to the BLAS rounding of the batches of pairs still
    live.
    """
    cfg.validate()
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if cfg.delta == 0.0:
        return centers.copy()
    if rng is None:
        rng = np.random.default_rng(0)
    rows = np.arange(len(centers)) if active is None else np.flatnonzero(active)
    c_lo, c_hi = centers[rows] - cfg.delta, centers[rows] + cfg.delta
    # a start is rng.uniform(c_lo, c_hi) bit for bit, formed on the active
    # rows only; the draw covers every row, so the stream ignores the mask
    starts = [c_lo + (c_hi - c_lo) * rng.random(centers.shape)[rows]
              for _ in range(cfg.restarts - 1)]
    step = cfg.delta / 4.0
    # pair r * m + i is restart r of active row i. The live pairs carry their
    # bounds, the iterate before, and their best value and iterate so far
    x = np.concatenate([centers[rows], *starts])
    lo, hi = (np.tile(a, (cfg.restarts, 1)) for a in (c_lo, c_hi))
    pair = np.arange(len(x))
    prev = np.full_like(x, np.nan)  # no iterate before the first: never equal
    best_v, best_x = np.full(len(x), -np.inf), x.copy()
    stopped = []  # [pairs, best values, best iterates] as pairs stop

    for _ in range(cfg.steps):
        if not pair.size:
            break
        v, g = value_and_input_grad(net, x)
        _keep_best(best_v, best_x, v, x)
        x_next = np.clip(x + step * np.sign(g), lo, hi)
        moved = _any_per_row(x_next != x) & _any_per_row(x_next != prev)
        done, kept = np.flatnonzero(~moved), np.flatnonzero(moved)
        if done.size:
            stopped.append([a.take(done, axis=0) for a in (pair, best_v, best_x)])
        pair, prev, x, lo, hi, best_v, best_x = (
            a.take(kept, axis=0) for a in (pair, x, x_next, lo, hi, best_v, best_x))
    if pair.size:
        _keep_best(best_v, best_x, forward_batch(net, x)[:, 0], x)
    stopped.append([pair, best_v, best_x])

    pairs, pair_v, pair_x = (np.concatenate(a) for a in zip(*stopped))
    order = np.argsort(pairs)  # back in pair order, one restart after another
    m = len(rows)
    # restart 0 starts at the centers, which a row keeps if nothing improves;
    # argmax takes the first restart to reach the row's maximum
    first = np.argmax(pair_v.take(order).reshape(cfg.restarts, m), axis=0)
    fold_x = pair_x.take(order, axis=0).reshape(cfg.restarts, m, centers.shape[1])
    out = centers.copy()
    out[rows] = fold_x[first, np.arange(m)]
    return out


def _keep_best(best_v, best_x, v, x):
    """Replace, in place, the bests that the values v at x strictly improve."""
    improve = v > best_v
    np.copyto(best_v, v, where=improve)
    np.copyto(best_x, x, where=improve[:, None])


def _any_per_row(a: np.ndarray) -> np.ndarray:
    """a.any(axis=1) for a (k, n) boolean array, one column at a time: for
    the few columns of a state, several times faster than the reduction."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        out |= a[:, j]
    return out
