"""Axis-aligned boxes: the unit of state-set geometry and of verification.

Box is one box of a task set or a check's root; volumes and subtract work on
whole (k, n) arrays of lower and upper corners. sample_union draws states
uniformly from a union of boxes, for training batches and rollout starts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Closed axis-aligned interval region lo[i] <= x[i] <= hi[i].

    Bounds may be +-inf (e.g. a goal set unconstrained in some coordinates).
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if np.any(lo > hi):
            raise ValueError(f"box has lo > hi: {lo} vs {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains(self, x: np.ndarray) -> np.ndarray | bool:
        """Pointwise membership; accepts a single state or a (k, n) batch."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return bool(np.all(x >= self.lo) and np.all(x <= self.hi))
        return np.all((x >= self.lo) & (x <= self.hi), axis=1)

    def sample(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """k points uniform in the box; degenerate dims return the fixed value."""
        return rng.uniform(self.lo, self.hi, size=(k, self.dim))

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lo, self.hi)


def volumes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Volume of each of the (k, n) boxes [lo, hi]: the product of its
    positive widths, taken left to right, and 0 if none is positive, so
    that a lower dimensional set (a zero-velocity initial slice) has one."""
    w = hi - lo
    vol = np.ones(w.shape[0])
    for d in range(w.shape[1]):
        vol *= np.where(w[:, d] > 0, w[:, d], 1.0)
    vol[~np.any(w > 0, axis=1)] = 0.0
    return vol


def subtract(lo: np.ndarray, hi: np.ndarray, cuts: list[Box]):
    """Tile each of the (k, n) boxes [lo, hi] minus the interiors of the cuts
    with disjoint-interior boxes: (piece_lo, piece_hi, owner), owner[j] being
    the row of the box that piece j tiles. Pieces come in box order.

    Standard sweep decomposition, one cut at a time over every piece so far:
    for each dimension, peel the slabs of a piece lying below and above the
    cut, restricting already-processed dimensions to the cut's range. A piece
    the cut misses stays whole; one it covers leaves nothing.
    """
    owner = np.arange(lo.shape[0])
    n = lo.shape[1]
    for cut in cuts:
        in_lo, in_hi = np.maximum(lo, cut.lo), np.minimum(hi, cut.hi)
        # slab 2d lies below the cut in dimension d, slab 2d + 1 above it
        p_lo = np.repeat(lo[:, None], 2 * n, axis=1)
        p_hi = np.repeat(hi[:, None], 2 * n, axis=1)
        keep = np.empty((lo.shape[0], 2 * n), dtype=bool)
        for d in range(n):
            p_hi[:, 2 * d, d] = in_lo[:, d]
            p_lo[:, 2 * d + 1, d] = in_hi[:, d]
            keep[:, 2 * d] = in_lo[:, d] > lo[:, d]
            keep[:, 2 * d + 1] = in_hi[:, d] < hi[:, d]
            p_lo[:, 2 * d + 2:, d] = in_lo[:, d, None]
            p_hi[:, 2 * d + 2:, d] = in_hi[:, d, None]
        missed = ~np.all(in_lo <= in_hi, axis=1)
        p_lo[missed, 0], p_hi[missed, 0] = lo[missed], hi[missed]
        keep[missed] = np.arange(2 * n) == 0
        lo, hi = p_lo[keep], p_hi[keep]
        owner = np.repeat(owner, keep.sum(axis=1))
    return lo, hi, owner


def sample_union(boxes: list[Box], rng: np.random.Generator, k: int) -> np.ndarray:
    """k points uniform over the union of boxes with disjoint interiors: a
    multinomial share of k per box by volume, then each box draws in turn. A
    box with fewer positive widths than the widest (a face that subtract
    leaves) has no volume in the union and takes no share."""
    if not boxes:
        raise ValueError("cannot sample from an empty union of boxes")
    if len(boxes) == 1:
        return boxes[0].sample(rng, k)
    lo, hi = np.array([b.lo for b in boxes]), np.array([b.hi for b in boxes])
    dims = np.count_nonzero(hi > lo, axis=1)
    vols = np.where(dims == dims.max(), volumes(lo, hi), 0.0)
    counts = rng.multinomial(k, vols / vols.sum())
    return np.concatenate([b.sample(rng, c) for b, c in zip(boxes, counts)])
