"""Axis-aligned boxes: the unit of state-set geometry and of verification."""

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

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def volume(self) -> float:
        """Product of widths over dimensions with positive width.

        Degenerate dimensions (width 0) are skipped so a measure on lower
        dimensional sets (e.g. a zero-velocity initial slice) stays useful.
        """
        w = self.width
        w = w[w > 0]
        return float(np.prod(w)) if w.size else 0.0

    def contains(self, x: np.ndarray) -> np.ndarray | bool:
        """Pointwise membership; accepts a single state or a (k, n) batch."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return bool(np.all(x >= self.lo) and np.all(x <= self.hi))
        return np.all((x >= self.lo) & (x <= self.hi), axis=1)

    def intersect(self, other: "Box") -> "Box | None":
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(lo > hi):
            return None
        return Box(lo, hi)

    def sample(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """k points uniform in the box; degenerate dims return the fixed value."""
        return rng.uniform(self.lo, self.hi, size=(k, self.dim))

    def clip(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lo, self.hi)


def subtract_box(base: Box, cut: Box) -> list[Box]:
    """Tile base minus the interior of cut with disjoint-interior boxes.

    Standard sweep decomposition: for each dimension, peel the slabs of base
    lying below and above cut, restricting already-processed dimensions to
    cut's range. Returns [] when cut covers base; returns [base] when they
    do not overlap.
    """
    inner = base.intersect(cut)
    if inner is None:
        return [base]
    pieces = []
    lo = base.lo.copy()
    hi = base.hi.copy()
    for d in range(base.dim):
        if inner.lo[d] > lo[d]:
            p_hi = hi.copy()
            p_hi[d] = inner.lo[d]
            pieces.append(Box(lo.copy(), p_hi))
        if inner.hi[d] < hi[d]:
            p_lo = lo.copy()
            p_lo[d] = inner.hi[d]
            pieces.append(Box(p_lo, hi.copy()))
        lo[d] = inner.lo[d]
        hi[d] = inner.hi[d]
    return pieces


def subtract_boxes(base: list[Box], cuts: list[Box]) -> list[Box]:
    """Tile the union of base boxes minus the union of cut boxes."""
    pieces = list(base)
    for cut in cuts:
        nxt = []
        for b in pieces:
            nxt.extend(subtract_box(b, cut))
        pieces = nxt
    return pieces
