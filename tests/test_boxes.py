import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clbf.boxes import Box, subtract, subtract_boxes, volumes


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))


def test_contains_and_intersects():
    b = Box(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    assert b.contains(np.array([0.5, 1.0]))
    assert not b.contains(np.array([1.5, 1.0]))
    batch = np.array([[0.1, 0.1], [2.0, 0.1]])
    assert list(b.contains(batch)) == [True, False]
    # boxes are closed: a cut sharing one face meets b, so the sweep peels
    # the slab below the face (all of b) and a degenerate slab on the face
    face = subtract(b.lo[None], b.hi[None], [Box(np.array([1.0, 1.0]), np.array([3.0, 3.0]))])
    assert face[0].tolist() == [[0.0, 0.0], [1.0, 0.0]]
    assert face[1].tolist() == [[1.0, 2.0], [1.0, 1.0]]
    # a cut beyond a gap misses b, which stays whole
    gap = subtract(b.lo[None], b.hi[None], [Box(np.array([1.1, 0.0]), np.array([2.0, 1.0]))])
    assert gap[0].tolist() == [[0.0, 0.0]] and gap[1].tolist() == [[1.0, 2.0]]


def test_subtract_box_tiles_exactly(rng):
    base = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    cut = Box(np.array([-0.2, 0.1]), np.array([0.4, 0.5]))
    pieces = subtract_boxes([base], [cut])
    assert np.isclose(sum(p.volume() for p in pieces), base.volume() - cut.volume())
    pts = base.sample(rng, 4000)
    in_cut = cut.contains(pts)
    covered = np.zeros(len(pts), dtype=bool)
    for p in pieces:
        covered |= p.contains(pts)
    # everything outside the cut is covered; cut interior only on faces
    assert np.all(covered[~in_cut])


def _as_pairs(boxes):
    return [(b.lo.tolist(), b.hi.tolist()) for b in boxes]


def test_subtract_box_disjoint_and_engulfing():
    base = Box(np.array([0.0]), np.array([1.0]))
    assert _as_pairs(subtract_boxes([base], [Box(np.array([2.0]), np.array([3.0]))])) \
        == _as_pairs([base])
    assert subtract_boxes([base], [Box(np.array([-1.0]), np.array([2.0]))]) == []


def test_subtract_boxes_multiple_cuts(rng):
    base = [Box(np.array([-0.7, -0.7]), np.array([0.7, 0.7]))]
    cuts = [
        Box(np.array([-0.2, -0.2]), np.array([0.2, 0.2])),
        Box(np.array([0.6, 0.0]), np.array([0.7, 0.7])),
    ]
    pieces = subtract_boxes(base, cuts)
    total = base[0].volume() - sum(c.volume() for c in cuts)
    assert np.isclose(sum(p.volume() for p in pieces), total)
    pts = base[0].sample(rng, 4000)
    outside_cuts = ~cuts[0].contains(pts) & ~cuts[1].contains(pts)
    covered = np.zeros(len(pts), dtype=bool)
    for p in pieces:
        covered |= p.contains(pts)
    assert np.all(covered[outside_cuts])


def test_degenerate_volume():
    b = Box(np.array([0.0, 1.0]), np.array([2.0, 1.0]))
    assert b.volume() == 2.0


def test_volumes_of_boxes_with_degenerate_sides():
    lo = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    hi = np.array([[2.0, 1.0, 0.5], [0.0, 0.0, 0.0], [1.5, 1.25, 3.0]])
    assert volumes(lo, hi).tolist() == [1.0, 0.0, 0.5 * 0.25 * 2.0]


def test_subtract_owners_map_each_piece_to_its_box_in_box_order():
    cut = Box(np.array([-0.5, -0.5]), np.array([0.5, 0.5]))
    lo = np.array([[-1.0, -1.0], [0.6, 0.6], [-0.2, -0.2], [0.0, 0.0]])
    hi = np.array([[1.0, 1.0], [0.9, 0.9], [0.2, 0.2], [1.0, 1.0]])
    # a straddled box, a missed one, a covered one, one straddled at a corner
    p_lo, p_hi, owner = subtract(lo, hi, [cut])
    assert owner.tolist() == [0, 0, 0, 0, 1, 3, 3]
    assert np.all(p_lo >= lo[owner]) and np.all(p_hi <= hi[owner])


def sweep_one(lo, hi, cut):
    """The per-box sweep that subtract batches: base [lo, hi] minus cut."""
    in_lo, in_hi = np.maximum(lo, cut.lo), np.minimum(hi, cut.hi)
    if np.any(in_lo > in_hi):
        return [(lo, hi)]
    pieces, lo, hi = [], lo.copy(), hi.copy()
    for d in range(lo.shape[0]):
        if in_lo[d] > lo[d]:
            p_hi = hi.copy()
            p_hi[d] = in_lo[d]
            pieces.append((lo.copy(), p_hi))
        if in_hi[d] < hi[d]:
            p_lo = lo.copy()
            p_lo[d] = in_hi[d]
            pieces.append((p_lo, hi.copy()))
        lo[d], hi[d] = in_lo[d], in_hi[d]
    return pieces


@st.composite
def boxes_and_cuts(draw):
    """Boxes and cuts on a coarse grid, so that faces often coincide."""
    n = draw(st.integers(1, 4))
    coord = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])

    def boxes(k):
        a = np.array(draw(st.lists(coord, min_size=2 * n * k, max_size=2 * n * k)))
        a = np.sort(a.reshape(k, 2, n), axis=1)
        return a[:, 0], a[:, 1]

    lo, hi = boxes(draw(st.integers(1, 4)))
    c_lo, c_hi = boxes(draw(st.integers(0, 3)))
    return lo, hi, [Box(l, h) for l, h in zip(c_lo, c_hi)]


@given(boxes_and_cuts())
def test_subtract_equals_the_per_box_sweep_in_order(case):
    lo, hi, cuts = case
    want = []
    for i in range(lo.shape[0]):
        pieces = [(lo[i], hi[i])]
        for cut in cuts:
            pieces = [q for p in pieces for q in sweep_one(*p, cut)]
        want += [(i, l.tolist(), h.tolist()) for l, h in pieces]
    p_lo, p_hi, owner = subtract(lo, hi, cuts)
    assert [(int(i), l.tolist(), h.tolist()) for i, l, h in zip(owner, p_lo, p_hi)] == want
