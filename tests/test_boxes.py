import numpy as np
import pytest

from clbf.boxes import Box, subtract_box, subtract_boxes


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))


def test_contains_and_intersects():
    b = Box(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    assert b.contains(np.array([0.5, 1.0]))
    assert not b.contains(np.array([1.5, 1.0]))
    batch = np.array([[0.1, 0.1], [2.0, 0.1]])
    assert list(b.contains(batch)) == [True, False]
    face = b.intersect(Box(np.array([1.0, 1.0]), np.array([3.0, 3.0])))  # shared face
    assert np.array_equal(face.lo, [1.0, 1.0]) and np.array_equal(face.hi, [1.0, 2.0])
    assert b.intersect(Box(np.array([1.1, 0.0]), np.array([2.0, 1.0]))) is None


def test_subtract_box_tiles_exactly(rng):
    base = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    cut = Box(np.array([-0.2, 0.1]), np.array([0.4, 0.5]))
    pieces = subtract_box(base, cut)
    assert np.isclose(sum(p.volume() for p in pieces), base.volume() - cut.volume())
    pts = base.sample(rng, 4000)
    in_cut = cut.contains(pts)
    covered = np.zeros(len(pts), dtype=bool)
    for p in pieces:
        covered |= p.contains(pts)
    # everything outside the cut is covered; cut interior only on faces
    assert np.all(covered[~in_cut])


def test_subtract_box_disjoint_and_engulfing():
    base = Box(np.array([0.0]), np.array([1.0]))
    assert subtract_box(base, Box(np.array([2.0]), np.array([3.0]))) == [base]
    assert subtract_box(base, Box(np.array([-1.0]), np.array([2.0]))) == []


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
