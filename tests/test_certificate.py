import dataclasses

import numpy as np
import pytest

from clbf.boxes import Box
from clbf.certificate import ClbfParams, FilteredCertificate, clipped_bounds, value_bounds_arrays
from clbf.nets import init_mlp

from conftest import small_cert


def test_params_validation():
    ClbfParams().validate()
    with pytest.raises(ValueError):
        ClbfParams(alpha=0.9).validate()  # alpha <= beta
    with pytest.raises(ValueError):
        ClbfParams(epsilon=0.0).validate()
    with pytest.raises(ValueError):
        ClbfParams(unsafe_mask=1.0).validate()  # below alpha
    with pytest.raises(ValueError):
        ClbfParams(goal_mask=1.0).validate()  # beta <= goal_mask


def test_net_dimensions_must_match_the_environment(pendulum):
    rng = np.random.default_rng(0)
    for dims in ([2, 4, 3], [3, 4, 1]):  # several outputs; wrong input width
        with pytest.raises(ValueError, match="certificate dimensions"):
            FilteredCertificate(init_mlp(dims, rng), ClbfParams(), pendulum)


def test_fields_cannot_be_reassigned_past_the_dimension_check(pendulum):
    cert = small_cert(pendulum)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.net = init_mlp([pendulum.state_dim + 1, 8, 1], np.random.default_rng(0))


def test_value_masks(pendulum):
    cert = small_cert(pendulum)
    goal, unsafe, plain = cert.value(np.array([[0.0, 0.0], [0.65, 0.5], [0.4, -0.4]]))
    assert goal == -10.0
    assert unsafe == 1.2
    assert plain == pytest.approx(float(cert.raw(np.array([[0.4, -0.4]]))[0]))


def test_value_bounds_fully_masked(pendulum):
    cert = small_cert(pendulum)
    g = Box(np.array([-0.1, -0.1]), np.array([0.1, 0.1]))
    u = Box(np.array([0.62, 0.1]), np.array([0.68, 0.3]))
    lo, hi = value_bounds_arrays(cert, np.stack([g.lo, u.lo]), np.stack([g.hi, u.hi]))
    assert (lo[0], hi[0]) == (-10.0, -10.0)
    assert (lo[1], hi[1]) == (1.2, 1.2)


def test_value_bounds_sound_by_sampling(pendulum, docking, rng):
    for env in (pendulum, docking):
        cert = small_cert(env)
        for _ in range(100):
            c = rng.uniform(env.domain.lo, env.domain.hi)
            r = rng.uniform(0.0, 0.3, env.state_dim)
            B = Box(np.maximum(c - r, env.domain.lo), np.minimum(c + r, env.domain.hi))
            (lo,), (hi,) = value_bounds_arrays(cert, B.lo[None], B.hi[None])
            pts = B.sample(rng, 200)
            vals = cert.value(pts)
            assert np.all(vals >= lo - 1e-10) and np.all(vals <= hi + 1e-10)


def test_value_bounds_monotone_refinement(pendulum, rng):
    cert = small_cert(pendulum)
    for _ in range(50):
        c = rng.uniform(-0.6, 0.6, 2)
        r = rng.uniform(0.05, 0.3, 2)
        lo_b, hi_b = c - r, c + r
        for d in range(2):
            # the box and its two halves along d
            los = np.stack([lo_b, lo_b, lo_b])
            his = np.stack([hi_b, hi_b, hi_b])
            his[1, d] = los[2, d] = 0.5 * (lo_b[d] + hi_b[d])
            (lo, lo1, lo2), (hi, hi1, hi2) = value_bounds_arrays(cert, los, his)
            assert min(lo1, lo2) >= lo - 1e-12
            assert max(hi1, hi2) <= hi + 1e-12


def test_clipped_bounds_tighter_and_sound(pendulum, rng):
    cert = small_cert(pendulum)
    # straddles the goal boundary: clipped bound must not feed the goal
    # interior through the net, but stays sound for the filtered value
    B = Box(np.array([0.15, -0.1]), np.array([0.3, 0.1]))
    (lo_c,), (hi_c,) = clipped_bounds(cert, B.lo[None], B.hi[None])
    (lo_v,), (hi_v,) = value_bounds_arrays(cert, B.lo[None], B.hi[None])
    assert lo_c >= lo_v - 1e-12 and hi_c <= hi_v + 1e-12
    pts = B.sample(rng, 2000)
    vals = cert.value(pts)
    assert np.all(vals >= lo_c - 1e-10) and np.all(vals <= hi_c + 1e-10)


def test_clipped_bounds_entirely_unsafe(docking):
    cert = small_cert(docking)
    B = Box(np.array([2.1, 0.0, 0.0, 0.0]), np.array([2.4, 0.5, 0.2, 0.2]))
    (lo,), (hi,) = clipped_bounds(cert, B.lo[None], B.hi[None])
    assert (lo, hi) == (1.2, 1.2)
