import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clbf.boxes import Box
from clbf.certificate import ClbfParams, FilteredCertificate, filtered_upper_bound
from clbf.envs import make_env
from clbf.nets import init_mlp

from conftest import small_cert, whole_box_upper_bound


def test_params_validation():
    # the constructor validates, so no invalid params can be held; a NaN
    # unsafe_mask would put NaN, not a value above beta, on the unsafe set
    ClbfParams()
    bad = [dict(beta=1.5),  # unsafe_mask <= beta
           dict(epsilon=0.0),
           dict(delta=-1e-3),
           dict(unsafe_mask=1.0),  # not above beta
           dict(goal_mask=1.0),  # beta <= goal_mask
           # each passes the ordering, so only a finiteness check rejects it
           dict(epsilon=np.inf), dict(delta=np.inf), dict(goal_mask=-np.inf),
           dict(unsafe_mask=np.inf),
           *({f.name: float("nan")} for f in dataclasses.fields(ClbfParams))]
    for kw in bad:
        with pytest.raises(ValueError):
            ClbfParams(**kw)


def test_net_dimensions_must_match_the_environment(pendulum):
    rng = np.random.default_rng(0)
    for dims in ([2, 4, 3], [3, 4, 1]):  # several outputs; wrong input width
        with pytest.raises(ValueError, match="certificate dimensions"):
            FilteredCertificate(init_mlp(dims, rng), ClbfParams(), pendulum)


def test_fields_cannot_be_reassigned_past_the_dimension_check(pendulum):
    cert = small_cert(pendulum)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.net = init_mlp([pendulum.state_dim + 1, 8, 1], np.random.default_rng(0))
    # nor past the params check: unsafe states would evaluate below beta
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.params.unsafe_mask = 0.5
    for f in dataclasses.fields(ClbfParams):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cert.params, f.name, getattr(cert.params, f.name))
    assert cert.params == ClbfParams()


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
    hi = filtered_upper_bound(cert, np.stack([g.lo, u.lo]), np.stack([g.hi, u.hi]))
    assert (hi[0], hi[1]) == (-10.0, 1.2)


def test_value_bounds_sound_by_sampling(pendulum, docking, rng):
    for env in (pendulum, docking):
        cert = small_cert(env)
        for _ in range(100):
            c = rng.uniform(env.domain.lo, env.domain.hi)
            r = rng.uniform(0.0, 0.3, env.state_dim)
            B = Box(np.maximum(c - r, env.domain.lo), np.minimum(c + r, env.domain.hi))
            (hi,) = filtered_upper_bound(cert, B.lo[None], B.hi[None])
            pts = B.sample(rng, 200)
            assert np.all(cert.value(pts) <= hi + 1e-10)


BOUND_ENVS = {name: make_env(name) for name in ("pendulum", "docking2d")}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(BOUND_ENVS)), st.integers(0, 3),
       st.floats(0.01, 0.5), st.integers(0, 2**32 - 1))
def test_filtered_upper_bound_at_most_the_whole_box_bound(env_name, cert_seed,
                                                          max_half, seed):
    # check_init splits only the boxes its bound fails, so this ordering at
    # every box makes its tree under the tiled bound a subtree of the tree
    # under the whole-box bound
    env = BOUND_ENVS[env_name]
    cert = small_cert(env, seed=cert_seed)
    rng = np.random.default_rng(seed)
    c = rng.uniform(env.domain.lo, env.domain.hi, (32, env.state_dim))
    r = rng.uniform(0.0, max_half, (32, env.state_dim)) * (env.domain.hi - env.domain.lo)
    lo = np.maximum(c - r, env.domain.lo)
    hi = np.minimum(c + r, env.domain.hi)
    assert np.all(filtered_upper_bound(cert, lo, hi)
                  <= whole_box_upper_bound(cert, lo, hi) + 1e-12)


def ball_centres(env, mode, rng, k):
    """k centres: anywhere within 1.2x the domain ("domain"), or on a face of
    a goal box ("goal") or of a box bounding the unsafe set ("unsafe": an
    unsafe box or the safe box, finite in both environments), so that balls
    around them straddle that boundary."""
    if mode == "domain":
        mid = 0.5 * (env.domain.lo + env.domain.hi)
        half = 0.6 * (env.domain.hi - env.domain.lo)
        return rng.uniform(mid - half, mid + half, (k, env.state_dim))
    boxes = env.goal_boxes if mode == "goal" else [*env.unsafe_boxes, env.safe_box]
    picks = [boxes[i] for i in rng.integers(0, len(boxes), k)]
    c = np.stack([rng.uniform(b.lo, b.hi) for b in picks])
    d = rng.integers(0, env.state_dim, k)
    on_hi = rng.random(k) < 0.5
    c[np.arange(k), d] = [(b.hi if up else b.lo)[j]
                          for b, up, j in zip(picks, on_hi, d)]
    return c


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(BOUND_ENVS)), st.integers(0, 7),
       st.floats(-0.5, 0.5), st.sampled_from(["domain", "goal", "unsafe"]),
       st.floats(0.0, 0.05, exclude_min=True), st.integers(0, 2**32 - 1))
def test_delta_ball_bound_covers_ball_points_and_corners(env_name, cert_seed,
                                                         shift, mode, delta,
                                                         seed):
    # the premise of the decrease screen: no point of a delta-ball has a
    # filtered value above the ball's filtered_upper_bound. The bound is not
    # rounded outward, so it may sit ulps below a value: a ball narrower
    # than the spacing of floats at its centre (delta 5e-324 on docking2d)
    # gives a bound 3 ulps under the net's value there in a batch of 80
    env = BOUND_ENVS[env_name]
    cert = small_cert(env, seed=cert_seed)
    cert.net.biases[-1][0] += shift
    rng = np.random.default_rng(seed)
    c = ball_centres(env, mode, rng, 8)
    ub = filtered_upper_bound(cert, c - delta, c + delta)
    n = env.state_dim
    corners = np.array(np.meshgrid(*[[-1.0, 1.0]] * n)).reshape(n, -1).T
    for centre, bound in zip(c, ub):
        pts = np.concatenate([centre + delta * corners,
                              rng.uniform(centre - delta, centre + delta, (64, n))])
        assert np.all(cert.value(pts) <= bound + 1e-12)


def test_clipped_bounds_tighter_and_sound(pendulum, rng):
    cert = small_cert(pendulum)
    # straddles the goal boundary: the tiled bound must not feed the goal
    # interior through the net, but stays sound for the filtered value
    B = Box(np.array([0.15, -0.1]), np.array([0.3, 0.1]))
    (hi_c,) = filtered_upper_bound(cert, B.lo[None], B.hi[None])
    (hi_v,) = whole_box_upper_bound(cert, B.lo[None], B.hi[None])
    assert hi_c <= hi_v + 1e-12
    pts = B.sample(rng, 2000)
    assert np.all(cert.value(pts) <= hi_c + 1e-10)


def test_clipped_bounds_entirely_unsafe(docking):
    cert = small_cert(docking)
    B = Box(np.array([2.1, 0.0, 0.0, 0.0]), np.array([2.4, 0.5, 0.2, 0.2]))
    (hi,) = filtered_upper_bound(cert, B.lo[None], B.hi[None])
    assert hi == 1.2
