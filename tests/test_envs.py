import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clbf.boxes import Box, subtract
from clbf.envs import EnvSpec, docking_matrices, make_env, sin_range

from conftest import halving_env_1d


# ---------------------------------------------------------------------------
# trig ranges


def test_trig_interval_quarter_period():
    (s_lo,), (s_hi,) = sin_range(np.array([0.0]), np.array([np.pi / 2]))
    assert s_lo == pytest.approx(0.0) and s_hi == pytest.approx(1.0)


def test_trig_interval_monotone_segment():
    (s_lo,), (s_hi,) = sin_range(np.array([-0.1]), np.array([0.1]))
    assert s_lo == pytest.approx(-0.0998334, abs=1e-7)
    assert s_hi == pytest.approx(0.0998334, abs=1e-7)


def test_trig_ranges_sound_by_sampling(rng):
    los = rng.uniform(-10, 10, 200)
    his = los + rng.uniform(0, 8, 200)
    s_lo, s_hi = sin_range(los, his)
    for i in range(200):
        ts = np.linspace(los[i], his[i], 500)
        assert np.sin(ts).min() >= s_lo[i] - 1e-12
        assert np.sin(ts).max() <= s_hi[i] + 1e-12


# ---------------------------------------------------------------------------
# pendulum


def test_pendulum_equilibrium(pendulum):
    nxt = pendulum.step(np.zeros((1, 2)), np.zeros((1, 1)))
    assert np.array_equal(nxt, np.zeros((1, 2)))


def test_pendulum_reference_point(pendulum):
    nxt = pendulum.step(np.array([[0.1, 0.0]]), np.array([[0.0]]))
    # hand evaluation: thd' = 15*sin(0.1)*0.05, th' = 0.1 + thd'*0.05
    assert nxt[0, 1] == pytest.approx(0.0748751, abs=1e-7)
    assert nxt[0, 0] == pytest.approx(0.1037438, abs=1e-7)


def test_pendulum_odd_symmetry(pendulum, rng):
    X = rng.uniform(-0.7, 0.7, (50, 2))
    U = np.zeros((50, 1))
    plus = pendulum.step(X, U)
    minus = pendulum.step(-X, U)
    assert np.allclose(plus, -minus, atol=1e-14)


def test_pendulum_clamps_torque(pendulum):
    x = np.array([[0.1, 0.1]])
    big = pendulum.step(x, np.array([[10.0]]))
    one = pendulum.step(x, np.array([[1.0]]))
    assert np.allclose(big, one)


def test_pendulum_step_interval_reference(pendulum):
    B = Box(np.array([-0.1, 0.0]), np.array([0.1, 0.0]))
    U = Box(np.array([0.0]), np.array([0.0]))
    lo, hi = pendulum.step_interval_arrays(B.lo[None], B.hi[None], U.lo[None], U.hi[None])
    assert lo[0, 1] == pytest.approx(-0.0748751, abs=1e-7)
    assert hi[0, 1] == pytest.approx(0.0748751, abs=1e-7)


def test_pendulum_jacobian_matches_fd(pendulum, rng):
    X = rng.uniform(-0.6, 0.6, (10, 2))
    U = rng.uniform(-0.9, 0.9, (10, 1))
    A, B = pendulum.step_jac(X, U)
    h = 1e-6
    for d in range(2):
        dX = np.zeros_like(X)
        dX[:, d] = h
        fd = (pendulum.step(X + dX, U) - pendulum.step(X - dX, U)) / (2 * h)
        assert np.allclose(A[:, :, d], fd, atol=1e-6)
    dU = np.full_like(U, h)
    fd = (pendulum.step(X, U + dU) - pendulum.step(X, U - dU)) / (2 * h)
    assert np.allclose(B[:, :, 0], fd, atol=1e-6)


def test_pendulum_set_geometry(pendulum):
    env = pendulum
    # boundary points per the task definition
    assert env.in_goal(np.array([[0.2, 0.2]]))[0]
    assert not env.in_goal(np.array([[0.21, 0.0]]))[0]
    assert env.in_unsafe(np.array([[-0.65, -0.3]]))[0]
    assert env.in_unsafe(np.array([[0.65, 0.3]]))[0]
    assert not env.in_unsafe(np.array([[-0.65, 0.1]]))[0]  # wrong velocity sign
    assert not env.in_unsafe(np.array([[0.5, 0.5]]))[0]
    assert any(b.contains(np.array([0.3, -0.3])) for b in env.init_boxes)
    assert not any(b.contains(np.array([0.31, 0.0])) for b in env.init_boxes)


def test_goal_and_init_disjoint_from_unsafe(pendulum, docking, rng):
    for env in (pendulum, docking):
        init_pts = env.sample_init(rng, 2000)
        assert not np.any(env.in_unsafe(init_pts))
    # both goals are disjoint from unsafe as well
    for env in (pendulum, docking):
        g = env.goal_boxes[0]
        assert not np.any(env.in_unsafe(g.sample(rng, 2000)))
        assert not env.unsafe_intersects(g.lo[None], g.hi[None])[0]


def test_sample_init_over_two_boxes():
    # initial boxes of length 0.5 and 1.5 in the halving env's domain [-4, 4]
    env = halving_env_1d()
    env.init_boxes = [Box(np.array([-4.0]), np.array([-3.5])),
                      Box(np.array([2.0]), np.array([3.5]))]
    pts = env.sample_init(np.random.default_rng(3), 4000)
    assert pts.shape == (4000, 1)
    assert np.all(np.any([b.contains(pts) for b in env.init_boxes], axis=0))
    assert np.array_equal(pts, env.sample_init(np.random.default_rng(3), 4000))
    # volume shares 1/4 and 3/4; a multinomial count has std ~27 here
    assert abs(np.count_nonzero(pts[:, 0] < 0) - 1000) < 150


# ---------------------------------------------------------------------------
# docking


def docking_printed_equations(x, u, m=12.0, n=0.001027, T=1.0):
    """Term-by-term transcription of the closed-form update equations.

    The vx' line corrects the two corrupted factors in the extracted source
    (thrust constant pairs with Fy, and the cos term carries vx): without
    them the formula is not the flow of any Clohessy-Wiltshire system.
    """
    px, py, vx, vy = x
    Fx, Fy = u
    s, c = np.sin(n * T), np.cos(n * T)
    x_new = (
        (2 * vy / n + 4 * px + Fx / (m * n**2))
        + (2 * Fy / (m * n)) * T
        + (-Fx / (m * n**2) - 2 * vy / n - 3 * px) * c
        + (-2 * Fy / (m * n**2) + vx / n) * s
    )
    y_new = (
        (-2 * vx / n + py + 4 * Fy / (m * n**2))
        + (-2 * Fx / (m * n) - 3 * vy - 6 * n * px) * T
        - (3 * Fy / (2 * m)) * T**2
        + (-4 * Fy / (m * n**2) + 2 * vx / n) * c
        + (2 * Fx / (m * n**2) + 4 * vy / n + 6 * px) * s
    )
    vx_new = (
        (2 * Fy / (m * n))
        + (-2 * Fy / (m * n) + vx) * c
        + (Fx / (m * n) + 2 * vy + 3 * n * px) * s
    )
    vy_new = (
        (-2 * Fx / (m * n) - 3 * vy - 6 * n * px)
        + (-3 * Fy / m) * T
        + (2 * Fx / (m * n) + 4 * vy + 6 * n * px) * c
        + (4 * Fy / (m * n) - 2 * vx) * s
    )
    return np.array([x_new, y_new, vx_new, vy_new])


def test_docking_zero_fixed_point(docking):
    nxt = docking.step(np.zeros((1, 4)), np.zeros((1, 2)))
    assert np.allclose(nxt, 0.0, atol=1e-12)


def test_docking_matches_transcribed_equations(docking, rng):
    X = rng.uniform(-2, 2, (50, 4))
    U = rng.uniform(-1, 1, (50, 2))
    got = docking.step(X, U)
    want = np.stack([docking_printed_equations(x, u) for x, u in zip(X, U)])
    assert np.allclose(got, want, atol=1e-9)


def test_docking_matches_expm_oracle():
    from scipy.linalg import expm

    m, n, T = 12.0, 0.001027, 1.0
    A_c = np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [3 * n * n, 0, 0, 2 * n], [0, 0, -2 * n, 0]],
        dtype=float,
    )
    B_c = np.array([[0, 0], [0, 0], [1 / m, 0], [0, 1 / m]])
    M = np.zeros((6, 6))
    M[:4, :4] = A_c
    M[:4, 4:] = B_c
    E = expm(M * T)
    A_d, B_d = docking_matrices(m, n, T)
    assert np.allclose(A_d, E[:4, :4], atol=1e-12)
    assert np.allclose(B_d, E[:4, 4:], atol=1e-12)


def test_docking_affinity(docking, rng):
    lam = 0.3
    Z1 = rng.uniform(-1, 1, (100, 6))
    Z2 = rng.uniform(-1, 1, (100, 6))
    Zm = lam * Z1 + (1 - lam) * Z2
    f = lambda Z: docking.step(Z[:, :4], Z[:, 4:])
    resid = f(Zm) - (lam * f(Z1) + (1 - lam) * f(Z2))
    assert np.abs(resid).max() < 1e-10


def test_docking_set_geometry(docking):
    env = docking
    assert env.in_goal(np.array([[0.35, -0.35, 0.5, -0.5]]))[0]
    assert not env.in_goal(np.array([[0.35, -0.35, 0.7, -0.7]]))[0]  # unsafe velocity
    assert not env.in_goal(np.array([[0.36, 0.0, 0.0, 0.0]]))[0]
    assert env.in_unsafe(np.array([[2.01, 0.0, 0.0, 0.0]]))[0]
    assert env.in_unsafe(np.array([[0.0, 0.0, 0.51, 0.0]]))[0]
    assert not env.in_unsafe(np.array([[2.0, 2.0, 0.5, 0.5]]))[0]  # safe boundary
    assert any(b.contains(np.array([1.0, -1.0, 0.0, 0.0])) for b in env.init_boxes)
    assert not any(b.contains(np.array([0.5, 0.0, 0.1, 0.0])) for b in env.init_boxes)


def test_docking_interval_is_exact_affine_image(docking, rng):
    A, Bu = docking_matrices(12.0, 0.001027, 1.0)
    for _ in range(20):
        c_x = rng.uniform(-1, 1, 4)
        r_x = rng.uniform(0, 0.3, 4)
        c_u = rng.uniform(-0.5, 0.5, 2)
        r_u = rng.uniform(0, 0.3, 2)
        B = Box(c_x - r_x, c_x + r_x)
        U = Box(c_u - r_u, c_u + r_u)
        lo, hi = docking.step_interval_arrays(B.lo[None], B.hi[None],
                                              U.lo[None], U.hi[None])
        want_width = np.abs(A) @ (B.hi - B.lo) + np.abs(Bu) @ (U.hi - U.lo)
        assert np.allclose(hi[0] - lo[0], want_width, atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["pendulum", "docking2d"]),
       st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       st.lists(st.floats(0.0, 0.2), min_size=4, max_size=4),
       st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
       st.lists(st.floats(0.0, 0.5), min_size=2, max_size=2),
       st.integers(0, 2**32 - 1))
def test_step_interval_soundness_dense_sampling(env_name, centre, radius,
                                                u_centre, u_radius, seed):
    # a state box around a point of the domain and a control box in [-1, 1]:
    # the interval image holds the next state of every pair of their points
    env = GEOMETRY_ENVS[env_name]
    n, m = env.state_dim, env.control_dim
    c = env.domain.lo + np.array(centre[:n]) * (env.domain.hi - env.domain.lo)
    r = np.array(radius[:n])
    B = Box(np.maximum(c - r, env.domain.lo), np.minimum(c + r, env.domain.hi))
    cu, ru = np.array(u_centre[:m]), np.array(u_radius[:m])
    U = Box(np.clip(cu - ru, -1, 1), np.clip(cu + ru, -1, 1))
    lo, hi = env.step_interval_arrays(B.lo[None], B.hi[None], U.lo[None], U.hi[None])
    nxt = env.step(_box_points(B, seed), _box_points(U, seed + 1))
    assert np.all(nxt >= lo - 1e-10) and np.all(nxt <= hi + 1e-10)


def test_degenerate_boxes_give_point_image(docking, rng):
    x = rng.uniform(-1, 1, 4)
    u = rng.uniform(-1, 1, 2)
    lo, hi = docking.step_interval_arrays(x[None], x[None], u[None], u[None])
    nxt = docking.step(x[None], u[None])
    assert np.allclose(lo, nxt) and np.allclose(hi, nxt)


def test_make_env_rejects_unknown():
    with pytest.raises(ValueError):
        make_env("cartpole")


# ---------------------------------------------------------------------------
# EnvSpec built from boxes alone


def _bare_env(goal, unsafe, **kw):
    domain = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    return EnvSpec(
        name="bare", state_dim=2, control_dim=1,
        domain=domain, control_box=Box(np.array([-1.0]), np.array([1.0])),
        init_boxes=[domain], goal_boxes=goal, unsafe_boxes=unsafe,
        constants={}, step=None, step_jac=None, step_interval_arrays=None,
        eligible_cover=[domain], **kw,
    )


def test_goal_meeting_the_unsafe_set_is_rejected():
    # one shared face suffices: x = 0.25 would be in both sets
    with pytest.raises(ValueError, match="meets the unsafe set"):
        halving_env_1d(goal_hi=0.25)
    # with a safe box, the goal must lie inside it; its boundary is safe
    safe = Box(np.array([-0.9, -0.9]), np.array([0.9, 0.9]))
    with pytest.raises(ValueError, match="meets the unsafe set"):
        _bare_env([Box(np.array([0.5, 0.5]), np.array([0.95, 0.9]))], [], safe_box=safe)
    _bare_env([Box(np.array([0.5, 0.5]), np.array([0.9, 0.9]))], [], safe_box=safe)


def test_unmasked_pieces_subtract_the_goal_and_unsafe_boxes():
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    goal = [Box(np.array([-0.2, -0.2]), np.array([0.2, 0.2]))]
    unsafe = [Box(np.array([0.6, 0.6]), np.array([1.0, 1.0]))]
    env = _bare_env(goal, unsafe)
    lo, hi, owner = env.unmasked_pieces(box.lo[None], box.hi[None])
    assert len(lo) > 1 and owner.tolist() == [0] * len(lo)
    want_lo, want_hi, _ = subtract(box.lo[None], box.hi[None], goal + unsafe)
    assert _array_pairs(lo, hi) == _array_pairs(want_lo, want_hi)

    lo, hi, owner = _bare_env([], []).unmasked_pieces(box.lo[None], box.hi[None])
    assert _array_pairs(lo, hi) == _array_pairs(box.lo[None], box.hi[None])
    assert owner.tolist() == [0]


def _array_pairs(lo, hi):
    return [(l.tolist(), h.tolist()) for l, h in zip(lo, hi)]


# ---------------------------------------------------------------------------
# set geometry derived from goal boxes, unsafe boxes and the safe box


GEOMETRY_ENVS = {name: make_env(name) for name in ("pendulum", "docking2d")}


@st.composite
def env_and_box(draw):
    """An environment, a box within 1.2x its domain, and a sampling seed.

    Some boxes are drawn inside one goal, unsafe or safe box (finite in both
    environments), so that every predicate takes both values often enough to
    be exercised.
    """
    env = GEOMETRY_ENVS[draw(st.sampled_from(sorted(GEOMETRY_ENVS)))]
    n = env.state_dim
    mid, half = 0.5 * (env.domain.lo + env.domain.hi), 0.6 * (env.domain.hi - env.domain.lo)
    region = Box(mid - half, mid + half)
    anchor = draw(st.sampled_from([None, *env.goal_boxes, *env.unsafe_boxes, env.safe_box]))
    if anchor is not None and draw(st.booleans()):
        region = Box(np.maximum(region.lo, anchor.lo), np.minimum(region.hi, anchor.hi))
    fracs = draw(st.lists(st.floats(0.0, 1.0), min_size=2 * n, max_size=2 * n))
    f = np.sort(np.array(fracs).reshape(2, n), axis=0)
    width = region.hi - region.lo
    box = Box(region.lo + f[0] * width, region.lo + f[1] * width)
    return env, box, draw(st.integers(0, 2**32 - 1))


def _box_points(box, seed, k=200):
    """Uniform points of the box, some coordinates pinned to its faces."""
    rng = np.random.default_rng(seed)
    pts = box.sample(rng, k)
    face = rng.integers(0, 3, pts.shape)
    pts = np.where(face == 1, box.lo, pts)
    return np.where(face == 2, box.hi, pts)


@settings(max_examples=200, deadline=None)
@given(env_and_box())
def test_box_predicates_agree_with_points(case):
    env, box, seed = case
    pts = _box_points(box, seed)
    lo, hi = box.lo[None], box.hi[None]
    for inside, meets, holds in (
        (env.in_goal, env.goal_intersects, env.goal_contains),
        (env.in_unsafe, env.unsafe_intersects, env.unsafe_contains),
    ):
        hit = inside(pts)
        contains, intersects = holds(lo, hi)[0], meets(lo, hi)[0]
        if contains:
            assert intersects
            assert np.all(hit)
        if not intersects:
            assert not np.any(hit)


@settings(max_examples=200, deadline=None)
@given(env_and_box())
def test_unmasked_pieces_tile_box_minus_sets(case):
    env, box, seed = case
    # in one batch: the box, its translate beyond the domain, the box again
    far = env.domain.hi - env.domain.lo + 1.0
    lo = np.stack([box.lo, box.lo + far, box.lo])
    hi = np.stack([box.hi, box.hi + far, box.hi])
    p_lo, p_hi, owner = env.unmasked_pieces(lo, hi)
    assert np.all(np.diff(owner) >= 0)
    assert np.all(p_lo >= lo[owner]) and np.all(p_hi <= hi[owner])
    centres = 0.5 * (p_lo + p_hi)
    assert not np.any(env.in_goal(centres) | env.in_unsafe(centres))
    mine = owner == 0
    assert np.array_equal(p_lo[owner == 2], p_lo[mine])
    assert np.array_equal(p_hi[owner == 2], p_hi[mine])
    lo, hi = p_lo[mine], p_hi[mine]
    if mine.any():
        # pairwise-disjoint interiors: every pair is separated in some dimension
        overlap = np.all(np.minimum(hi[:, None], hi[None]) > np.maximum(lo[:, None], lo[None]),
                         axis=2)
        assert not np.any(overlap & ~np.eye(len(lo), dtype=bool))
    pts = _box_points(box, seed)
    free = pts[~env.in_goal(pts) & ~env.in_unsafe(pts)]
    covered = np.zeros(free.shape[0], dtype=bool)
    for l, h in zip(lo, hi):
        covered |= Box(l, h).contains(free)
    assert np.all(covered)

