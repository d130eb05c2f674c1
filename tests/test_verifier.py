from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clbf.nets
import clbf.verifier
from clbf.adversary import PgdConfig, pgd_maximize_batch
from clbf.boxes import Box, volumes
from clbf.certificate import (ClbfParams, FilteredCertificate, decrease_may_fail,
                               filtered_upper_bound)
from clbf.envs import EnvSpec, make_env, pendulum_env
from clbf.nets import Mlp, backward, forward_batch, forward_tape, ibp_bounds, init_mlp
from clbf.verifier import (
    WITNESS_SLACK,
    BnbConfig,
    Verdict,
    Witness,
    _branch_and_bound,
    _candidates,
    _lex_sorted,
    _point_set,
    _points_in_unsafe,
    _recheck_decrease,
    _split_widest,
    _violation_grad,
    _vol_fraction,
    ball_max,
    certify_delta,
    check_init,
    check_robust_decrease,
)

from conftest import (fd_input_grads, halving_env_1d, rel_err, small_cert, small_policy,
                      whole_box_upper_bound)


def constant_net(value, n_in=2):
    return Mlp([np.zeros((1, n_in))], [np.array([float(value)])])


def abs_net():
    """v(x) = |x| on 1-d states, encoded with a ReLU pair."""
    return Mlp([np.array([[1.0], [-1.0]]), np.array([[1.0, 1.0]])],
               [np.zeros(2), np.zeros(1)])


def synth_env_1d(lo=0.5, hi=1.0):
    """f(x, u) = 0.5 x on the box [lo, hi]; no goal or unsafe set."""
    domain = Box(np.array([lo]), np.array([hi]))
    control = Box(np.array([-1.0]), np.array([1.0]))

    def step(X, U):
        return 0.5 * np.atleast_2d(np.asarray(X, dtype=float))

    def step_jac(X, U):
        k = np.atleast_2d(X).shape[0]
        return np.full((k, 1, 1), 0.5), np.zeros((k, 1, 1))

    def step_interval_arrays(x_lo, x_hi, u_lo, u_hi):
        return 0.5 * x_lo, 0.5 * x_hi

    return EnvSpec(
        name="synth1d", state_dim=1, control_dim=1,
        domain=domain, control_box=control,
        init_boxes=[domain], goal_boxes=[], unsafe_boxes=[],
        constants={}, step=step, step_jac=step_jac,
        step_interval_arrays=step_interval_arrays,
    )


def set_bnb_constants(mp, **values):
    """Set the verifier's module constants, named in lower case (chunk=256
    sets CHUNK), through the monkeypatch mp."""
    for name, value in values.items():
        mp.setattr(clbf.verifier, name.upper(), value)


def zero_policy(n_in=1, n_out=1):
    return Mlp([np.zeros((n_out, n_in))], [np.zeros(n_out)])


# ---------------------------------------------------------------------------
# config


def test_bnb_config_validation():
    BnbConfig().validate()
    # a NaN budget once passed, and check_init returned unknown after 0 boxes
    for bad in (dict(max_boxes=0), dict(ce_limit=0), dict(max_boxes=np.nan),
                dict(ce_limit=np.nan)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            BnbConfig(**bad).validate()


@pytest.mark.parametrize("delta", [-0.01, np.nan, np.inf])
def test_bad_delta_is_rejected_before_any_box_work(delta, pendulum, monkeypatch):
    # a NaN radius once spent the whole box budget and returned unknown
    def no_bounds(*args):
        raise AssertionError("interval work before validation")

    monkeypatch.setattr(clbf.verifier, "ibp_bounds", no_bounds)
    with pytest.raises(ValueError, match="delta"):
        check_robust_decrease(small_cert(pendulum), small_policy(pendulum), pendulum,
                              delta, 5e-3, BnbConfig(max_boxes=2000))


def test_an_env_other_than_the_certificates_is_rejected():
    # with two objects, parts of the check would read one and parts the other
    cert = small_cert(pendulum_env())
    with pytest.raises(ValueError, match="cert.env"):
        check_robust_decrease(cert, small_policy(cert.env), pendulum_env(), 0.01, 5e-3,
                              BnbConfig(max_boxes=1))


# ---------------------------------------------------------------------------
# check_init


def test_check_init_constant_pass(pendulum):
    cert = FilteredCertificate(constant_net(0.5), ClbfParams(), pendulum)
    v = check_init(cert)
    assert v.proved and v.boxes_processed == 1


def test_check_init_constant_counterexample(pendulum):
    cert = FilteredCertificate(constant_net(1.5), ClbfParams(), pendulum)
    v = check_init(cert)
    assert v.status == "counterexample"
    w = v.witness
    assert w.condition == "init"
    assert cert.value(w.state[None])[0] - cert.params.beta >= 1e-9
    assert any(b.contains(w.state) for b in pendulum.init_boxes)


def test_check_init_sliver_matches_grid_oracle(pendulum):
    # raw value beta + margin * relu(theta - t0): above beta only on a sliver
    t0, slope = 0.22, 50.0
    net = Mlp(
        [np.array([[1.0, 0.0]]), np.array([[slope]])],
        [np.array([-t0]), np.array([1.0 - 1e-6])],
    )
    cert = FilteredCertificate(net, ClbfParams(), pendulum)
    v = check_init(cert, BnbConfig(max_boxes=200_000))
    g = np.linspace(-0.3, 0.3, 201)
    GX, GY = np.meshgrid(g, g)
    grid = np.stack([GX.ravel(), GY.ravel()], axis=1)
    grid_violates = np.any(cert.value(grid) > cert.params.beta)
    assert grid_violates == (v.status == "counterexample")


def test_check_init_budget_exhaustion_is_unknown(pendulum, monkeypatch):
    t0 = 0.29999
    net = Mlp(
        [np.array([[1.0, 0.0]]), np.array([[50.0]])],
        [np.array([-t0]), np.array([1.0])],
    )
    cert = FilteredCertificate(net, ClbfParams(), pendulum)
    set_bnb_constants(monkeypatch, chunk=1)
    v = check_init(cert, BnbConfig(max_boxes=2, ce_limit=1))
    assert v.status in ("unknown", "counterexample")
    if v.status == "unknown":
        assert v.unknown_boxes and v.unknown_volume_fraction > 0


def test_check_init_drops_refuted_boxes(pendulum):
    # an output bias raised by 1.0 puts beta under V on much of the initial
    # set; each witness is the center of its box, which leaves the residue
    cert = small_cert(pendulum, seed=0)
    cert.net.biases[-1] = cert.net.biases[-1] + 1.0
    v = check_init(cert, BnbConfig(max_boxes=20_000, ce_limit=8))
    assert v.status == "counterexample" and len(v.witnesses) == 8
    states = np.stack([w.state for w in v.witnesses])
    assert not any(np.any(b.contains(states)) for b in v.unknown_boxes)


@pytest.mark.parametrize("env_name", ["pendulum", "docking2d"])
def test_check_init_tiled_bound_never_processes_more_boxes(env_name, monkeypatch):
    # check_init splits only failed boxes, and the tiled bound is at most the
    # whole-box bound at each box, so the whole-box run is never smaller; a
    # raised output bias gives witnesses
    env = make_env(env_name)
    cfg = BnbConfig(max_boxes=20_000, ce_limit=8)

    def certs():
        for seed in range(4):
            for shift in (0.0, 1.0):
                cert = small_cert(env, seed=seed, dims=(32, 16))
                cert.net.biases[-1] = cert.net.biases[-1] + shift
                yield cert

    tiled = [check_init(cert, cfg) for cert in certs()]
    monkeypatch.setattr(clbf.verifier, "filtered_upper_bound", whole_box_upper_bound)
    whole = [check_init(cert, cfg) for cert in certs()]
    assert any(t.status == "counterexample" for t in tiled)
    for t, w in zip(tiled, whole):
        assert t.status == w.status and len(t.witnesses) == len(w.witnesses)
        assert t.boxes_processed <= w.boxes_processed


# ---------------------------------------------------------------------------
# the barrier condition, by construction


def test_low_unsafe_mask_is_rejected_at_construction():
    # no verifier pass checks V > beta on the unsafe set: params whose
    # unsafe_mask is not above beta can be neither built nor copied (nor made
    # by assignment, see test_certificate.py)
    with pytest.raises(ValueError, match="need unsafe_mask > beta"):
        ClbfParams(unsafe_mask=1.0)
    with pytest.raises(ValueError, match="need unsafe_mask > beta"):
        replace(ClbfParams(), beta=1.5)


@st.composite
def valid_params(draw):
    """ClbfParams with goal_mask < beta < unsafe_mask."""
    goal_mask = draw(st.floats(-20.0, 0.0))
    beta = goal_mask + draw(st.floats(1e-3, 5.0))
    return ClbfParams(beta=beta, epsilon=draw(st.floats(1e-6, 0.1)),
                      goal_mask=goal_mask,
                      unsafe_mask=beta + draw(st.floats(1e-3, 10.0)))


UNSAFE_ENVS = {name: make_env(name) for name in ("pendulum", "docking2d")}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(UNSAFE_ENVS)), st.integers(0, 2**16),
       valid_params(), st.integers(0, 2**32 - 1))
def test_unsafe_points_evaluate_to_mask(env_name, net_seed, params, seed):
    # the barrier condition V > beta on the unsafe set, for any network
    env = UNSAFE_ENVS[env_name]
    net = init_mlp([env.state_dim, 16, 8, 1], np.random.default_rng(net_seed))
    cert = FilteredCertificate(net, params, env)
    rng = np.random.default_rng(seed)
    # by rejection from 1.2x the domain: the unsafe boxes and the outside of
    # the safe box alike
    mid, half = 0.5 * (env.domain.lo + env.domain.hi), 0.6 * (env.domain.hi - env.domain.lo)
    pts = rng.uniform(mid - half, mid + half, (400, env.state_dim))
    pts = pts[env.in_unsafe(pts)]
    assert len(pts) > 0
    v = cert.value(pts)
    assert np.all(v == params.unsafe_mask) and params.unsafe_mask > params.beta


# a state on each face of pendulum's domain [-0.7, 0.7]^2, away from the
# unsafe corners, keyed by the face's (dimension, side)
ON_FACE = {(0, -1): [-0.7, 0.3], (0, 1): [0.7, -0.3],
           (1, -1): [0.3, -0.7], (1, 1): [-0.3, 0.7]}


@pytest.mark.parametrize("face", ON_FACE,
                         ids=["theta-lo", "theta-hi", "theta_dot-lo", "theta_dot-hi"])
def test_leaving_the_pendulum_domain_is_unsafe(pendulum, face):
    cert = small_cert(pendulum)
    p = cert.params
    d, side = face
    on = np.array([ON_FACE[face]])
    past = on.copy()
    past[0, d] = np.nextafter(on[0, d], side * np.inf)
    # the domain is closed: its face is safe, the next float past it is not
    assert not pendulum.in_unsafe(on)[0] and pendulum.in_unsafe(past)[0]
    assert cert.value(past)[0] == p.unsafe_mask
    # a box straddling the face counts the unsafe mask in its bound
    lo, hi = on - 0.05, on + 0.05
    assert filtered_upper_bound(cert, lo, hi)[0] >= p.unsafe_mask
    # and the ball maximum takes a ball point past the face, at the mask
    v, y = ball_max(cert, on, cert.value(on), 0.05, PgdConfig(steps=5, restarts=2),
                    np.random.default_rng(0), np.ones(1, dtype=bool))
    assert v[0] == p.unsafe_mask and cert.value(y)[0] == p.unsafe_mask
    assert side * (y[0, d] - on[0, d]) > 0 and not pendulum.domain.contains(y[0])


# ---------------------------------------------------------------------------
# policy bounds (ibp_bounds) feeding the interval step


def test_policy_bounds_relu_example():
    net = Mlp([np.array([[1.0, -1.0]]), np.array([[1.0]])],
               [np.zeros(1), np.zeros(1)])
    B = Box(np.zeros(2), np.ones(2))
    lo, hi = ibp_bounds(net, B.lo[None], B.hi[None])
    assert lo[0, 0] == pytest.approx(0.0) and hi[0, 0] == pytest.approx(1.0)


def test_policy_bounds_degenerate_box(rng):
    net = init_mlp([2, 8, 1], rng)
    x = rng.uniform(-1, 1, 2)
    lo, hi = ibp_bounds(net, x[None], x[None])
    y = forward_batch(net, x[None])
    assert np.allclose(lo, y) and np.allclose(hi, y)


def test_policy_bounds_sound_and_clamped(pendulum, docking, rng):
    # the decrease check passes unclamped policy bounds to step_interval_arrays,
    # which clamps them to the control box itself
    clamped = 0
    for env in (pendulum, docking):
        net = init_mlp([env.state_dim, 16, 8, env.control_dim], rng)
        net.weights[-1] = 20.0 * net.weights[-1]  # outputs leave the control box
        for _ in range(20):
            c = rng.uniform(env.domain.lo, env.domain.hi)
            r = rng.uniform(0.01, 0.1, env.state_dim) * (env.domain.hi - env.domain.lo)
            lo, hi = (c - r)[None], (c + r)[None]
            u_lo, u_hi = ibp_bounds(net, lo, hi)
            pts = Box(lo[0], hi[0]).sample(rng, 500)
            u = forward_batch(net, pts)
            assert np.all(u >= u_lo - 1e-12) and np.all(u <= u_hi + 1e-12)
            clamped += np.count_nonzero(np.abs(u) > 1)
            n_lo, n_hi = env.step_interval_arrays(lo, hi, u_lo, u_hi)
            nxt = env.step(pts, u)
            assert np.all(nxt >= n_lo - 1e-10) and np.all(nxt <= n_hi + 1e-10)
            # clamping the bounds first changes nothing
            c_lo, c_hi = env.step_interval_arrays(
                lo, hi, env.clamp_control(u_lo), env.clamp_control(u_hi))
            assert np.array_equal(n_lo, c_lo) and np.array_equal(n_hi, c_hi)
    assert clamped > 0


# ---------------------------------------------------------------------------
# robust decrease


def test_decrease_proved_on_synthetic_contraction():
    env = synth_env_1d()
    cert = FilteredCertificate(abs_net(), ClbfParams(epsilon=0.1), env)
    v = check_robust_decrease(cert, zero_policy(), env, delta=0.1, epsilon=0.1)
    assert v.proved


def test_decrease_counterexample_on_sign_flipped_certificate():
    env = synth_env_1d()
    net = abs_net()
    net.weights[-1] = -net.weights[-1]  # v(x) = -|x| now increases along flow
    cert = FilteredCertificate(net, ClbfParams(epsilon=0.1), env)
    v = check_robust_decrease(cert, zero_policy(), env, delta=0.0, epsilon=0.1)
    assert v.status == "counterexample"
    w = v.witness
    # witness contract: exact re-evaluation shows the violation
    x = w.state[None]
    nxt = env.step(x, np.zeros((1, 1)))
    assert np.abs(w.ball_point - nxt[0]).max() <= 1e-12
    measured = 0.1 - (cert.value(x)[0] - cert.value(w.ball_point[None])[0])
    assert measured >= 1e-9
    assert measured == pytest.approx(w.violation)


def test_decrease_unknown_on_budget(pendulum, monkeypatch):
    cert = small_cert(pendulum, seed=2)
    policy = small_policy(pendulum, seed=3)
    set_bnb_constants(monkeypatch, chunk=1, outer_pgd_steps=1,
                      inner_pgd=PgdConfig(steps=1, restarts=1))
    v = check_robust_decrease(cert, policy, pendulum, 0.0, 5e-3, BnbConfig(max_boxes=3))
    assert v.status in ("unknown", "counterexample")


def test_decrease_random_certificate_yields_valid_counterexample(pendulum):
    cert = small_cert(pendulum, seed=9)
    policy = small_policy(pendulum, seed=10)
    v = check_robust_decrease(cert, policy, pendulum, 0.0, 5e-3,
                              BnbConfig(max_boxes=50_000))
    # an untrained certificate essentially never satisfies the condition
    assert v.status == "counterexample"
    w = v.witness
    assert not pendulum.in_goal(w.state[None])[0]
    assert cert.value(w.state[None])[0] <= cert.params.beta


def test_decrease_delta_ball_touching_unsafe_is_refuted(pendulum):
    # certificate constant 0.9 (eligible everywhere, no descent at all)
    cert = FilteredCertificate(constant_net(0.9), ClbfParams(), pendulum)
    policy = zero_policy(2, 1)
    v = check_robust_decrease(cert, policy, pendulum, 0.05, 1e-6,
                              BnbConfig(max_boxes=20_000))
    assert v.status == "counterexample"


def test_decrease_drops_refuted_boxes(pendulum):
    cert = small_cert(pendulum, seed=7)
    policy = small_policy(pendulum, seed=17)
    v = check_robust_decrease(cert, policy, pendulum, 0.01, 5e-3,
                              BnbConfig(max_boxes=1500, ce_limit=8))
    assert v.status == "counterexample" and len(v.witnesses) == 8
    assert v.unknown_boxes
    # the hunt's ascent is clipped to its box, so a witness may lie on a face
    # shared with a neighbour; none lies inside an unknown box
    for w in v.witnesses:
        assert not any(np.all((b.lo < w.state) & (w.state < b.hi))
                       for b in v.unknown_boxes)


def test_branch_and_bound_drops_only_the_boxes_of_taken_witnesses():
    roots = [Box(np.array([0.0]), np.array([1.0])), Box(np.array([1.0]), np.array([2.0]))]
    rounds = []

    def fails(lo, hi):
        return np.ones(lo.shape[0], dtype=bool)

    def hunt(lo, hi, round_):
        rounds.append(round_)
        centers = 0.5 * (lo + hi)
        return [(i, Witness(centers[i], "init", 1.0)) for i in range(lo.shape[0])]

    v = _branch_and_bound(roots, BnbConfig(ce_limit=1), "init", fails, hunt)
    assert rounds == [1]
    assert v.status == "counterexample" and v.boxes_processed == 2
    assert [w.state.tolist() for w in v.witnesses] == [[0.5]]
    # the first box is refuted and dropped; the second, whose witness is past
    # the limit, is bisected and left unknown
    assert [(b.lo.tolist(), b.hi.tolist()) for b in v.unknown_boxes] == [
        ([1.0], [1.5]), ([1.5], [2.0])]
    assert v.unknown_volume_fraction == 0.5


@pytest.mark.parametrize("max_boxes", [40, 5000])
def test_unknown_volume_fraction_is_the_box_volume_sum(max_boxes, monkeypatch):
    # a zero-velocity initial slice (zero width in the second dimension)
    # among the roots; boxes reaching past x0 = 0.1 fail, so the residual
    # holds min-width boxes and, at the small budget, the queue at the stop
    roots = [Box(np.array([-0.5, 0.0]), np.array([0.5, 0.0])),
             Box(np.array([0.0, 0.0]), np.array([0.3, 0.7])),
             Box(np.array([-1.0, -1.0]), np.array([-0.9, -0.2]))]

    def fails(lo, hi):
        return hi[:, 0] > 0.1

    def hunt(lo, hi, _round):
        return []

    set_bnb_constants(monkeypatch, min_width=0.05)
    v = _branch_and_bound(roots, BnbConfig(max_boxes=max_boxes), "init", fails, hunt)
    assert v.status == "unknown" and len(v.unknown_boxes) > len(roots)
    # at the large budget the queue runs dry: no box is split below the width
    assert v.boxes_processed == {40: 49, 5000: 239}[max_boxes]
    assert np.any(v.unknown_hi == v.unknown_lo)
    r_lo, r_hi = np.stack([b.lo for b in roots]), np.stack([b.hi for b in roots])
    want = min(1.0, sum(volumes(v.unknown_lo, v.unknown_hi).tolist())
               / sum(volumes(r_lo, r_hi).tolist()))
    assert 0 < v.unknown_volume_fraction == want < 1


# ---------------------------------------------------------------------------
# the branch-and-bound look-ahead


def hunt_every_failed_box(roots, cfg, condition, fails, hunt):
    """_branch_and_bound without the look-ahead: every popped box is bounded
    in its own round, and every failed box is hunted."""
    chunk, min_width = clbf.verifier.CHUNK, clbf.verifier.MIN_WIDTH
    r_lo, r_hi = np.stack([b.lo for b in roots]), np.stack([b.hi for b in roots])
    queue = deque([(r_lo, r_hi)])
    processed = rounds = 0
    residue, witnesses = [], []
    while queue and processed < cfg.max_boxes and len(witnesses) < cfg.ce_limit:
        lo, hi = queue.popleft()
        if lo.shape[0] > chunk:
            queue.appendleft((lo[chunk:], hi[chunk:]))
            lo, hi = lo[:chunk], hi[:chunk]
        processed += lo.shape[0]
        rounds += 1
        fail = fails(lo, hi)
        lo, hi = _lex_sorted(lo[fail], hi[fail])
        unrefuted = np.ones(lo.shape[0], dtype=bool)
        for i, w in hunt(lo, hi, rounds)[:cfg.ce_limit - len(witnesses)]:
            witnesses.append(w)
            unrefuted[i] = False
        lo, hi = lo[unrefuted], hi[unrefuted]
        splittable = (hi - lo) > min_width
        can_split = np.any(splittable, axis=1)
        residue.append((lo[~can_split], hi[~can_split]))
        if np.any(can_split):
            queue.append(_split_widest(lo[can_split], hi[can_split],
                                       splittable[can_split]))
    # a queued box that passes its own test is proved, not Unknown
    residue.extend((lo[fails(lo, hi)], hi[fails(lo, hi)]) for lo, hi in queue)
    u_lo, u_hi = (np.concatenate(a) for a in zip(*residue))
    status = "counterexample" if witnesses else "unknown" if len(u_lo) else "proved"
    total_vol = sum(volumes(r_lo, r_hi).tolist())
    return Verdict(status, condition, witnesses=witnesses, unknown_lo=u_lo, unknown_hi=u_hi,
                   unknown_volume_fraction=_vol_fraction(u_lo, u_hi, total_vol),
                   boxes_processed=processed)


def hunt_counting(loop, hunted_boxes):
    """loop, appending the number of boxes of each hunt to hunted_boxes."""
    def run(roots, cfg, condition, fails, hunt):
        def counted(lo, hi, round_):
            hunted_boxes.append(lo.shape[0])
            return hunt(lo, hi, round_)
        return loop(roots, cfg, condition, fails, counted)
    return run


# (env, seed, beta): seeded pairs whose checks hunt for several rounds; beta
# 0 makes the initial-set check fail on pendulum and docking2d
LOOKAHEAD_CASES = [("pendulum", 0, 0.0), ("docking2d", 4, 0.0),
                   ("synth1d", 2, 1.0), ("synth1d", 5, 1.0)]


def lookahead_case(env_name, seed, beta):
    env = synth_env_1d() if env_name == "synth1d" else make_env(env_name)
    cert = FilteredCertificate(small_cert(env, seed=seed).net, ClbfParams(beta=beta), env)
    return env, cert, small_policy(env, seed=seed + 10)


@pytest.mark.parametrize("case", LOOKAHEAD_CASES)
@pytest.mark.parametrize("delta", [0.0, 0.01, 0.05])
def test_lookahead_matches_hunting_every_failed_box(case, delta, monkeypatch):
    env, cert, policy = lookahead_case(*case)
    # one PGD start per ball, at its centre: the random starts of further
    # restarts are drawn per hunted row, so they move once hunts skip rows
    set_bnb_constants(monkeypatch, chunk=256, inner_pgd=PgdConfig(steps=20, restarts=1))
    cfg = BnbConfig(max_boxes=1500, ce_limit=8, seed=case[1])

    def checks():
        init = [check_init(cert, cfg)] if delta == 0 else []
        return init + [check_robust_decrease(cert, policy, env, delta, 5e-3, cfg)]

    got_hunts, want_hunts = [], []
    monkeypatch.setattr(clbf.verifier, "_branch_and_bound",
                        hunt_counting(_branch_and_bound, got_hunts))
    got = checks()
    monkeypatch.setattr(clbf.verifier, "_branch_and_bound",
                        hunt_counting(hunt_every_failed_box, want_hunts))
    want = checks()

    for g, w in zip(got, want):
        assert g.status == w.status
        assert g.boxes_processed == w.boxes_processed
        assert len(g.witnesses) == len(w.witnesses)
        for gw, ww in zip(g.witnesses, w.witnesses):
            assert np.array_equal(gw.state, ww.state)
            assert np.array_equal(gw.ball_point, ww.ball_point)
        assert [(b.lo.tolist(), b.hi.tolist()) for b in g.unknown_boxes] == \
            [(b.lo.tolist(), b.hi.tolist()) for b in w.unknown_boxes]
        assert g.unknown_volume_fraction == w.unknown_volume_fraction
    assert sum(got_hunts) <= sum(want_hunts)


@pytest.mark.parametrize("case", LOOKAHEAD_CASES)
def test_no_hunted_box_has_two_passing_halves(case, monkeypatch):
    # the hunted boxes are exactly those the loop without the look-ahead
    # hunts, less the ones whose halves both pass the box test
    env, cert, policy = lookahead_case(*case)
    set_bnb_constants(monkeypatch, chunk=256, inner_pgd=PgdConfig(steps=20, restarts=1))
    cfg = BnbConfig(max_boxes=1500, ce_limit=8, seed=case[1])

    def recording(loop, hunts):
        def run(roots, cfg, condition, fails, hunt):
            def recorded(lo, hi, round_):
                hunts.append((round_, lo, hi, fails))
                return hunt(lo, hi, round_)
            return loop(roots, cfg, condition, fails, recorded)
        return run

    got, every_failed = [], []
    for loop, hunts in ((_branch_and_bound, got), (hunt_every_failed_box, every_failed)):
        monkeypatch.setattr(clbf.verifier, "_branch_and_bound", recording(loop, hunts))
        check_init(cert, cfg)
        check_robust_decrease(cert, policy, env, 0.01, 5e-3, cfg)

    want = []
    for round_, lo, hi, fails in every_failed:
        splittable = (hi - lo) > clbf.verifier.MIN_WIDTH
        can_split = np.any(splittable, axis=1)
        n = np.count_nonzero(can_split)
        hunted = ~can_split
        if n:
            c_fail = fails(*_split_widest(lo[can_split], hi[can_split],
                                          splittable[can_split]))
            hunted[can_split] = c_fail[:n] | c_fail[n:]
        if np.any(hunted):
            want.append((round_, lo[hunted].tolist(), hi[hunted].tolist()))
    assert [(r, lo.tolist(), hi.tolist()) for r, lo, hi, _ in got] == want
    assert all(np.all(fails(lo, hi)) for _, lo, hi, fails in got)
    assert 0 < sum(len(lo) for _, lo, _ in want) \
        < sum(lo.shape[0] for _, lo, _, _ in every_failed)


def test_verdict_witness_is_the_first_of_witnesses():
    w, w2 = (Witness(np.zeros(1), "init", 1.0), Witness(np.ones(1), "init", 2.0))
    assert Verdict("proved", "init").witness is None
    assert Verdict("counterexample", "init", witnesses=[w, w2]).witness is w
    assert Verdict("counterexample", "init", w).witnesses == [w]
    assert Verdict("counterexample", "init", w, [w, w2]).witnesses == [w, w2]
    with pytest.raises(ValueError):
        Verdict("counterexample", "init", w2, [w, w2])


def test_refinement_monotone_proved_never_flips(pendulum):
    env = synth_env_1d()
    cert = FilteredCertificate(abs_net(), ClbfParams(epsilon=0.1), env)
    for budget in (10, 100, 1000):
        v = check_robust_decrease(cert, zero_policy(), env, 0.1, 0.1,
                                  BnbConfig(max_boxes=budget))
        assert v.status in ("proved", "unknown")


def test_proved_boxes_sound_by_sampling(rng):
    env = synth_env_1d()
    cert = FilteredCertificate(abs_net(), ClbfParams(epsilon=0.1), env)
    delta, eps = 0.1, 0.1
    v = check_robust_decrease(cert, zero_policy(), env, delta, eps)
    assert v.proved
    X = env.domain.sample(rng, 1000)
    nxt = env.step(X, np.zeros((1000, 1)))
    ball = nxt + rng.uniform(-delta, delta, (1000, 1))
    viol = eps - (cert.value(X) - cert.value(ball))
    assert np.all(viol <= 1e-9)


# ---------------------------------------------------------------------------
# the interval screen of the decrease hunt


def unscreened_exact_violation(cert, policy, X, nxt, rows, delta, epsilon, rng):
    """_exact_violation without either screen: every row of X is evaluated
    exactly, whatever the search's candidate rows, and the inner PGD and the
    unsafe-point search run on every row."""
    env = cert.env
    p = cert.params
    nxt = env.step(X, forward_batch(policy, X))
    v_x = cert.value(X)
    eligible = ~env.in_goal(X) & (v_x <= p.beta)
    best_y = nxt.copy()
    best_v = cert.value(nxt)
    if delta > 0:
        y = pgd_maximize_batch(cert.net, nxt, replace(clbf.verifier.INNER_PGD, delta=delta),
                               rng)
        v = cert.value(y)
        better = v > best_v
        best_v = np.where(better, v, best_v)
        best_y[better] = y[better]
    ball_lo, ball_hi = nxt - delta, nxt + delta
    rows = np.flatnonzero(env.unsafe_intersects(ball_lo, ball_hi) & (p.unsafe_mask > best_v))
    found, y_u = _points_in_unsafe(env, ball_lo[rows], ball_hi[rows])
    best_y[rows[found]] = y_u[found]
    best_v[rows[found]] = p.unsafe_mask
    viol = np.where(eligible, epsilon - (v_x - best_v), -np.inf)
    return viol, best_y, X.shape[0] if delta > 0 else 0


# (env, seed): seeded random pairs whose hunts run for many rounds and find
# several witnesses; on pendulum the screen removes most rows from PGD, fewer
# at delta 0.05, where balls that leave the domain reach the unsafe mask
@pytest.mark.parametrize("env_name,seed", [("pendulum", 7), ("docking2d", 2)])
@pytest.mark.parametrize("delta", [0.01, 0.05])
def test_screened_hunt_matches_unscreened_hunt(env_name, seed, delta, monkeypatch):
    env = make_env(env_name)
    cert = small_cert(env, seed=seed)
    policy = small_policy(env, seed=seed + 10)
    set_bnb_constants(monkeypatch, chunk=256)
    cfg = BnbConfig(max_boxes=1500, ce_limit=64, seed=seed)
    got = check_robust_decrease(cert, policy, env, delta, 5e-3, cfg)
    monkeypatch.setattr(clbf.verifier, "_exact_violation",
                        unscreened_exact_violation)
    want = check_robust_decrease(cert, policy, env, delta, 5e-3, cfg)

    assert got.status == want.status == "counterexample"
    assert got.boxes_processed == want.boxes_processed
    assert len(got.unknown_boxes) == len(want.unknown_boxes)
    assert len(got.witnesses) == len(want.witnesses) > 1
    for g, w in zip(got.witnesses, want.witnesses):
        # BLAS may round a subset of rows differently, hence the tolerance
        np.testing.assert_allclose(g.state, w.state, rtol=0, atol=1e-12)
        np.testing.assert_allclose(g.ball_point, w.ball_point, rtol=0, atol=1e-12)
        assert g.violation == pytest.approx(w.violation, rel=0, abs=1e-12)
    assert got.hunted_rows == want.hunted_rows == want.pgd_rows > 0
    assert 0 < got.pgd_rows <= want.pgd_rows
    if env_name == "pendulum":
        assert got.pgd_rows < want.pgd_rows * {0.01: 0.1, 0.05: 2 / 3}[delta]


# ---------------------------------------------------------------------------
# one evaluation per hunted point set


def two_phase_violation_grad(cert, policy, X):
    """The nominal ascent gradient with its own policy passes: a forward pass
    for the next states, and the Jacobian from a fresh tape, one backward
    pass per output."""
    env = cert.env
    tape_pi = forward_tape(policy, X)
    Y = env.step(X, tape_pi.output)
    tape_x = forward_tape(cert.net, X)
    gVx = backward(cert.net, tape_x, np.ones((X.shape[0], 1)))[1]
    tape_y = forward_tape(cert.net, Y)
    _, unmasked = cert.apply_masks(Y, tape_y.output[:, 0])
    gVy = backward(cert.net, tape_y, unmasked[:, None].astype(float))[1]
    A, B = env.step_jac(X, tape_pi.output)
    g = -gVx + np.einsum("kij,ki->kj", A, gVy)
    tape_j = forward_tape(policy, X)
    J_pi = np.empty((X.shape[0], policy.n_out, policy.n_in))
    for j in range(policy.n_out):
        gY = np.zeros((X.shape[0], policy.n_out))
        gY[:, j] = 1.0
        J_pi[:, j, :] = backward(policy, tape_j, gY)[1]
    gu = np.einsum("kij,ki->kj", B, gVy)
    return g + np.einsum("kmj,km->kj", J_pi, gu)


def two_phase_exact_violation(cert, policy, sets, delta, epsilon, rng):
    """The screened exact check of the stacked point sets, with its own
    policy and certificate passes, one per set: a pass over all sets at
    once could round differently."""
    env = cert.env
    p = cert.params
    nxt = [env.step(X, env.clamp_control(forward_batch(policy, X))) for X in sets]
    X, v_x, nxt, v_nxt = (np.concatenate(a) for a in (
        sets, [cert.value(X) for X in sets], nxt, [cert.value(n) for n in nxt]))
    eligible = ~env.in_goal(X) & (v_x <= p.beta)
    active = eligible.copy()
    if delta > 0:
        rows = np.flatnonzero(eligible)
        ub = filtered_upper_bound(cert, nxt[rows] - delta, nxt[rows] + delta)
        active[rows] = epsilon - (v_x[rows] - ub) >= 0
    best_v, best_y = ball_max(cert, nxt, v_nxt, delta, clbf.verifier.INNER_PGD, rng,
                              active)
    viol = np.where(eligible, epsilon - (v_x - best_v), -np.inf)
    return viol, best_y, int(np.count_nonzero(active)) if delta > 0 else 0


def two_phase_hunt(cert, policy, cert32, policy32, lo, hi, delta, epsilon, rng):
    """The decrease hunt in two phases: the whole sign ascent on the search
    copies first, then the exact checks of every row, each phase with its
    own passes. The centers are checked alone, and the ascent's iterates, if
    needed, in one check of them all."""
    if lo.shape[0] == 0:
        return [], 0, 0
    x = 0.5 * (lo + hi)
    checked = [x.copy()]
    steps = clbf.verifier.OUTER_PGD_STEPS
    step = (hi - lo) / (2.0 * steps)
    for _ in range(steps):
        g = two_phase_violation_grad(cert32, policy32, x)
        x = np.clip(x + step * np.sign(g), lo, hi)
        checked.append(x.copy())
    found, hunted, pgd = [], 0, 0
    for sets in (checked[:1], checked[1:]):
        viol, ball_pts, pgd_rows = two_phase_exact_violation(
            cert, policy, sets, delta, epsilon, rng)
        hunted += viol.shape[0]
        pgd += pgd_rows
        for s, X_set in enumerate(sets):
            rows = slice(s * len(x), (s + 1) * len(x))
            for i in np.flatnonzero(viol[rows] >= WITNESS_SLACK):
                w = Witness(X_set[i].copy(), "decrease", float(viol[rows][i]),
                            ball_pts[rows][i].copy())
                if _recheck_decrease(cert, policy, w, delta, epsilon):
                    found.append((int(i), w))
            if found:
                return found, hunted, pgd
    return found, hunted, pgd


def smooth_ascent_states(cert, policy, env, rng, k, margin=1e-3):
    """k states of env's domain around which the nominal violation is smooth:
    every ReLU pre-activation of the policy at x and of V at x and at the
    next state is at least margin from 0, each control at least margin from
    the clamp, and the next state's margin-box does not straddle the goal or
    the unsafe set."""
    X = rng.uniform(env.domain.lo, env.domain.hi, (400, env.state_dim))
    U = forward_batch(policy, X)
    nxt = env.step(X, U)
    ok = np.all((np.abs(U - env.control_box.lo) > margin)
                & (np.abs(U - env.control_box.hi) > margin), axis=1)
    for net, Z in ((policy, X), (cert.net, X), (cert.net, nxt)):
        for z in forward_tape(net, Z).preacts[:-1]:
            ok &= np.all(np.abs(z) > margin, axis=1)
    n_lo, n_hi = nxt - margin, nxt + margin
    ok &= env.goal_intersects(n_lo, n_hi) == env.goal_contains(n_lo, n_hi)
    ok &= env.unsafe_intersects(n_lo, n_hi) == env.unsafe_contains(n_lo, n_hi)
    return X[ok][:k]


@pytest.mark.parametrize("env_name,seed", [("pendulum", 3), ("docking2d", 5)])
def test_violation_grad_matches_finite_differences(env_name, seed):
    env = make_env(env_name)
    cert = small_cert(env, seed=seed)
    policy = small_policy(env, seed=seed + 10)
    X = smooth_ascent_states(cert, policy, env, np.random.default_rng(seed), 64)
    assert X.shape[0] == 64

    def violation(X):
        # the summed nominal violation, up to the constant epsilon
        nxt = env.step(X, forward_batch(policy, X))
        return float(np.sum(cert.value(nxt) - cert.raw(X)))

    nxt, raw_x, v_nxt, g = _violation_grad(cert, policy, X)
    want_nxt = env.step(X, forward_batch(policy, X))
    assert np.array_equal(nxt, want_nxt)
    assert np.array_equal(raw_x, cert.raw(X))
    assert np.array_equal(v_nxt, cert.value(want_nxt))
    # next states on the masked sets contribute no gradient, the others do
    unmasked = cert.apply_masks(nxt, cert.raw(nxt))[1]
    assert np.any(unmasked) and not np.all(unmasked)
    assert rel_err([g], [fd_input_grads(violation, X.copy())]) < 1e-4


@pytest.mark.parametrize("env_name,seed", [("pendulum", 7), ("docking2d", 2)])
@pytest.mark.parametrize("delta", [0.0, 0.01])
def test_shared_hunt_matches_two_phase_hunt(env_name, seed, delta, monkeypatch):
    env = make_env(env_name)
    cert = small_cert(env, seed=seed)
    policy = small_policy(env, seed=seed + 10)
    set_bnb_constants(monkeypatch, chunk=256)
    cfg = BnbConfig(max_boxes=1500, ce_limit=64, seed=seed)

    def recording(hunt, rng_states):
        def hunt_and_record(*args):
            found = hunt(*args)
            rng_states.append(args[-1].bit_generator.state)
            return found
        return hunt_and_record

    got_rng, want_rng = [], []
    monkeypatch.setattr(clbf.verifier, "_hunt_decrease_ce",
                        recording(clbf.verifier._hunt_decrease_ce, got_rng))
    got = check_robust_decrease(cert, policy, env, delta, 5e-3, cfg)
    monkeypatch.setattr(clbf.verifier, "_hunt_decrease_ce",
                        recording(two_phase_hunt, want_rng))
    want = check_robust_decrease(cert, policy, env, delta, 5e-3, cfg)

    # the same random stream, drawn in the same order
    assert got_rng == want_rng
    assert got.status == want.status == "counterexample"
    assert got.boxes_processed == want.boxes_processed
    assert len(got.unknown_boxes) == len(want.unknown_boxes)
    assert len(got.witnesses) == len(want.witnesses) > 1
    for g, w in zip(got.witnesses, want.witnesses):
        assert np.array_equal(g.state, w.state)
        # the exact check evaluates its candidate rows as one batch, which
        # BLAS may round differently from the reference's batch of each set
        np.testing.assert_allclose(g.ball_point, w.ball_point, rtol=0, atol=1e-12)
        assert g.violation == pytest.approx(w.violation, rel=0, abs=1e-12)
    assert got.hunted_rows == want.hunted_rows > 0
    assert got.pgd_rows == want.pgd_rows


def count_calls(fn, calls, rows_of=None):
    """fn, appending to calls the rows of each call's arguments (or 1)."""
    def counted(*args):
        calls.append(rows_of(args) if rows_of else 1)
        return fn(*args)
    return counted


def test_hunt_sends_each_point_set_through_the_policy_once(pendulum, monkeypatch):
    cert = small_cert(pendulum, seed=7)
    policy = small_policy(pendulum, seed=17)
    set_bnb_constants(monkeypatch, chunk=256)
    cfg = BnbConfig(max_boxes=1500, ce_limit=64, seed=7)
    search_rows, batch_rows, nets_policy_rows, boxes, rechecks = [], [], [], [], []
    candidates = []

    def is_search_policy(net):
        return (net is not policy and net.dtype == np.float32
                and all(np.array_equal(p, q.astype(np.float32))
                        for p, q in zip(net.params(), policy.params())))

    def count_policy_rows(fn, exact, search):
        def counted(net, X):
            if net is policy:
                exact.append(X.shape[0])
            elif is_search_policy(net):
                search.append(X.shape[0])
            return fn(net, X)
        return counted

    # the search's point sets go through the float32 copy of the policy,
    # by input_jacobian or, for the last set, forward_batch; the exact
    # check's candidates and the rechecks go through the policy itself, by
    # forward_batch. Calls from inside nets look these names up in clbf.nets
    monkeypatch.setattr(clbf.verifier, "input_jacobian", count_policy_rows(
        clbf.verifier.input_jacobian, nets_policy_rows, search_rows))
    monkeypatch.setattr(clbf.verifier, "forward_batch", count_policy_rows(
        clbf.verifier.forward_batch, batch_rows, search_rows))
    for name in ("forward_tape", "forward_batch", "input_jacobian"):
        monkeypatch.setattr(clbf.nets, name, count_policy_rows(
            getattr(clbf.nets, name), nets_policy_rows, nets_policy_rows))
    monkeypatch.setattr(clbf.verifier, "_hunt_decrease_ce", count_calls(
        clbf.verifier._hunt_decrease_ce, boxes, lambda args: args[4].shape[0]))
    monkeypatch.setattr(clbf.verifier, "_recheck_decrease", count_calls(
        clbf.verifier._recheck_decrease, rechecks))
    monkeypatch.setattr(clbf.verifier, "_exact_violation", count_calls(
        clbf.verifier._exact_violation, candidates, lambda args: len(args[4])))
    v = check_robust_decrease(cert, policy, pendulum, 0.01, 5e-3, cfg)

    assert v.status == "counterexample" and len(rechecks) > 0
    assert sum(search_rows) == v.hunted_rows
    assert sum(batch_rows) == sum(candidates) + len(rechecks)
    # the exact check evaluates the candidates only, which hold every row
    # it passes to PGD
    assert v.pgd_rows <= sum(candidates) < v.hunted_rows
    # a hunt whose centers hold a witness evaluates only them
    assert v.hunted_rows < (clbf.verifier.OUTER_PGD_STEPS + 1) * sum(boxes)
    assert nets_policy_rows == []


def test_hunt_checks_the_ascent_in_one_exact_pass(pendulum, monkeypatch):
    # each hunt checks its centers, then, if they hold no witness, every
    # iterate of the ascent at once; hunted_rows counts what was checked.
    # An ascent length other than the default shows that the hunt reads it
    cert = small_cert(pendulum, seed=7)
    policy = small_policy(pendulum, seed=17)
    steps = 3
    set_bnb_constants(monkeypatch, chunk=256, outer_pgd_steps=steps)
    cfg = BnbConfig(max_boxes=1500, ce_limit=64, seed=7)
    hunts = []  # per hunt: [boxes, found, rows of each exact check]
    hunt_decrease_ce = clbf.verifier._hunt_decrease_ce
    exact_violation = clbf.verifier._exact_violation

    def hunt(*args):
        hunts.append([args[4].shape[0], None])
        found = hunt_decrease_ce(*args)
        hunts[-1][1] = found[0]
        return found

    def exact(cert, policy, X, *args):
        hunts[-1].append(X.shape[0])
        return exact_violation(cert, policy, X, *args)

    monkeypatch.setattr(clbf.verifier, "_hunt_decrease_ce", hunt)
    monkeypatch.setattr(clbf.verifier, "_exact_violation", exact)
    v = check_robust_decrease(cert, policy, pendulum, 0.01, 5e-3, cfg)

    assert v.status == "counterexample"
    assert v.hunted_rows == sum(sum(h[2:]) for h in hunts)
    for k, found, *checks in hunts:
        assert checks in ([k], [k, steps * k])
        assert found or checks == [k, steps * k]
    # some hunts find their witnesses at the centers, some past them
    assert any(found and checks == [k] for k, found, *checks in hunts)
    assert any(found and len(checks) == 2 for k, found, *checks in hunts)


@pytest.mark.parametrize("delta", [0.0, 0.05])
def test_hunt_stops_at_the_first_point_set_with_a_witness(delta, monkeypatch):
    # a constant certificate never decreases, so every box centre violates
    env = synth_env_1d()
    cert = FilteredCertificate(constant_net(0.9, n_in=1), ClbfParams(), env)
    boxes, grads = [], []
    monkeypatch.setattr(clbf.verifier, "_hunt_decrease_ce", count_calls(
        clbf.verifier._hunt_decrease_ce, boxes, lambda args: args[4].shape[0]))
    monkeypatch.setattr(clbf.verifier, "_violation_grad", count_calls(
        clbf.verifier._violation_grad, grads, lambda args: args[2].shape[0]))
    v = check_robust_decrease(cert, zero_policy(), env, delta, 1e-3)

    assert v.status == "counterexample" and len(boxes) > 0
    assert v.hunted_rows == sum(boxes)
    assert grads == boxes


def test_inner_pgd_ascends_only_the_rows_the_screen_passes(pendulum, monkeypatch):
    # the hunt searches each delta-ball once, in the exact check; the ascent
    # climbs the nominal violation and runs no PGD of its own
    cert = small_cert(pendulum, seed=7)
    policy = small_policy(pendulum, seed=17)
    set_bnb_constants(monkeypatch, chunk=256)
    cfg = BnbConfig(max_boxes=1500, ce_limit=64, seed=7)
    ascended = []

    def counted(net, centers, cfg, rng=None, active=None):
        ascended.append(len(centers) if active is None else np.count_nonzero(active))
        return pgd_maximize_batch(net, centers, cfg, rng, active)

    monkeypatch.setattr(clbf.verifier, "pgd_maximize_batch", counted)
    hunts = []
    monkeypatch.setattr(clbf.verifier, "_hunt_decrease_ce", count_calls(
        clbf.verifier._hunt_decrease_ce, hunts))
    v = check_robust_decrease(cert, policy, pendulum, 0.01, 5e-3, cfg)
    assert v.status == "counterexample" and v.pgd_rows > 0
    assert sum(ascended) == v.pgd_rows
    # one PGD call for the centers and at most one for the ascent's iterates
    assert len(hunts) < len(ascended) <= 2 * len(hunts)


def test_hunt_counts_are_zero_without_pgd(pendulum, monkeypatch):
    cert = small_cert(pendulum, seed=7)
    policy = small_policy(pendulum, seed=17)
    set_bnb_constants(monkeypatch, chunk=64)
    v = check_robust_decrease(cert, policy, pendulum, 0.0, 5e-3,
                              BnbConfig(max_boxes=300, ce_limit=64))
    assert v.hunted_rows > 0 and v.pgd_rows == 0


# ---------------------------------------------------------------------------
# the float32 search in front of the float64 exact check


# (env, seed, beta): pairs whose hunts run for many rounds; on pendulum and
# docking2d they find several witnesses, on synth1d none
SEARCH_CASES = [("pendulum", 7, 1.0), ("docking2d", 2, 1.0), ("synth1d", 7, 1.0)]


@pytest.mark.parametrize("case", SEARCH_CASES)
@pytest.mark.parametrize("delta", [0.0, 0.01, 0.05])
def test_float32_hunt_matches_float64_hunt(case, delta, monkeypatch):
    env, cert, policy = lookahead_case(*case)
    set_bnb_constants(monkeypatch, chunk=256)
    cfg = BnbConfig(max_boxes=1500, ce_limit=64, seed=case[1])
    got = check_robust_decrease(cert, policy, env, delta, 5e-3, cfg)
    set_bnb_constants(monkeypatch, search_dtype=np.float64)
    want = check_robust_decrease(cert, policy, env, delta, 5e-3, cfg)

    assert got.status == want.status
    assert got.boxes_processed == want.boxes_processed
    assert len(got.witnesses) == len(want.witnesses)
    assert (len(got.witnesses) > 1) == (case[0] != "synth1d")
    for g, w in zip(got.witnesses, want.witnesses):
        assert np.array_equal(g.state, w.state)
        # BLAS may round the candidate rows of the two searches differently
        np.testing.assert_allclose(g.ball_point, w.ball_point, rtol=0, atol=1e-12)
    assert got.hunted_rows == want.hunted_rows > 0
    assert got.pgd_rows == want.pgd_rows
    assert (got.pgd_rows > 0) == (delta > 0)


SEARCH_ENVS = {name: make_env(name) for name in ("pendulum", "docking2d")}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["pendulum", "docking2d"]), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.01, 0.05]), st.booleans())
def test_float32_candidates_hold_every_row_the_float64_screen_passes(env_name, seed,
                                                                     delta, grad):
    env = SEARCH_ENVS[env_name]
    rng = np.random.default_rng(seed)
    cert = small_cert(env, seed=int(rng.integers(1000)))
    policy = small_policy(env, seed=int(rng.integers(1000)))
    X = rng.uniform(env.domain.lo, env.domain.hi, (400, env.state_dim))
    # values around beta, so that eligibility splits the rows
    cert.net.biases[-1][0] += cert.params.beta - np.median(cert.raw(X))
    # the float64 screen: at delta > 0 decrease_may_fail, at delta 0 the
    # nominal violation, the ball being its centre
    nxt = env.step(X, forward_batch(policy, X))
    v_x = cert.value(X)
    eligible = ~env.in_goal(X) & (v_x <= cert.params.beta)
    rows = np.flatnonzero(eligible)
    ub = (filtered_upper_bound(cert, nxt[rows] - delta, nxt[rows] + delta) if delta > 0
          else cert.value(nxt)[rows])
    # a margin that half the eligible rows pass, one of them with no room
    gaps = np.sort(v_x[rows] - ub)
    epsilon = float(gaps[len(gaps) // 2]) if len(gaps) else 5e-3
    if delta > 0:
        passed = decrease_may_fail(cert, eligible, v_x, nxt, delta, epsilon)
    else:
        passed = eligible & (epsilon - (v_x - cert.value(nxt)) >= 0)

    cert32 = replace(cert, net=cert.net.astype(np.float32))
    _, nxt32, raw_x, v_nxt, _ = _point_set(cert32, policy.astype(np.float32), X, grad)
    cand = _candidates(cert32, X, nxt32, raw_x, v_nxt, delta, epsilon)
    assert not np.any(passed & ~cand)
    assert len(rows) // 2 < np.count_nonzero(passed) or not len(rows)


def test_point_in_unsafe_finds_a_point_of_the_unsafe_set():
    # goal [0, 0.2], unsafe set [0.25, 1]
    env = halving_env_1d()
    found, _ = _points_in_unsafe(env, np.array([[0.0]]), np.array([[0.2]]))
    assert found.tolist() == [False]
    for ball in (Box(np.array([0.1]), np.array([0.3])),
                 Box(np.array([0.3]), np.array([0.85]))):
        found, y = _points_in_unsafe(env, ball.lo[None], ball.hi[None])
        assert found.tolist() == [True]
        assert env.in_unsafe(y)[0] and ball.contains(y)[0]


def test_point_in_unsafe_pushes_a_coordinate_beyond_the_domain(docking):
    # a ball past the verification domain meets no unsafe tile, but it lies
    # outside the safe band, so a ball point is still unsafe
    ball = Box(np.array([2.55, 0.0, 0.0, 0.0]), np.array([2.65, 0.1, 0.1, 0.1]))
    assert not any(np.all(np.maximum(ball.lo, ub.lo) <= np.minimum(ball.hi, ub.hi))
                   for ub in docking.unsafe_boxes)
    found, y = _points_in_unsafe(docking, ball.lo[None], ball.hi[None])
    assert found.tolist() == [True]
    assert docking.in_unsafe(y)[0] and ball.contains(y)[0]


def test_points_in_unsafe_mixes_found_and_missing_rows(docking):
    # rows: inside the safe band; across its x = 2 face; past the domain;
    # inside again; across the vy = -0.5 face
    lo = np.array([[0.0, 0.0, 0.0, 0.0], [1.95, 0.0, 0.0, 0.0], [2.55, 0.0, 0.0, 0.0],
                   [-1.0, -1.0, -0.1, -0.1], [0.0, 0.0, 0.0, -0.55]])
    hi = lo + 0.1
    found, y = _points_in_unsafe(docking, lo, hi)
    assert found.tolist() == [False, True, True, False, True]
    assert np.all(docking.in_unsafe(y[found]))
    assert np.all((y[found] >= lo[found]) & (y[found] <= hi[found]))
    # the ball across x = 2 takes its centre pushed to its upper x face
    want = 0.5 * (lo[1] + hi[1])
    want[0] = hi[1, 0]
    assert np.array_equal(y[1], want)


def point_in_unsafe_one(env, lo, hi):
    """The per-ball search that _points_in_unsafe batches."""
    centre = 0.5 * (lo + hi)
    for ub in env.unsafe_boxes:
        in_lo, in_hi = np.maximum(lo, ub.lo), np.minimum(hi, ub.hi)
        if np.all(in_lo <= in_hi) and env.in_unsafe(0.5 * (in_lo + in_hi)[None])[0]:
            return 0.5 * (in_lo + in_hi)
    for d in range(lo.shape[0]):
        for val in (lo[d], hi[d]):
            y = centre.copy()
            y[d] = val
            if env.in_unsafe(y[None])[0]:
                return y
    return None


@pytest.mark.parametrize("env_name", ["pendulum", "docking2d"])
def test_points_in_unsafe_equals_the_per_ball_search(env_name):
    env = make_env(env_name)
    rng = np.random.default_rng(3)
    centre = rng.uniform(1.2 * env.domain.lo, 1.2 * env.domain.hi, (400, env.state_dim))
    radius = rng.choice([0.0, 0.01, 0.05, 0.2], (400, 1))
    lo, hi = centre - radius, centre + radius
    found, y = _points_in_unsafe(env, lo, hi)
    assert 0 < np.count_nonzero(found) < 400
    for i in range(400):
        want = point_in_unsafe_one(env, lo[i], hi[i])
        assert found[i] == (want is not None)
        if want is not None:
            assert np.array_equal(y[i], want)


def rising_at_left_net():
    """v(x) = 0.9 + 10 relu(-x - 3): 0.9 on [-3, 4], above beta left of -3.01."""
    return Mlp([np.array([[-1.0]]), np.array([[10.0]])],
               [np.array([-3.0]), np.array([0.9])])


def test_recheck_decrease_rejects_forged_witnesses():
    # x' = x / 2 with the goal [0, 0.2] and the unsafe set [0.25, 1]
    env = halving_env_1d()
    cert = FilteredCertificate(rising_at_left_net(), ClbfParams(), env)
    delta, eps = 0.01, 10.0

    def witness(x, y):
        return Witness(np.array([x]), "decrease", 1.0, np.array([y]))

    def recheck(w, epsilon=eps):
        return _recheck_decrease(cert, zero_policy(), w, delta, epsilon)

    # V(-2) = V(-1) = 0.9, so the violation is epsilon
    assert recheck(witness(-2.0, -1.0 + delta))
    assert not recheck(witness(0.1, 0.05))                # state in the goal
    assert cert.value(np.array([[-3.5]]))[0] > cert.params.beta
    assert not recheck(witness(-3.5, -1.75))              # V above beta
    assert not recheck(witness(-2.0, -1.0 + 2 * delta))  # outside the ball
    assert recheck(witness(-2.0, -1.0), WITNESS_SLACK)
    assert not recheck(witness(-2.0, -1.0), WITNESS_SLACK / 2)  # below slack


SCREEN_ENVS = {name: make_env(name) for name in ("pendulum", "docking2d")}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SCREEN_ENVS)), st.integers(0, 3),
       st.floats(1e-3, 0.3), st.integers(0, 2**32 - 1))
def test_exact_ball_max_never_exceeds_the_interval_bound(env_name, cert_seed,
                                                         delta, seed):
    env = SCREEN_ENVS[env_name]
    cert = small_cert(env, seed=cert_seed)
    rng = np.random.default_rng(seed)
    # centres within 1.2x the domain, so balls reach into every set
    mid, half = 0.5 * (env.domain.lo + env.domain.hi), 0.6 * (env.domain.hi - env.domain.lo)
    nxt = rng.uniform(mid - half, mid + half, (16, env.state_dim))
    best_v, best_y = ball_max(cert, nxt, cert.value(nxt), delta,
                              PgdConfig(steps=10, restarts=2), rng, np.ones(16, bool))
    ub = filtered_upper_bound(cert, nxt - delta, nxt + delta)
    assert np.all(best_v <= ub)
    assert np.all((best_y >= nxt - delta) & (best_y <= nxt + delta))
    assert np.array_equal(best_v, cert.value(best_y))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(SCREEN_ENVS)), st.integers(0, 2**16),
       st.floats(-0.5, 1.0), st.sampled_from([0.0, 0.01, 0.05]))
def test_every_witness_passes_an_outside_recheck(env_name, seed, beta, delta):
    # re-evaluated from outside the verifier, as perfbench's verdict check does
    env = SCREEN_ENVS[env_name]
    cert = FilteredCertificate(small_cert(env, seed=seed).net, ClbfParams(beta=beta), env)
    policy = small_policy(env, seed=seed + 1)
    eps = 5e-3
    cfg = BnbConfig(max_boxes=300, ce_limit=8, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        set_bnb_constants(mp, chunk=64)
        init = check_init(cert, cfg)
        dec = check_robust_decrease(cert, policy, env, delta, eps, cfg)
    for v in (init, dec):
        assert (v.status == "counterexample") == bool(v.witnesses)
        assert len(v.witnesses) <= cfg.ce_limit
    for w in init.witnesses:
        x = np.asarray(w.state, dtype=float)[None]
        assert w.condition == "init" and any(b.contains(x[0]) for b in env.init_boxes)
        assert cert.value(x)[0] - beta >= WITNESS_SLACK
    for w in dec.witnesses:
        x = np.asarray(w.state, dtype=float)[None]
        nxt = env.step(x, env.clamp_control(forward_batch(policy, x)))[0]
        y = np.asarray(w.ball_point, dtype=float)
        assert w.condition == "decrease"
        assert np.abs(y - nxt).max() <= delta + 1e-12
        v_x = cert.value(x)[0]
        assert v_x <= beta and not env.in_goal(x)[0]
        assert eps - (v_x - cert.value(y[None])[0]) >= WITNESS_SLACK


# ---------------------------------------------------------------------------
# bisection / certify_delta


def certify_with_decrease(monkeypatch, passes, **kwargs):
    """certify_delta on the 1-d contraction, with the decrease check replaced
    by the predicate passes(delta): Proved where it holds, else Unknown."""
    env = synth_env_1d()
    cert = FilteredCertificate(abs_net(), ClbfParams(epsilon=0.1), env)

    def stub(cert, policy, env, delta, epsilon, cfg=None):
        return Verdict("proved" if passes(delta) else "unknown", "decrease")

    monkeypatch.setattr(clbf.verifier, "check_robust_decrease", stub)
    return certify_delta(cert, zero_policy(), **kwargs)


def failed_probes(info):
    return [d for d, status in info["history"] if status != "proved"]


def test_bisection_reference_case(monkeypatch):
    best, _ = certify_with_decrease(monkeypatch, lambda d: d <= 0.0123,
                                    delta_hi=0.1, tol=1e-4)
    assert 0.0122 <= best <= 0.0123


def test_bisection_against_stub_thresholds(rng, monkeypatch):
    for _ in range(100):
        thresh = rng.uniform(1e-3, 0.099)
        best, info = certify_with_decrease(monkeypatch, lambda d: d <= thresh,
                                           delta_hi=0.1, tol=1e-4)
        assert thresh - 1e-4 < best <= thresh
        # never exceeds any delta that failed
        assert all(best <= d for d in failed_probes(info))


def test_bisection_degenerate_cases(monkeypatch):
    best, info = certify_with_decrease(monkeypatch, lambda d: False, delta_hi=0.1)
    assert best == 0.0 and info["history"] == [(0.0, "unknown")]
    assert info["reason"] == "decrease condition fails at delta=0"
    best, info = certify_with_decrease(monkeypatch, lambda d: True, delta_hi=0.1)
    assert best == 0.1 and info["history"] == [(0.0, "proved"), (0.1, "proved")]
    assert "reason" not in info


def probe_limited(passes, limit=500):
    """passes, raising once it is probed more than limit times, so that a
    bisection which never ends fails instead of hanging."""
    probes = 0

    def probe(x):
        nonlocal probes
        probes += 1
        if probes > limit:
            raise RuntimeError(f"more than {limit} probes")
        return passes(x)

    return probe


def test_bisection_below_the_float_spacing_ends(rng, monkeypatch):
    # a tol below the spacing of floats ends the search when its ends are
    # adjacent floats, the lower passing and the upper failing: the lower
    # is the threshold itself
    for _ in range(20):
        thresh = rng.uniform(1e-3, 0.099)
        best, info = certify_with_decrease(
            monkeypatch, probe_limited(lambda d: d <= thresh), delta_hi=0.1, tol=1e-300)
        assert best == thresh
        assert min(failed_probes(info)) == np.nextafter(thresh, np.inf)


def test_bisection_rejects_a_tolerance_that_is_not_positive(monkeypatch):
    for tol in (0.0, -1e-4, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            certify_with_decrease(monkeypatch, probe_limited(lambda d: d <= 0.01),
                                  delta_hi=0.1, tol=tol)


def test_certify_delta_with_a_tolerance_below_the_float_spacing(monkeypatch):
    thresh = 0.0123
    delta, _ = certify_with_decrease(monkeypatch, probe_limited(lambda d: d <= thresh),
                                     delta_hi=0.05, tol=1e-300)
    assert delta == thresh
    with pytest.raises(ValueError, match="tol must be positive"):
        certify_with_decrease(monkeypatch, lambda d: d <= thresh, delta_hi=0.05, tol=0.0)


def test_certify_delta_on_synthetic_contraction():
    env = synth_env_1d()
    cert = FilteredCertificate(abs_net(), ClbfParams(epsilon=0.1), env)
    # v(x) - max ball v = 0.5 x - delta >= 1e-6; at x=0.5 passes iff
    # delta <= 0.25 - 1e-6, capped by delta_hi
    delta, info = certify_delta(cert, zero_policy(), delta_hi=0.3,
                                epsilon=1e-6)
    assert 0.2499 <= delta <= 0.25


def test_certify_delta_requires_preconditions(pendulum):
    cert = FilteredCertificate(constant_net(1.5), ClbfParams(), pendulum)
    policy = small_policy(pendulum)
    delta, info = certify_delta(cert, policy)
    assert delta == 0.0 and info["reason"] == "precondition failed (init)"
    assert set(info) == {"init", "history", "reason"}


def test_certify_delta_reports_a_decrease_failure_at_zero():
    env = synth_env_1d()
    # v(x) = -|x| rises along x' = 0.5 x, so the check fails already at delta=0
    neg_abs = Mlp([np.array([[1.0], [-1.0]]), np.array([[-1.0, -1.0]])],
                  [np.zeros(2), np.zeros(1)])
    cert = FilteredCertificate(neg_abs, ClbfParams(epsilon=0.1), env)
    delta, info = certify_delta(cert, zero_policy())
    assert delta == 0.0
    assert info["reason"] == "decrease condition fails at delta=0"
    assert info["history"] == [(0.0, "counterexample")]


def test_certify_delta_bisects_a_monotone_decrease_check(monkeypatch):
    thresh, tol = 0.0123, 1e-4
    delta, info = certify_with_decrease(monkeypatch, lambda d: d <= thresh,
                                        delta_hi=0.05, tol=tol)
    assert thresh - tol <= delta <= thresh
    assert "reason" not in info
    history = info["history"]
    assert history[0] == (0.0, "proved") and history[1] == (0.05, "unknown")
    assert all(d <= delta for d, status in history if status == "proved")
    assert all(d > delta for d in failed_probes(info))
