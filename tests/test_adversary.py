import numpy as np
import pytest

import clbf.adversary
from clbf.adversary import PgdConfig, pgd_maximize_batch
from clbf.nets import Mlp, forward_batch, init_mlp, scalar_value, value_and_input_grad

from conftest import DyadicStarts, small_cert, small_policy


def linear_net(w):
    return Mlp([np.asarray(w, dtype=float)[None, :]], [np.zeros(1)])


def test_config_validation():
    with pytest.raises(ValueError):
        PgdConfig(steps=0).validate()
    with pytest.raises(ValueError):
        PgdConfig(delta=-0.1).validate()
    with pytest.raises(ValueError):
        PgdConfig(restarts=0).validate()
    # a NaN radius once passed validation and overflowed inside numpy
    for delta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="delta"):
            PgdConfig(delta=delta).validate()
        with pytest.raises(ValueError, match="delta"):
            pgd_maximize_batch(linear_net([1.0, -2.0]), np.zeros((1, 2)), PgdConfig(delta=delta))


def test_zero_radius_returns_center(rng):
    net = init_mlp([2, 8, 1], rng)
    c = rng.uniform(-1, 1, (1, 2))
    assert np.array_equal(pgd_maximize_batch(net, c, PgdConfig(delta=0.0)), c)


def test_linear_net_reaches_corner():
    net = linear_net([1.0, -2.0])
    y = pgd_maximize_batch(net, np.zeros((1, 2)), PgdConfig(delta=0.1))
    assert np.allclose(y, [[0.1, -0.1]], atol=1e-12)


def test_projection_and_ascent(rng):
    net = init_mlp([3, 16, 8, 1], rng)
    centers = rng.uniform(-1, 1, (50, 3))
    cfg = PgdConfig(delta=0.05)
    ys = pgd_maximize_batch(net, centers, cfg, np.random.default_rng(0))
    assert np.abs(ys - centers).max() <= cfg.delta + 1e-12
    v0 = scalar_value(net, centers)
    v1 = scalar_value(net, ys)
    assert np.all(v1 >= v0 - 1e-12)


def test_more_restarts_never_hurt(rng):
    net = init_mlp([2, 16, 8, 1], rng)
    centers = rng.uniform(-1, 1, (20, 2))
    prev = None
    for restarts in (1, 2, 3, 5):
        cfg = PgdConfig(delta=0.05, restarts=restarts)
        ys = pgd_maximize_batch(net, centers, cfg, np.random.default_rng(7))
        vals = scalar_value(net, ys)
        if prev is not None:
            assert np.all(vals >= prev - 1e-12)
        prev = vals


def test_close_to_grid_search(rng):
    # 2-d grid oracle over the ball; PGD should come within 1e-3
    for seed in range(5):
        net = init_mlp([2, 16, 8, 1], np.random.default_rng(seed))
        center = rng.uniform(-0.5, 0.5, 2)
        delta = 0.01
        g = np.linspace(-delta, delta, 101)
        GX, GY = np.meshgrid(g, g)
        grid = center + np.stack([GX.ravel(), GY.ravel()], axis=1)
        grid_max = scalar_value(net, grid).max()
        y = pgd_maximize_batch(net, center[None], PgdConfig(delta=delta),
                               np.random.default_rng(1))
        assert scalar_value(net, y)[0] >= grid_max - 1e-3


def nominal_next_states(env, policy, X):
    return env.step(X, env.clamp_control(forward_batch(policy, X)))


def test_attack_step_zero_delta_is_nominal(pendulum, rng):
    cert = small_cert(pendulum)
    nominal = nominal_next_states(pendulum, small_policy(pendulum),
                                  rng.uniform(-0.3, 0.3, (10, 2)))
    got = pgd_maximize_batch(cert.net, nominal, PgdConfig(delta=0.0))
    assert np.allclose(got, nominal)


def test_attack_step_stays_in_ball(pendulum, rng):
    cert = small_cert(pendulum)
    nominal = nominal_next_states(pendulum, small_policy(pendulum),
                                  rng.uniform(-0.3, 0.3, (10, 2)))
    delta = 0.02
    got = pgd_maximize_batch(cert.net, nominal, PgdConfig(delta=delta),
                             np.random.default_rng(3))
    assert np.abs(got - nominal).max() <= delta + 1e-12


def test_attack_saturates_monotone_coordinate(pendulum):
    # certificate increasing in the first coordinate: the attack pushes it up
    cert = small_cert(pendulum)
    cert.net.weights[:] = [np.array([[1.0, 0.0]]), ]
    cert.net.biases[:] = [np.zeros(1)]
    nominal = nominal_next_states(pendulum, small_policy(pendulum),
                                  np.array([[0.1, 0.1]]))
    delta = 0.01
    got = pgd_maximize_batch(cert.net, nominal, PgdConfig(delta=delta))
    assert got[0, 0] == pytest.approx(nominal[0, 0] + delta)


def reference_pgd(net, centers, cfg, rng, live_pairs=None,
                  grad_pass=value_and_input_grad):
    """The ascent loop as first written: one restart after another, a
    value-and-gradient pass at the centers and steps+1 passes per restart.
    With a list `live_pairs`, appends per step the number of rows neither at
    a fixed point nor back at the iterate before: at the first step, or
    moved by the step before to a point other than the one before that."""
    step = cfg.delta / 4.0
    lo, hi = centers - cfg.delta, centers + cfg.delta
    best_x = centers.copy()
    best_v, _ = grad_pass(net, centers)
    for restart in range(cfg.restarts):
        x = centers.copy() if restart == 0 else rng.uniform(lo, hi)
        before = [np.full_like(x, np.nan)] * 2  # iterates one and two steps back
        for _ in range(cfg.steps):
            if live_pairs is not None:
                live = (x != before[0]).any(axis=1) & (x != before[1]).any(axis=1)
                live_pairs.append(int(live.sum()))
            v, g = grad_pass(net, x)
            improve = v > best_v
            best_v = np.where(improve, v, best_v)
            best_x[improve] = x[improve]
            before = [x, before[0]]
            x = np.clip(x + step * np.sign(g), lo, hi)
        v, _ = grad_pass(net, x)
        improve = v > best_v
        best_v = np.where(improve, v, best_v)
        best_x[improve] = x[improve]
    return best_x


def one_row_at_a_time(fn):
    """fn(net, X) run on each row of X alone and stacked: no result depends
    on which rows share a batch, so BLAS blocking cannot change a bit."""
    def rowwise(net, X):
        parts = [fn(net, X[i:i + 1]) for i in range(X.shape[0])]
        if isinstance(parts[0], tuple):
            return tuple(np.concatenate(p) for p in zip(*parts))
        return np.concatenate(parts)
    return rowwise


def counting(monkeypatch, grad_pass=value_and_input_grad):
    """Send the ascent's gradient passes through a recorder that runs
    grad_pass; returns the list of their row counts."""
    calls = []

    def counted(net, X):
        calls.append(X.shape[0])
        return grad_pass(net, X)

    monkeypatch.setattr(clbf.adversary, "value_and_input_grad", counted)
    return calls


@pytest.mark.parametrize("restarts", [1, 3])
def test_matches_reference_loop_with_one_gradient_pass_per_step(restarts, monkeypatch):
    net = init_mlp([2, 32, 16, 1], np.random.default_rng(5))
    centers = np.random.default_rng(6).uniform(-1, 1, (64, 2))
    cfg = PgdConfig(steps=7, delta=0.05, restarts=restarts)
    grad_pass = one_row_at_a_time(value_and_input_grad)
    want = reference_pgd(net, centers, cfg, np.random.default_rng(9), grad_pass=grad_pass)

    monkeypatch.setattr(clbf.adversary, "forward_batch", one_row_at_a_time(forward_batch))
    calls = counting(monkeypatch, grad_pass)
    got = pgd_maximize_batch(net, centers, cfg, np.random.default_rng(9))
    assert np.array_equal(got, want)
    assert 0 < len(calls) <= cfg.steps  # all restarts share each pass


def test_active_mask_keeps_rng_stream_and_active_rows():
    net = init_mlp([2, 32, 16, 1], np.random.default_rng(5))
    centers = np.random.default_rng(6).uniform(-1, 1, (64, 2))
    active = np.random.default_rng(7).random(64) < 0.3
    cfg = PgdConfig(steps=7, delta=0.05, restarts=3)
    rng_full, rng_masked = np.random.default_rng(9), np.random.default_rng(9)
    want = pgd_maximize_batch(net, centers, cfg, rng_full)
    got = pgd_maximize_batch(net, centers, cfg, rng_masked, active)
    assert rng_masked.bit_generator.state == rng_full.bit_generator.state
    assert 0 < active.sum() < 64
    # subsets of rows may round differently in BLAS, hence the tolerance
    np.testing.assert_allclose(got[active], want[active], rtol=0, atol=1e-12)
    assert np.array_equal(got[~active], centers[~active])


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("restarts", [2, 3])
def test_starts_are_the_uniform_draws_of_the_active_rows(masked, restarts,
                                                          monkeypatch):
    # the first gradient pass holds the active centers, then each restart's
    # starts: bit for bit rng.uniform over the balls of all rows, taken at
    # the active rows, and the generator ends where those draws leave it
    net = init_mlp([2, 16, 1], np.random.default_rng(5))
    centers = np.random.default_rng(6).uniform(-1, 1, (64, 2)) * [1.0, 1e3]
    active = np.random.default_rng(7).random(64) < 0.3 if masked else None
    rows = np.flatnonzero(active) if masked else np.arange(64)
    cfg = PgdConfig(steps=3, delta=0.0375, restarts=restarts)
    passes = []

    def recorded(net, X):
        passes.append(X.copy())
        return value_and_input_grad(net, X)

    monkeypatch.setattr(clbf.adversary, "value_and_input_grad", recorded)
    rng = np.random.default_rng(9)
    pgd_maximize_batch(net, centers, cfg, rng, active)
    want_rng = np.random.default_rng(9)
    starts = [want_rng.uniform(centers - cfg.delta, centers + cfg.delta)[rows]
              for _ in range(restarts - 1)]
    assert passes[0].tobytes() == np.concatenate([centers[rows], *starts]).tobytes()
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_all_false_active_makes_no_gradient_pass(monkeypatch):
    net = init_mlp([2, 16, 1], np.random.default_rng(5))
    centers = np.random.default_rng(6).uniform(-1, 1, (8, 2))
    cfg = PgdConfig(steps=4, delta=0.05, restarts=2)
    rng_full, rng_masked = np.random.default_rng(3), np.random.default_rng(3)
    pgd_maximize_batch(net, centers, cfg, rng_full)

    calls = counting(monkeypatch)
    got = pgd_maximize_batch(net, centers, cfg, rng_masked, np.zeros(8, bool))
    assert calls == []
    assert np.array_equal(got, centers)
    assert rng_masked.bit_generator.state == rng_full.bit_generator.state


def exact_case():
    """A net with small-integer weights, centers on a 1/8 grid and delta =
    1/16: every sum in the ascent is exact, so no BLAS blocking can change
    a bit, whichever rows share a batch."""
    rng = np.random.default_rng(5)
    dims = [2, 16, 8, 1]
    net = Mlp([rng.integers(-3, 4, (m, n)).astype(float) for n, m in zip(dims, dims[1:])],
              [rng.integers(-4, 5, m) / 4.0 for m in dims[1:]])
    centers = rng.integers(-8, 9, (64, 2)) / 8.0
    return net, centers


@pytest.mark.parametrize("restarts", [1, 3])
@pytest.mark.parametrize("masked", [False, True])
def test_exact_arithmetic_matches_reference_bit_for_bit(restarts, masked):
    net, centers = exact_case()
    cfg = PgdConfig(steps=12, delta=1 / 16, restarts=restarts)
    want = reference_pgd(net, centers, cfg, DyadicStarts(9))
    active = np.arange(len(centers)) % 3 != 0 if masked else None
    got = pgd_maximize_batch(net, centers, cfg, DyadicStarts(9), active)
    if masked:
        want[~active] = centers[~active]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("restarts", [1, 3])
def test_gradient_rows_are_the_pairs_not_at_a_fixed_point(restarts, monkeypatch):
    net, centers = exact_case()
    cfg = PgdConfig(steps=12, delta=1 / 16, restarts=restarts)
    live_pairs = []
    reference_pgd(net, centers, cfg, DyadicStarts(9), live_pairs)
    calls = counting(monkeypatch)
    pgd_maximize_batch(net, centers, cfg, DyadicStarts(9))
    assert sum(calls) == sum(live_pairs)
    assert sum(calls) < restarts * cfg.steps * len(centers)  # some rows stopped


def tent_case():
    """V(x) = -|x_1| - |x_2| with centers at odd multiples of 1/32 and
    delta = 1/4: iterates stay at odd multiples of 1/32, so a coordinate
    within reach of 0 ends up alternating between -1/32 and 1/32. Every sum
    is exact, as in exact_case."""
    net = Mlp([np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
               -np.ones((1, 4))], [np.zeros(4), np.zeros(1)])
    centers = (2 * np.random.default_rng(4).integers(-8, 8, (64, 2)) + 1) / 32
    return net, centers


@pytest.mark.parametrize("restarts", [1, 3])
def test_two_cycles_stop_and_match_reference_bit_for_bit(restarts, monkeypatch):
    net, centers = tent_case()
    cfg = PgdConfig(steps=12, delta=1 / 4, restarts=restarts)
    live_pairs = []
    want = reference_pgd(net, centers, cfg, DyadicStarts(9), live_pairs)
    calls = counting(monkeypatch)
    got = pgd_maximize_batch(net, centers, cfg, DyadicStarts(9))
    assert np.array_equal(got, want)
    assert sum(calls) == sum(live_pairs)
    # every pair is cycling or fixed well before the last step
    assert len(calls) < cfg.steps
    near = np.abs(centers) < 1 / 4
    assert np.array_equal(np.abs(got)[near], np.full(near.sum(), 1 / 32))


def test_linear_net_stops_at_the_corner(monkeypatch):
    # steps 0-3 reach the corner, the pass at step 4 finds it fixed
    net = linear_net([1.0, -2.0])
    centers = np.random.default_rng(2).integers(-8, 9, (10, 2)) / 8.0
    delta = 1 / 8
    calls = counting(monkeypatch)
    y = pgd_maximize_batch(net, centers, PgdConfig(steps=20, delta=delta, restarts=1))
    assert np.array_equal(y, centers + [delta, -delta])
    assert calls == [10] * 5


class FixedStarts:
    """Stands in for the generator in PGD: hands out the given unit draws in
    turn, which put each restart's start at lo + (hi - lo) * draw."""

    def __init__(self, *draws):
        self.draws = [np.array(d, dtype=float) for d in draws]

    def random(self, shape):
        return self.draws.pop(0)

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.random(np.shape(lo))


def test_first_restart_to_reach_the_maximum_wins():
    # V = 0 on the plateau [-1/4, 1/4], where the gradient is zero, and
    # falls off outside it. Restarts 1 and 2 start on the plateau at -1/4
    # and 1/4 (draws 0 and 1/4 of the ball [-1/4, 7/4]); restart 0 cannot
    # reach it in one step from 3/4
    net = Mlp([np.array([[1.0], [-1.0]]), -np.ones((1, 2))],
              [np.full(2, -0.25), np.zeros(1)])
    centers = np.array([[0.75]])
    cfg = PgdConfig(steps=1, delta=1.0, restarts=3)
    want = reference_pgd(net, centers, cfg, FixedStarts([[0.0]], [[0.25]]))
    got = pgd_maximize_batch(net, centers, cfg, FixedStarts([[0.0]], [[0.25]]))
    assert np.array_equal(want, [[-0.25]])
    assert np.array_equal(got, want)
