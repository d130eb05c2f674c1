import numpy as np
import pytest
from hypothesis import settings

from clbf.boxes import Box
from clbf.certificate import ClbfParams, FilteredCertificate
from clbf.envs import EnvSpec, make_env
from clbf.nets import ibp_bounds, init_mlp

# CI runs with --hypothesis-profile=ci: the examples are derived from each
# test, not drawn at random, so a failure in CI reproduces anywhere. Local
# runs keep the default, randomized profile.
settings.register_profile("ci", derandomize=True, database=None)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def pendulum():
    return make_env("pendulum")


@pytest.fixture(scope="session")
def docking():
    return make_env("docking2d")


def halving_env_1d(goal_hi=0.2):
    """x' = x / 2 with the goal [0, goal_hi] and the unsafe set [0.25, 1]."""
    domain = Box(np.array([-4.0]), np.array([4.0]))
    return EnvSpec(
        name="halving1d", state_dim=1, control_dim=1,
        domain=domain, control_box=Box(np.array([-1.0]), np.array([1.0])),
        init_boxes=[domain],
        goal_boxes=[Box(np.array([0.0]), np.array([goal_hi]))],
        unsafe_boxes=[Box(np.array([0.25]), np.array([1.0]))],
        constants={}, step=lambda X, U: 0.5 * np.atleast_2d(X),
        step_jac=None, step_interval_arrays=None,
    )


def small_cert(env, seed=0, dims=(16, 8)):
    rng = np.random.default_rng(seed)
    net = init_mlp([env.state_dim, *dims, 1], rng)
    return FilteredCertificate(net, ClbfParams(), env)


def whole_box_upper_bound(cert, lo, hi):
    """The filtered upper bound with the whole box through the network: the
    raw interval bound unless the box lies inside a masked set, raised to the
    mask of each set the box meets."""
    env, p = cert.env, cert.params
    fully_masked = env.goal_contains(lo, hi) | env.unsafe_contains(lo, hi)
    out = np.where(fully_masked, -np.inf, ibp_bounds(cert.net, lo, hi)[1][:, 0])
    out = np.where(env.goal_intersects(lo, hi), np.maximum(out, p.goal_mask), out)
    return np.where(env.unsafe_intersects(lo, hi), np.maximum(out, p.unsafe_mask), out)


class DyadicStarts:
    """Stands in for the generator in PGD: restart starts on a grid of
    delta / 4 steps, so they stay exactly representable like the centers."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def random(self, shape):
        return self.rng.integers(0, 9, shape) / 8

    def uniform(self, lo, hi):
        return lo + (hi - lo) * self.random(np.shape(lo))


def small_policy(env, seed=1, dims=(8, 8)):
    rng = np.random.default_rng(seed)
    return init_mlp([env.state_dim, *dims, env.control_dim], rng)


def fd_param_grads(f, params, h=1e-5):
    """Central finite differences of scalar f() over arrays mutated in place."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            fp = f()
            p[idx] = orig - h
            fm = f()
            p[idx] = orig
            g[idx] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def fd_input_grads(f, X, h=1e-5):
    """Central finite differences of scalar f(X) w.r.t. every state entry."""
    g = np.zeros_like(X)
    it = np.nditer(X, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = X[idx]
        X[idx] = orig + h
        fp = f(X)
        X[idx] = orig - h
        fm = f(X)
        X[idx] = orig
        g[idx] = (fp - fm) / (2.0 * h)
    return g


def rel_err(a, b):
    """Block-wise relative error between gradient sets."""
    num = np.sqrt(sum(float(np.sum((x - y) ** 2)) for x, y in zip(a, b)))
    den = max(np.sqrt(sum(float(np.sum(y**2)) for y in b)), 1e-10)
    return num / den
