import numpy as np
import pytest

from clbf.nets import (Mlp, forward_batch, init_mlp, linf_lipschitz_bound,
                       spectral_product_grads)


def test_lp_bound_scalar_output_scaling(rng):
    net = init_mlp([2, 8, 1], rng)
    L, grads, _ = linf_lipschitz_bound(net)
    prod, prod_grads, _ = spectral_product_grads(net)
    assert L == pytest.approx(np.sqrt(2) * prod)
    assert all(np.allclose(g, np.sqrt(2) * h) for g, h in zip(grads, prod_grads))


def test_linf_bound_rejects_vector_output():
    # outputs (x, 0): the l-inf quotient is 1, while the general-output
    # scaling sqrt(n_in / n_out) times the spectral product gives 0.707
    net = Mlp([np.array([[1.0], [0.0]])], [np.zeros(2)])
    Y = forward_batch(net, np.array([[0.0], [1.0]]))
    assert np.abs(Y[1] - Y[0]).max() == 1.0
    with pytest.raises(ValueError, match="scalar-output"):
        linf_lipschitz_bound(net)


def test_lp_bound_dominates_linf_quotients(rng):
    for _ in range(5):
        net = init_mlp([2, 16, 8, 1], rng)
        bound = linf_lipschitz_bound(net)[0]
        X = rng.uniform(-1, 1, (100_000, 2))
        Y = rng.uniform(-1, 1, (100_000, 2))
        num = np.abs(forward_batch(net, X) - forward_batch(net, Y))[:, 0]
        den = np.abs(X - Y).max(axis=1)
        keep = den > 1e-12
        assert np.all(num[keep] <= bound * den[keep] + 1e-12)


def test_lipschitz_ball_bound_end_to_end(rng):
    # values across a delta-ball can exceed the center value by at most
    # L_inf * delta, so a verified point descent shrinks by that much
    net = init_mlp([2, 16, 8, 1], rng)
    L = linf_lipschitz_bound(net)[0]
    delta = 0.01
    for _ in range(100):
        c = rng.uniform(-1, 1, 2)
        ball = c + rng.uniform(-delta, delta, (1000, 2))
        vc = forward_batch(net, c[None])[0, 0]
        vals = forward_batch(net, ball)[:, 0]
        assert np.all(vals <= vc + L * delta + 1e-9)
        assert np.all(vals >= vc - L * delta - 1e-9)
