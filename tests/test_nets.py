import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clbf.nets import (
    Adam,
    Mlp,
    _ibp_tile_rows,
    backward,
    forward_batch,
    forward_tape,
    ibp_bounds,
    init_mlp,
    input_jacobian,
    spectral_norm_vectors,
    spectral_product_grads,
    value_and_input_grad,
)

from conftest import fd_param_grads, rel_err


def naive_forward(net, x):
    """Independent scalar-loop re-implementation of the forward pass."""
    a = [float(v) for v in x]
    last = len(net.weights) - 1
    for k, (W, b) in enumerate(zip(net.weights, net.biases)):
        out = []
        for i in range(W.shape[0]):
            s = float(b[i])
            for j in range(W.shape[1]):
                s += float(W[i, j]) * a[j]
            out.append(max(s, 0.0) if k < last else s)
        a = out
    return np.array(a)


def test_forward_identity_layer():
    net = Mlp([np.eye(2)], [np.zeros(2)])
    assert np.allclose(forward_batch(net, np.array([[0.3, -0.5]]))[0], [0.3, -0.5])


def test_forward_hand_evaluation():
    net = Mlp(
        [np.array([[1.0, -1.0]]), np.array([[2.0]])],
        [np.zeros(1), np.zeros(1)],
    )
    assert forward_batch(net, np.array([[1.0, 0.0]]))[0, 0] == pytest.approx(2.0)


def test_forward_matches_naive_oracle(rng):
    net = init_mlp([4, 16, 8, 3], rng)
    for _ in range(5):
        x = rng.uniform(-1, 1, 4)
        assert np.allclose(forward_batch(net, x[None])[0], naive_forward(net, x),
                           atol=1e-12)


def test_forward_dimension_mismatch():
    net = Mlp([np.eye(2)], [np.zeros(2)])
    with pytest.raises(ValueError):
        forward_batch(net, np.array([[1.0, 2.0, 3.0]]))


def test_weight_and_bias_counts_must_match():
    W1, W2 = np.ones((3, 2)), np.ones((1, 3))
    b1, b2 = np.zeros(3), np.zeros(1)
    assert Mlp([W1, W2], [b1, b2]).dims == [2, 3, 1]
    for biases in ([b1], [b1, b2, np.zeros(1)]):  # missing, surplus
        with pytest.raises(ValueError, match="bias"):
            Mlp([W1, W2], biases)


def test_backward_affine_cases():
    net = Mlp([np.array([[3.0]])], [np.zeros(1)])
    tape = forward_tape(net, np.array([[1.0]]))
    _, gx = backward(net, tape, np.ones((1, 1)))
    assert gx[0, 0] == pytest.approx(3.0)

    net = Mlp([np.array([[0.0, 0.0]])], [np.zeros(1)])
    tape = forward_tape(net, np.array([[1.0, 2.0]]))
    grads, _ = backward(net, tape, np.ones((1, 1)))
    assert np.allclose(grads[0], [[1.0, 2.0]])


def test_backward_matches_finite_differences(rng):
    net = init_mlp([3, 64, 32, 16, 1], rng)
    X = rng.uniform(-1, 1, (4, 3))

    def f():
        return float(forward_batch(net, X).sum())

    tape = forward_tape(net, X)
    grads, gX = backward(net, tape, np.ones((4, 1)))
    fd = fd_param_grads(f, net.params())
    assert rel_err(grads, fd) < 1e-4

    gX_fd = np.zeros_like(X)
    h = 1e-5
    for idx in np.ndindex(*X.shape):
        orig = X[idx]
        X[idx] = orig + h
        fp = f()
        X[idx] = orig - h
        fm = f()
        X[idx] = orig
        gX_fd[idx] = (fp - fm) / (2 * h)
    assert rel_err([gX], [gX_fd]) < 1e-4


def test_backward_requires_tape():
    net = Mlp([np.eye(2)], [np.zeros(2)])
    with pytest.raises(ValueError):
        backward(net, None, np.ones((1, 2)))


# 3, 2, 1 and 0 hidden layers: with none, the reverse pass is the last
# layer's row alone
@pytest.mark.parametrize("dims", [[2, 64, 32, 16, 1], [3, 16, 8, 4], [2, 1],
                                  [3, 16, 2], [3, 2]])
def test_input_grad_is_bit_identical_to_backward(dims):
    # deeper and wider nets than the property below draws, on 257 rows
    rng = np.random.default_rng(sum(dims))
    net = init_mlp(dims, rng)
    X = rng.uniform(-1, 1, (257, dims[0]))
    tape = forward_tape(net, X)
    Y, J = input_jacobian(net, X)
    assert Y.tobytes() == tape.output.tobytes()
    for j in range(net.n_out):
        gY = np.zeros((X.shape[0], net.n_out))
        gY[:, j] = 1.0
        assert J[:, j, :].tobytes() == backward(net, tape, gY)[1].tobytes()
    if net.n_out == 1:
        v, g = value_and_input_grad(net, X)
        assert np.array_equal(v, tape.output[:, 0])
        for gY in (np.ones((257, 1)), np.ones(257)):  # 2-D and 1-D upstream
            assert np.array_equal(g, backward(net, tape, gY)[1])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.lists(st.integers(1, 24), min_size=0, max_size=3),
       st.integers(1, 3), st.integers(1, 64), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_value_and_input_grad_is_bit_identical_to_tape_and_input_grad(
        n_in, hidden, n_out, rows, integer, seed):
    # 0 to 3 hidden layers, so the purely affine net is drawn too; small
    # integer weights and inputs put pre-activations at exactly 0
    rng = np.random.default_rng(seed)
    dims = [n_in, *hidden, n_out]
    if integer:
        net = Mlp([rng.integers(-2, 3, (m, n)).astype(float) for n, m in zip(dims, dims[1:])],
                  [rng.integers(-2, 3, m).astype(float) for m in dims[1:]])
        X = rng.integers(-2, 3, (rows, n_in)).astype(float)
    else:
        net = init_mlp(dims, rng)
        X = rng.uniform(-1, 1, (rows, n_in))
    tape = forward_tape(net, X)
    Y, J = input_jacobian(net, X)
    assert Y.tobytes() == tape.output.tobytes()
    assert J.shape == (rows, n_out, n_in)
    for j in range(n_out):
        e_j = np.zeros((rows, n_out))
        e_j[:, j] = 1.0
        assert J[:, j, :].tobytes() == backward(net, tape, e_j)[1].tobytes()
    if n_out == 1:
        v, g = value_and_input_grad(net, X)
        assert v.tobytes() == tape.output[:, 0].tobytes()
        assert g.tobytes() == J[:, 0].tobytes()


def test_value_and_input_grad_rejects_a_multi_output_net(rng):
    X = rng.uniform(-1, 1, (5, 2))
    v, g = value_and_input_grad(init_mlp([2, 8, 1], rng), X)
    assert v.shape == (5,) and g.shape == (5, 2)
    with pytest.raises(ValueError, match="3 outputs"):
        value_and_input_grad(init_mlp([2, 8, 3], rng), X)


def test_piecewise_affine_within_activation_pattern(rng):
    net = init_mlp([2, 16, 8, 1], rng)
    x = rng.uniform(-1, 1, 2)
    y = x + rng.uniform(-1e-4, 1e-4, 2)  # nearby points share the pattern

    def pattern(z):
        pats = []
        a = z[None, :]
        tape = forward_tape(net, a)
        return [p > 0 for p in tape.preacts[:-1]]

    if all(np.array_equal(p, q) for p, q in zip(pattern(x), pattern(y))):
        lam = 0.37
        mid = lam * x + (1 - lam) * y
        f = lambda z: forward_batch(net, z[None])[0, 0]
        assert f(mid) == pytest.approx(lam * f(x) + (1 - lam) * f(y), abs=1e-10)


def test_spectral_norm_basics():
    assert spectral_norm_vectors(np.eye(3))[0] == pytest.approx(1.0)
    assert spectral_norm_vectors(np.diag([3.0, 1.0]))[0] == pytest.approx(3.0)
    with pytest.raises(ValueError):
        spectral_norm_vectors(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        spectral_norm_vectors(np.eye(2), iters=0)


def test_spectral_norm_matches_eigendecomposition(rng):
    # convergence rate depends on the top singular-value gap, so give the
    # random (possibly near-degenerate) cases plenty of iterations
    for _ in range(5):
        W = rng.normal(size=(20, 20))
        sigma_true = float(np.sqrt(np.linalg.eigvalsh(W.T @ W).max()))
        sigma = spectral_norm_vectors(W, iters=5000)[0]
        assert sigma == pytest.approx(sigma_true, abs=1e-5)


def test_spectral_norm_well_separated_converges_fast():
    rng = np.random.default_rng(3)
    U, _ = np.linalg.qr(rng.normal(size=(10, 10)))
    V, _ = np.linalg.qr(rng.normal(size=(10, 10)))
    W = U @ np.diag([5.0, 2.0, 1.0, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.01]) @ V.T
    assert spectral_norm_vectors(W, iters=50)[0] == pytest.approx(5.0, abs=1e-6)


def test_spectral_norm_monotone_and_bounded(rng):
    W = rng.normal(size=(12, 9))
    sigma_true = float(np.linalg.svd(W, compute_uv=False)[0])
    prev = 0.0
    for iters in (1, 2, 5, 10, 30, 60):
        s = spectral_norm_vectors(W, iters=iters)[0]
        assert s >= prev - 1e-12
        assert s <= sigma_true + 1e-12
        prev = s


def test_spectral_norm_scaling(rng):
    W = rng.normal(size=(7, 5))
    s = spectral_norm_vectors(W, iters=60)[0]
    s_scaled = spectral_norm_vectors(-2.5 * W, iters=60)[0]
    assert s_scaled == pytest.approx(2.5 * s, abs=1e-8)


def test_spectral_norm_gradient_direction(rng):
    W = rng.normal(size=(6, 4))
    sigma, u, v = spectral_norm_vectors(W, iters=100)
    h = 1e-6
    G = np.outer(u, v)
    W2 = W + h * G
    sigma2 = spectral_norm_vectors(W2, iters=100)[0]
    assert sigma2 - sigma == pytest.approx(h, rel=1e-3)


def test_lipschitz_upper_bound_product():
    net = Mlp([2 * np.eye(2), 3 * np.eye(2)], [np.zeros(2), np.zeros(2)])
    assert spectral_product_grads(net)[0] == pytest.approx(6.0)
    net = Mlp([np.diag([3.0, 1.0])], [np.zeros(2)])
    assert spectral_product_grads(net)[0] == pytest.approx(3.0)


def test_spectral_product_grads_follow_the_params_layout(rng):
    net = init_mlp([3, 5, 4, 1], rng)
    prod, grads, vs = spectral_product_grads(net, iters=100)
    assert [g.shape for g in grads] == [p.shape for p in net.params()]
    assert all(not g.any() for g in grads[1::2])  # biases do not enter
    for W, G, v in zip(net.weights, grads[0::2], vs):
        sigma, u, v_k = spectral_norm_vectors(W, iters=100)
        assert np.allclose(G, prod / sigma * np.outer(u, v_k))
        assert np.array_equal(v, v_k)
    # warm start from the returned vectors: one more iteration, same product
    assert spectral_product_grads(net, 1, vs)[0] == pytest.approx(prod, rel=1e-9)


def test_lipschitz_bound_dominates_sampled_quotients(rng):
    net = init_mlp([3, 24, 12, 2], rng)
    bound = spectral_product_grads(net)[0]
    X = rng.uniform(-2, 2, (100_000, 3))
    Y = rng.uniform(-2, 2, (100_000, 3))
    num = np.linalg.norm(forward_batch(net, X) - forward_batch(net, Y), axis=1)
    den = np.linalg.norm(X - Y, axis=1)
    keep = den > 1e-12
    assert np.all(num[keep] <= bound * den[keep] + 1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       st.lists(st.floats(0.0, 0.5), min_size=3, max_size=3),
       st.integers(0, 2**32 - 1))
def test_ibp_bounds_sound_by_sampling(net_seed, center, radius, seed):
    # the interval bounds hold every output over each box of a batch that
    # spans three tiles: over the drawn box, alone in the last tile, at its
    # corners and uniform points in it, and over each random sub-box of it
    # before, at a uniform point in the sub-box
    net = init_mlp([3, 16, 8, 2], np.random.default_rng(net_seed))
    rng = np.random.default_rng(seed)
    center, radius = np.array(center), np.array(radius)
    lo, hi = center - radius, center + radius
    ends = np.sort(rng.uniform(0.0, 1.0, (2, 2 * _ibp_tile_rows(net), 3)), axis=0)
    sub_lo, sub_hi = lo + (hi - lo) * ends[0], lo + (hi - lo) * ends[1]
    out_lo, out_hi = ibp_bounds(net, np.vstack([sub_lo, lo]), np.vstack([sub_hi, hi]))
    corners = np.array(np.meshgrid(*zip(lo, hi))).reshape(3, -1).T
    pts = np.concatenate([corners, rng.uniform(lo, hi, (500, 3))])
    Y = forward_batch(net, pts)
    assert np.all(Y >= out_lo[-1] - 1e-12) and np.all(Y <= out_hi[-1] + 1e-12)
    Y = forward_batch(net, rng.uniform(sub_lo, sub_hi))
    assert np.all(Y >= out_lo[:-1] - 1e-12) and np.all(Y <= out_hi[:-1] + 1e-12)


def reference_ibp(net, lo, hi):
    """Interval propagation as first written, a fresh array at every step."""
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    last = len(net.weights) - 1
    for k, (W, b) in enumerate(zip(net.weights, net.biases)):
        mid = mid @ W.T + b
        rad = rad @ np.abs(W).T
        if k != last:
            z_lo = np.maximum(mid - rad, 0.0)
            z_hi = np.maximum(mid + rad, 0.0)
            mid, rad = 0.5 * (z_lo + z_hi), 0.5 * (z_hi - z_lo)
    return mid - rad, mid + rad


def test_ibp_bounds_in_place_matches_reference_bit_for_bit(rng):
    # one tile of 37 rows, three tiles and part of a fourth, on which the
    # reference runs one tile at a time, and no rows. A tile holds 256 KiB
    # over 8 bytes times the widest layer
    for dims, tile in (([2, 64, 32, 16, 1], 512), ([2, 128, 128, 1], 256),
                       ([4, 8, 3], 4096), ([3, 1], 10922)):
        net = init_mlp(dims, rng)
        assert _ibp_tile_rows(net) == tile
        for rows in (37, 3 * tile + 37, 0):
            lo = rng.normal(size=(rows, dims[0]))
            hi = lo + rng.uniform(0.0, 1.0, lo.shape)
            lo0, hi0 = lo.copy(), hi.copy()
            want = [np.concatenate(b) for b in zip(*(
                reference_ibp(net, lo[s:s + tile], hi[s:s + tile])
                for s in range(0, max(rows, 1), tile)))]
            got = ibp_bounds(net, lo, hi)
            for g, w in zip(got, want):
                assert g.shape == (rows, dims[-1])
                assert g.tobytes() == w.tobytes()
            # against one pass over all rows, tiles change only the rounding
            for g, w in zip(got, reference_ibp(net, lo, hi)):
                np.testing.assert_allclose(g, w, rtol=1e-13, atol=1e-13)
            assert np.array_equal(lo, lo0) and np.array_equal(hi, hi0)


def test_ibp_degenerate_box_is_point_evaluation(rng):
    net = init_mlp([2, 8, 1], rng)
    x = rng.uniform(-1, 1, 2)
    lo, hi = ibp_bounds(net, x[None], x[None])
    y = forward_batch(net, x[None])
    assert np.allclose(lo, y) and np.allclose(hi, y)


def test_adam_reduces_simple_quadratic():
    p = [np.array([5.0])]
    opt = Adam(lr=0.1)
    for _ in range(200):
        opt.step(p, [2.0 * p[0]])
    assert abs(p[0][0]) < 1e-2


def test_init_mlp_deterministic_and_finite():
    a = init_mlp([2, 8, 1], np.random.default_rng(7))
    b = init_mlp([2, 8, 1], np.random.default_rng(7))
    assert all(np.array_equal(x, y) for x, y in zip(a.params(), b.params()))
    assert a.all_finite()
