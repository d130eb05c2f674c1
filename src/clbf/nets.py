"""Minimal dense ReLU network engine.

Forward evaluation, exact reverse-mode gradients (parameters and inputs,
from a Tape, for training), a tapeless input Jacobian that keeps only the
ReLU masks (with its scalar view for PGD), interval bound propagation in
cache-sized row tiles, the spectral-norm product with its l-inf Lipschitz
bound, and a first-order adaptive-moment optimizer. Batches are (k, n)
numpy arrays. A net computes in the dtype of its weights: float64 for
training, proofs and witnesses, and float32 for the copies that the
verifier's counterexample hunt searches with (Mlp.astype); inputs are cast
to it. No general computation graphs: the architecture is a fixed
affine/ReLU chain, so backprop is hand-chained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Mlp:
    """Feedforward net: ReLU after every layer except the last (affine)."""

    weights: list[np.ndarray]  # W_k with shape (n_out, n_in)
    biases: list[np.ndarray]   # b_k with shape (n_out,)

    def __post_init__(self):
        if not self.weights:
            raise ValueError("empty network")
        if len(self.biases) != len(self.weights):
            raise ValueError(f"{len(self.weights)} weight matrices but "
                             f"{len(self.biases)} bias vectors")
        for k in range(len(self.weights) - 1):
            if self.weights[k + 1].shape[1] != self.weights[k].shape[0]:
                raise ValueError(
                    f"layer {k} outputs {self.weights[k].shape[0]} units but "
                    f"layer {k + 1} expects {self.weights[k + 1].shape[1]}"
                )
        for W, b in zip(self.weights, self.biases):
            if b.shape != (W.shape[0],):
                raise ValueError("bias shape does not match weight rows")

    @property
    def n_in(self) -> int:
        return self.weights[0].shape[1]

    @property
    def n_out(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def dims(self) -> list[int]:
        return [self.n_in] + [W.shape[0] for W in self.weights]

    def params(self) -> list[np.ndarray]:
        out = []
        for W, b in zip(self.weights, self.biases):
            out.append(W)
            out.append(b)
        return out

    @property
    def dtype(self) -> np.dtype:
        """The dtype the net computes in: that of its weights, or float64
        for integer weights."""
        dtype = self.weights[0].dtype
        return dtype if dtype.kind == "f" else np.dtype(float)

    def copy(self) -> "Mlp":
        return Mlp([W.copy() for W in self.weights], [b.copy() for b in self.biases])

    def astype(self, dtype) -> "Mlp":
        """A copy with every weight and bias cast to dtype."""
        return Mlp([W.astype(dtype) for W in self.weights],
                   [b.astype(dtype) for b in self.biases])

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(p)) for p in self.params())


def init_mlp(dims: list[int], rng: np.random.Generator) -> Mlp:
    """Uniform +-sqrt(6/(n_in+n_out)) init per layer (seeded)."""
    weights, biases = [], []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-bound, bound, size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    return Mlp(weights, biases)


def zero_grads(net: Mlp) -> list[np.ndarray]:
    return [np.zeros_like(p) for p in net.params()]


def accumulate(grads: list[np.ndarray], incr: list[np.ndarray], scale: float = 1.0):
    for g, d in zip(grads, incr):
        g += scale * d


# ---------------------------------------------------------------------------
# forward / backward


def _batch(net: Mlp, X: np.ndarray) -> np.ndarray:
    """X as a (k, n_in) batch in net's dtype; anything else is rejected."""
    X = np.asarray(X, dtype=net.dtype)
    if X.ndim != 2 or X.shape[1] != net.n_in:
        raise ValueError(f"expected batch of dim {net.n_in}, got shape {X.shape}")
    return X


def forward_batch(net: Mlp, X: np.ndarray) -> np.ndarray:
    a = _batch(net, X)
    last = len(net.weights) - 1
    for k, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ W.T + b
        a = z if k == last else np.maximum(z, 0.0)
    return a


def scalar_value(net: Mlp, X: np.ndarray) -> np.ndarray:
    """Batched evaluation of a scalar-output net; returns shape (k,)."""
    return forward_batch(net, X)[:, 0]


@dataclass
class Tape:
    """Recorded primal values of one forward pass, for reverse mode."""

    inputs: list[np.ndarray]      # a_{k-1}: input to layer k
    preacts: list[np.ndarray]     # z_k: pre-activation of layer k
    output: np.ndarray


def forward_tape(net: Mlp, X: np.ndarray) -> Tape:
    inputs, preacts = [], []
    a = _batch(net, X)
    last = len(net.weights) - 1
    for k, (W, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(a)
        z = a @ W.T + b
        preacts.append(z)
        a = z if k == last else np.maximum(z, 0.0)
    return Tape(inputs, preacts, a)


def backward(net: Mlp, tape: Tape, gY: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Reverse pass from upstream gradient gY (k, n_out).

    Returns (parameter gradients in net.params() order, input gradient (k, n_in)).
    ReLU subgradient at 0 is taken as 0. Parameter gradients are summed over
    the batch; the input gradient is per-row.
    """
    if tape is None:
        raise ValueError("no recorded forward pass")
    g = np.asarray(gY, dtype=net.dtype)
    g = g[:, None] if g.ndim == 1 else g
    grads: list[np.ndarray] = [None] * (2 * len(net.weights))
    last = len(net.weights) - 1
    for k in range(last, -1, -1):
        if k != last:
            g = g * (tape.preacts[k] > 0.0)
        grads[2 * k] = g.T @ tape.inputs[k]
        grads[2 * k + 1] = g.sum(axis=0)
        g = g @ net.weights[k]
    return grads, g


def input_jacobian(net: Mlp, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outputs (k, n_out) and input Jacobian dy/dx (k, n_out, n_in) at X.

    One forward pass that keeps only the boolean ReLU masks, not a Tape of
    float inputs and pre-activations, then one reverse pass per output. It
    runs the same ops in the same order as forward_tape and, per output j,
    backward from the unit upstream gradient e_j, so the outputs and each
    J[:, j, :] are bit-identical to theirs. The reverse pass from e_j
    starts from e_j W, row j of the last layer's weights, with no product;
    the elementwise ops run in place, on arrays that each product makes
    fresh.
    """
    X = _batch(net, X)
    masks = []
    a = X
    last = len(net.weights) - 1
    for k, (W, b) in enumerate(zip(net.weights, net.biases)):
        a = a @ W.T
        a += b
        if k != last:
            masks.append(a > 0.0)
            np.maximum(a, 0.0, out=a)
    J = np.empty((X.shape[0], net.n_out, net.n_in), dtype=net.dtype)
    for j in range(net.n_out):
        g = net.weights[last][j]  # e_j W, the same row for every state
        for k in range(last - 1, -1, -1):
            # in place once g is a (rows, width) product of its own
            g = np.multiply(g, masks[k], out=g if g.ndim == 2 else None)
            g = g @ net.weights[k]
        J[:, j, :] = g
    return a, J


def value_and_input_grad(net: Mlp, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scalar-output view of input_jacobian: values (k,) and dV/dx (k, n_in)."""
    if net.n_out != 1:
        raise ValueError(f"expected a scalar-output net, got {net.n_out} outputs")
    v, J = input_jacobian(net, X)
    return v[:, 0], J[:, 0]


# ---------------------------------------------------------------------------
# interval bound propagation


def ibp_bounds(net: Mlp, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sound output bounds (k, n_out) over the input boxes given as (k, n)
    lower and upper corners.

    The pass carries each layer's bounds as their sum hi + lo and difference
    hi - lo, twice the midpoint and radius of interval arithmetic, and every
    layer's W.T and |W|.T carry the factor 0.5 instead. Halving is exact, so
    the bounds are bit for bit those of the midpoint-radius pass, except
    where a halved weight or a product is subnormal. The ReLU image is
    formed in place on the arrays that each product makes fresh.

    The rows go through in tiles of _TILE_BYTES // (itemsize * max(net.dims))
    rows (_ibp_tile_rows), so that the widest (rows, width) array of a tile,
    and the few temporaries like it, stay in cache: 256 rows for a float64
    net 128 units wide. Each row's bounds are its tile's, which BLAS may
    round differently from those of a pass over all rows at once.
    """
    lo = np.asarray(lo, dtype=net.dtype)
    hi = np.asarray(hi, dtype=net.dtype)
    tile = _ibp_tile_rows(net)
    layers = [(0.5 * W.T, 0.5 * np.abs(W).T, b) for W, b in zip(net.weights, net.biases)]
    last = len(layers) - 1
    out_lo, out_hi = np.empty((2, lo.shape[0], net.n_out), dtype=net.dtype)
    for s in range(0, lo.shape[0], tile):
        t_lo, t_hi = lo[s:s + tile], hi[s:s + tile]
        total, diff = t_hi + t_lo, t_hi - t_lo
        for k, (half_W_T, half_abs_W_T, b) in enumerate(layers):
            mid = total @ half_W_T
            mid += b
            rad = diff @ half_abs_W_T
            if k != last:
                # the ReLU image [max(mid - rad, 0), max(mid + rad, 0)] as
                # its sum and difference
                z_lo = np.subtract(mid, rad)
                np.maximum(z_lo, 0.0, out=z_lo)
                mid += rad
                total = np.maximum(mid, 0.0, out=mid)
                diff = np.subtract(total, z_lo, out=rad)
                total += z_lo
        np.subtract(mid, rad, out=out_lo[s:s + tile])
        np.add(mid, rad, out=out_hi[s:s + tile])
    return out_lo, out_hi


# a tile's widest float array; with its few temporaries the tile stays in L2
_TILE_BYTES = 256 << 10


def _ibp_tile_rows(net: Mlp) -> int:
    """Rows per tile of ibp_bounds for net."""
    return max(1, _TILE_BYTES // (net.dtype.itemsize * max(net.dims)))


# ---------------------------------------------------------------------------
# spectral norms and the Lipschitz bound


def spectral_norm_vectors(
    W: np.ndarray, iters: int = 50, v0: np.ndarray | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Power-iteration estimate of the top singular triple (sigma, u, v).

    The Rayleigh estimate sigma = |W v| for unit v is monotonically
    non-decreasing in the iteration count and never exceeds sigma_max.
    """
    W = np.asarray(W, dtype=float)
    if W.size == 0:
        raise ValueError("empty matrix")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    n = W.shape[1]
    v = np.full(n, 1.0 / np.sqrt(n)) if v0 is None else v0 / np.linalg.norm(v0)
    basis = 0
    for _ in range(iters):
        w = W.T @ (W @ v)
        nw = np.linalg.norm(w)
        if nw < 1e-30:
            # v fell in (or near) the null space; restart from a basis vector
            v = np.zeros(n)
            v[basis % n] = 1.0
            basis += 1
            continue
        v = w / nw
    u = W @ v
    sigma = np.linalg.norm(u)
    if sigma > 0:
        u = u / sigma
    return float(sigma), u, v


def spectral_product_grads(
    net: Mlp, iters: int = 50, vs: list[np.ndarray] | None = None
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Product of the layer spectral norms, its gradients and warm-start vectors.

    The true product bounds the net's l2 Lipschitz constant; this is its
    power-iteration estimate, which approaches it from below. It is a
    training term only: the verifier never relies on it. d(product)/dW_k is
    taken through the frozen singular vectors u_k v_k^T. Passing previous
    right singular vectors in vs warm-starts power iteration (a few
    iterations then suffice per training step). Returns the product, its
    gradients in net.params() layout (zero for the biases), and the updated
    vectors.
    """
    vs = vs if vs is not None else [None] * len(net.weights)
    triples = [spectral_norm_vectors(W, iters, v0) for W, v0 in zip(net.weights, vs)]
    prod = float(np.prod([sigma for sigma, _, _ in triples]))
    grads = []
    for (sigma, u, v), b in zip(triples, net.biases):
        rest = prod / sigma if sigma > 0 else 0.0
        grads += [rest * np.outer(u, v), np.zeros_like(b)]
    return prod, grads, [v for _, _, v in triples]


def linf_lipschitz_bound(
    net: Mlp, iters: int = 50, vs: list[np.ndarray] | None = None
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """sqrt(n_in) times the spectral product: the l-inf Lipschitz bound of a
    scalar-output net, with its gradients and warm-start vectors as in
    spectral_product_grads (and, like it, a power-iteration estimate from
    below).

    With one output, |f(x) - f(y)| <= L_2 ||x - y||_2 <= L_2 sqrt(n_in)
    ||x - y||_inf. Several outputs are rejected: the general-output factor
    sqrt(n_in / n_out) undershoots (W = [[1], [0]] has l-inf quotient 1,
    above sqrt(1/2) times its product of 1).
    """
    if net.n_out != 1:
        raise ValueError(f"the l-inf bound needs a scalar-output net, "
                         f"got {net.n_out} outputs")
    prod, grads, new_vs = spectral_product_grads(net, iters, vs)
    K = float(np.sqrt(net.n_in))
    return K * prod, [K * g for g in grads], new_vs


# ---------------------------------------------------------------------------
# optimizer


# Adam's moment decays and denominator floor, which no caller varies
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class Adam:
    """Adaptive-moment gradient descent over a flat list of arrays."""

    lr: float = 1e-3
    t: int = field(default=0, init=False)
    m: list[np.ndarray] = field(default_factory=list, init=False)
    v: list[np.ndarray] = field(default_factory=list, init=False)

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]):
        if not self.m:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        b1t = 1.0 - BETA1 ** self.t
        b2t = 1.0 - BETA2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + EPS)
