"""Numerical substrate: seeded RNG streams, dense MLP layers with hand-derived
gradients, and the Adam optimizer.

Everything is float64. The MLP architecture is fixed enough (dense layers,
optional batchnorm, relu/tanh/none activations) that the backward pass is
written by hand instead of going through an autodiff tape.

Trainable arrays live flat: init_mlp lays a net's arrays out as
consecutive views of one vector (mlp_shapes gives the layout), mlp_backward
writes the parameter gradients into views of a vector of the same layout,
and adam_step updates the whole vector at once.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError, ShapeError

ACTIVATIONS = ("relu", "tanh", "none")


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------

def derive_seed(root_seed: int, *names) -> int:
    """Derive a 64-bit stream seed from a root seed and a label path.

    Uses SHA-256 over the decimal seed and the labels, so the mapping is
    identical on every platform. Used to hand each consumer (init, shuffle,
    kmeans, data generation, ...) its own independent stream.
    """
    h = hashlib.sha256()
    h.update(str(int(root_seed)).encode("ascii"))
    for name in names:
        h.update(b"/")
        h.update(str(name).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")


def make_rng(seed: int, *names) -> np.random.Generator:
    """PCG64 generator for (seed, *names); same arguments, same stream."""
    if names:
        seed = derive_seed(seed, *names)
    return np.random.Generator(np.random.PCG64(int(seed)))


# ---------------------------------------------------------------------------
# Small numerics helpers
# ---------------------------------------------------------------------------

def softplus(x):
    """log(1 + e^x), stable for large |x|."""
    return np.logaddexp(0.0, x)


def softplus_inv(y: float) -> float:
    """Inverse of softplus for y > 0."""
    if y <= 0:
        raise ConfigError("softplus_inv requires y > 0")
    return float(y + np.log(-np.expm1(-y)))


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; rows sum to 1."""
    z = np.asarray(z, dtype=float)
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=1, keepdims=True)


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Scale each row to unit L2 norm; all-zero rows are left untouched.
    A finite non-zero row whose squared norm overflows or falls below the
    smallest normal float is divided by its largest absolute entry first."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=1, keepdims=True)
    # 2**-511 is the square root of the smallest normal float64
    rescale = (((norms[:, 0] < 2.0 ** -511) & (x != 0.0).any(axis=1))
               | np.isinf(norms[:, 0])) & np.isfinite(x).all(axis=1)
    if rescale.any():
        x = x / np.where(rescale[:, None], np.abs(x).max(axis=1, keepdims=True), 1.0)
        norms[rescale] = np.linalg.norm(x[rescale], axis=1, keepdims=True)
    safe = np.where(norms > 0.0, norms, 1.0)
    return x / safe


def require_finite(name: str, *arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise NumericsError(f"{name}: non-finite values encountered")


# ---------------------------------------------------------------------------
# Dense MLP with optional batchnorm
# ---------------------------------------------------------------------------

# the variance offset of every batchnorm layer
BN_EPS = 1e-5


@dataclass
class BatchNorm:
    """Per-feature batch normalization: every forward pass normalizes with
    the batch's own mean and variance (divided by the batch size, not n-1)
    plus BN_EPS, then applies scale and shift. No running statistics are
    kept."""

    scale: np.ndarray
    shift: np.ndarray


@dataclass
class DenseLayer:
    w: np.ndarray  # (d_in, d_out)
    b: np.ndarray  # (d_out,)
    activation: str = "none"
    batchnorm: BatchNorm | None = None


@dataclass
class MlpParams:
    layers: list[DenseLayer]

    @property
    def in_dim(self) -> int:
        return self.layers[0].w.shape[0]


def mlp_shapes(dims, batchnorm) -> list[tuple]:
    """Shapes of the trainable arrays of init_mlp(dims, ..., batchnorm), in
    mlp_param_arrays order; plain integer arithmetic, nothing is allocated."""
    if isinstance(batchnorm, bool):
        batchnorm = [batchnorm] * (len(dims) - 1)
    shapes = []
    for d_in, d_out, bn in zip(dims[:-1], dims[1:], batchnorm):
        shapes += [(d_in, d_out), (d_out,)] + [(d_out,)] * (2 if bn else 0)
    return shapes


def flat_size(shapes) -> int:
    """Number of values in arrays of the given shapes."""
    return sum(math.prod(shape) for shape in shapes)


def flat_vector(out: np.ndarray | None, size: int) -> np.ndarray:
    """out, checked to be a vector of size values, or a new zero vector."""
    if out is None:
        return np.zeros(size)
    if out.shape != (size,):
        raise ShapeError(f"need a vector of {size} values, got shape {out.shape}")
    return out


def flat_views(vec: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive views of the contiguous vector vec, one per shape."""
    views, start = [], 0
    for shape in shapes:
        end = start + math.prod(shape)
        views.append(vec[start:end].reshape(shape))
        start = end
    return views


def init_mlp(dims, activations, batchnorm, rng: np.random.Generator,
             out: np.ndarray | None = None) -> MlpParams:
    """Build an MLP with uniform(-a, a) weights, a = sqrt(6/(fan_in+fan_out)).

    dims is [d_in, h1, ..., d_out]; activations has one entry per weight
    layer; batchnorm is a bool (all layers) or a per-layer list. The
    trainable arrays are views of out, a flat vector of
    flat_size(mlp_shapes(dims, batchnorm)) values, or of a new one.
    """
    n_layers = len(dims) - 1
    if len(activations) != n_layers:
        raise ShapeError(f"need {n_layers} activations, got {len(activations)}")
    if isinstance(batchnorm, bool):
        batchnorm = [batchnorm] * n_layers
    shapes = mlp_shapes(dims, batchnorm)
    views = iter(flat_views(flat_vector(out, flat_size(shapes)), shapes))
    layers = []
    for i in range(n_layers):
        d_in, d_out = dims[i], dims[i + 1]
        if activations[i] not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {activations[i]!r}")
        a = np.sqrt(6.0 / (d_in + d_out))
        w, b = next(views), next(views)
        w[...] = rng.uniform(-a, a, size=(d_in, d_out))
        b[...] = 0.0
        bn = None
        if batchnorm[i]:
            scale, shift = next(views), next(views)
            scale[...] = 1.0
            shift[...] = 0.0
            bn = BatchNorm(scale=scale, shift=shift)
        layers.append(DenseLayer(w=w, b=b, activation=activations[i], batchnorm=bn))
    return MlpParams(layers=layers)


def mlp_param_arrays(params: MlpParams) -> list[np.ndarray]:
    """Trainable arrays in a fixed order: per layer w, b, then scale, shift."""
    out = []
    for lay in params.layers:
        out.append(lay.w)
        out.append(lay.b)
        if lay.batchnorm is not None:
            out.append(lay.batchnorm.scale)
            out.append(lay.batchnorm.shift)
    return out


def mlp_forward(params: MlpParams, x: np.ndarray):
    """Run the MLP; returns (output, cache) where cache feeds mlp_backward.

    Batchnorm layers normalize with the batch's statistics. Nothing is
    mutated, so the output is a function of the parameters and x alone.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"input must be 2-d (batch, features), got shape {x.shape}")
    layer_caches = []
    h = x
    for idx, lay in enumerate(params.layers):
        if h.shape[1] != lay.w.shape[0]:
            raise ShapeError(
                f"layer {idx}: input width {h.shape[1]} != expected {lay.w.shape[0]}")
        z = h @ lay.w + lay.b
        bn_cache = None
        if lay.batchnorm is not None:
            bn = lay.batchnorm
            inv_std = 1.0 / np.sqrt(z.var(axis=0) + BN_EPS)  # divide by batch size
            xhat = (z - z.mean(axis=0)) * inv_std
            bn_cache = (xhat, inv_std)
            pre = bn.scale * xhat + bn.shift
        else:
            pre = z
        if lay.activation == "relu":
            out = np.maximum(pre, 0.0)
        elif lay.activation == "tanh":
            out = np.tanh(pre)
        else:
            out = pre
        layer_caches.append({"x": h, "pre": pre, "out": out, "bn": bn_cache})
        h = out
    require_finite("mlp_forward", h)
    return h, {"layers": tuple(layer_caches),
               "shapes": tuple(lay.w.shape for lay in params.layers)}


def mlp_backward(params: MlpParams, cache, grad_output: np.ndarray,
                 out: np.ndarray | None = None, add: bool = False,
                 param_grads: bool = True):
    """Backpropagate grad_output; returns (parameter gradients, gradient
    wrt the input).

    The parameter gradients are views, in mlp_param_arrays order, of out (a
    flat vector laid out like the net's trainable arrays, such as a slice
    of an optimizer's gradient vector) or of a new vector. They overwrite
    what out holds, or with add=True are added to it. param_grads=False
    computes only the input gradient and returns no parameter gradients
    (an empty list).

    The cache must come from a forward pass through the same network; a
    backward pass can be replayed any number of times with different
    output gradients (the cache is never consumed).
    """
    if cache.get("shapes") != tuple(lay.w.shape for lay in params.layers):
        raise ShapeError("cache does not match this network (stale cache?)")
    layer_caches = cache["layers"]
    grad = np.asarray(grad_output, dtype=float)
    if grad.shape != layer_caches[-1]["out"].shape:
        raise ShapeError(
            f"grad_output shape {grad.shape} != forward output "
            f"{layer_caches[-1]['out'].shape}")
    shapes = [a.shape for a in mlp_param_arrays(params)]
    views = flat_views(flat_vector(out, flat_size(shapes)), shapes) if param_grads else []
    slots = reversed(views)  # filled last layer first
    for idx in range(len(params.layers) - 1, -1, -1):
        lay = params.layers[idx]
        lc = layer_caches[idx]
        if lay.activation == "relu":
            grad = grad * (lc["pre"] > 0.0)
        elif lay.activation == "tanh":
            grad = grad * (1.0 - lc["out"] ** 2)
        if lay.batchnorm is not None:
            bn = lay.batchnorm
            xhat, inv_std = lc["bn"]
            if param_grads:
                g_shift, g_scale = next(slots), next(slots)
                _into(g_scale, add, np.add.reduce, grad * xhat, axis=0)
                _into(g_shift, add, np.add.reduce, grad, axis=0)
            dxhat = grad * bn.scale
            n = grad.shape[0]
            grad = (inv_std / n) * (
                n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
        if param_grads:
            g_b, g_w = next(slots), next(slots)
            _into(g_w, add, np.matmul, lc["x"].T, grad)
            _into(g_b, add, np.add.reduce, grad, axis=0)
        grad = grad @ lay.w.T
    return views, grad


def _into(dst: np.ndarray, add: bool, fn, *args, **kwargs) -> None:
    """dst = fn(*args), computed straight into dst, or dst += fn(*args)."""
    if add:
        dst += fn(*args, **kwargs)
    else:
        fn(*args, out=dst, **kwargs)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

# the standard moment decay rates and denominator offset, used by every run
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam over one flat parameter vector.

    params is the vector the update moves (the nets hold views into it),
    grads a vector of the same layout that the caller fills before each
    step, m and v the moments, and scratch two more rows of that length for
    the update's intermediates, so a step allocates nothing of that size.
    """

    lr: float
    params: np.ndarray
    grads: np.ndarray
    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    t: int = 0


def adam_init(params: np.ndarray, lr: float) -> AdamState:
    """Adam state for the flat float64 vector params (kept, not copied)."""
    if lr <= 0:
        raise ConfigError("lr must be positive")
    if params.ndim != 1 or params.dtype != np.float64 or not params.flags.c_contiguous:
        raise ShapeError("adam_init: params must be a contiguous float64 vector")
    n = params.size
    return AdamState(lr=lr, params=params, grads=np.zeros(n), m=np.zeros(n),
                     v=np.zeros(n), scratch=np.zeros((2, n)))


def adam_step(state: AdamState, params, grads):
    """One fused Adam update of the whole vector, in place; returns
    (params, state).

    params and grads are sequences holding one flat vector each, of the
    state's length; the trainer passes (state.params,) and (state.grads,).
    Standard bias-corrected recurrence: m and v are exponential averages of
    the gradient and its square, and the step is lr * mhat / (sqrt(vhat)+eps).
    Every intermediate goes through the scratch rows; overflow is left to
    the one finite check, which raises NumericsError.
    """
    if len(params) != 1 or len(grads) != 1:
        raise ShapeError("adam_step: pass one parameter vector and one gradient vector")
    (p,), (g,) = params, grads
    if p.shape != state.m.shape or g.shape != state.m.shape:
        raise ShapeError(f"adam_step: shapes {p.shape} and {g.shape} do not match "
                         f"the state's {state.m.shape}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    m, v, (w1, w2) = state.m, state.v, state.scratch
    # the rounding of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    # p -= lr (m / c1) / (sqrt(v / c2) + eps), each step written through out=
    with np.errstate(over="ignore", invalid="ignore"):
        m *= b1
        np.multiply(g, 1.0 - b1, out=w1)
        m += w1
        v *= b2
        np.multiply(g, 1.0 - b2, out=w1)
        w1 *= g
        v += w1
        np.divide(m, c1, out=w1)
        w1 *= state.lr
        np.divide(v, c2, out=w2)
        np.sqrt(w2, out=w2)
        w2 += ADAM_EPS
        w1 /= w2
        p -= w1
    if not np.isfinite(p).all():
        raise NumericsError("adam_step produced non-finite parameters")
    return params, state
