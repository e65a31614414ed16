"""Numerical substrate: seeded RNG streams, dense MLP layers with hand-derived
gradients, the Adam optimizer, and a finite-difference gradient checker.

Everything is float64. The MLP architecture is fixed enough (dense layers,
optional batchnorm, relu/tanh/none activations) that the backward pass is
written by hand instead of going through an autodiff tape.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError, ShapeError

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
        raise ValueError("softplus_inv requires y > 0")
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

@dataclass
class BatchNorm:
    """Per-feature batch normalization state.

    Train mode normalizes with batch statistics (variance divided by the
    batch size, not n-1) and folds them into the running averages with the
    given momentum. Eval mode is a pure function of the running statistics.
    """

    scale: np.ndarray
    shift: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.9
    eps: float = 1e-5


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

    @property
    def out_dim(self) -> int:
        return self.layers[-1].w.shape[1]


def init_mlp(dims, activations, batchnorm, rng: np.random.Generator) -> MlpParams:
    """Build an MLP with uniform(-a, a) weights, a = sqrt(6/(fan_in+fan_out)).

    dims is [d_in, h1, ..., d_out]; activations has one entry per weight
    layer; batchnorm is a bool (all layers) or a per-layer list.
    """
    n_layers = len(dims) - 1
    if len(activations) != n_layers:
        raise ShapeError(f"need {n_layers} activations, got {len(activations)}")
    if isinstance(batchnorm, bool):
        batchnorm = [batchnorm] * n_layers
    layers = []
    for i in range(n_layers):
        d_in, d_out = dims[i], dims[i + 1]
        if activations[i] not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activations[i]!r}")
        a = np.sqrt(6.0 / (d_in + d_out))
        w = rng.uniform(-a, a, size=(d_in, d_out))
        b = np.zeros(d_out)
        bn = None
        if batchnorm[i]:
            bn = BatchNorm(
                scale=np.ones(d_out),
                shift=np.zeros(d_out),
                running_mean=np.zeros(d_out),
                running_var=np.ones(d_out),
            )
        layers.append(DenseLayer(w=w, b=b, activation=activations[i], batchnorm=bn))
    return MlpParams(layers=layers)


def clone_mlp(params: MlpParams) -> MlpParams:
    """Deep copy (weights, biases, batchnorm state)."""
    layers = []
    for lay in params.layers:
        bn = None
        if lay.batchnorm is not None:
            o = lay.batchnorm
            bn = BatchNorm(o.scale.copy(), o.shift.copy(), o.running_mean.copy(),
                           o.running_var.copy(), o.momentum, o.eps)
        layers.append(DenseLayer(lay.w.copy(), lay.b.copy(), lay.activation, bn))
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


def set_param_arrays(params: MlpParams, arrays) -> MlpParams:
    """Replace trainable arrays, in the mlp_param_arrays order."""
    arrays = list(arrays)
    expected = len(mlp_param_arrays(params))
    if len(arrays) != expected:
        raise ShapeError(f"expected {expected} arrays, got {len(arrays)}")
    it = iter(arrays)
    for lay in params.layers:
        lay.w = np.asarray(next(it), dtype=float)
        lay.b = np.asarray(next(it), dtype=float)
        if lay.batchnorm is not None:
            lay.batchnorm.scale = np.asarray(next(it), dtype=float)
            lay.batchnorm.shift = np.asarray(next(it), dtype=float)
    return params


def mlp_grad_arrays(grads) -> list[np.ndarray]:
    """Flatten a per-layer gradient list to match mlp_param_arrays order."""
    out = []
    for g in grads:
        out.append(g["w"])
        out.append(g["b"])
        if "scale" in g:
            out.append(g["scale"])
            out.append(g["shift"])
    return out


def mlp_forward(params: MlpParams, x: np.ndarray, mode: str = "train"):
    """Run the MLP; returns (output, cache) where cache feeds mlp_backward.

    mode="train" normalizes with batch statistics and updates the running
    averages in place; mode="eval" reads the running averages and mutates
    nothing.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
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
            if mode == "train":
                mu = z.mean(axis=0)
                var = z.var(axis=0)  # divide by batch size
                inv_std = 1.0 / np.sqrt(var + bn.eps)
                xhat = (z - mu) * inv_std
                bn.running_mean[:] = bn.momentum * bn.running_mean + (1.0 - bn.momentum) * mu
                bn.running_var[:] = bn.momentum * bn.running_var + (1.0 - bn.momentum) * var
            else:
                inv_std = 1.0 / np.sqrt(bn.running_var + bn.eps)
                xhat = (z - bn.running_mean) * inv_std
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
    return h, {"mode": mode, "layers": tuple(layer_caches),
               "shapes": tuple(lay.w.shape for lay in params.layers)}


def mlp_backward(params: MlpParams, cache, grad_output: np.ndarray):
    """Backpropagate grad_output; returns (per-layer grads, grad wrt input).

    The cache must come from a forward pass through the same network; a
    backward pass can be replayed any number of times with different output
    gradients (the cache is never consumed).
    """
    shapes = tuple(lay.w.shape for lay in params.layers)
    if cache.get("shapes") != shapes:
        raise ShapeError("cache does not match this network (stale cache?)")
    layer_caches = cache["layers"]
    mode = cache["mode"]
    grad = np.asarray(grad_output, dtype=float)
    if grad.shape != layer_caches[-1]["out"].shape:
        raise ShapeError(
            f"grad_output shape {grad.shape} != forward output "
            f"{layer_caches[-1]['out'].shape}")
    grads = [None] * len(params.layers)
    for idx in range(len(params.layers) - 1, -1, -1):
        lay = params.layers[idx]
        lc = layer_caches[idx]
        if lay.activation == "relu":
            grad = grad * (lc["pre"] > 0.0)
        elif lay.activation == "tanh":
            grad = grad * (1.0 - lc["out"] ** 2)
        g = {}
        if lay.batchnorm is not None:
            bn = lay.batchnorm
            xhat, inv_std = lc["bn"]
            g["scale"] = (grad * xhat).sum(axis=0)
            g["shift"] = grad.sum(axis=0)
            dxhat = grad * bn.scale
            if mode == "train":
                n = grad.shape[0]
                grad = (inv_std / n) * (
                    n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
            else:
                grad = dxhat * inv_std
        g["w"] = lc["x"].T @ grad
        g["b"] = grad.sum(axis=0)
        grads[idx] = g
        grad = grad @ lay.w.T
    return grads, grad


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """Adam moments for a fixed list of parameter arrays."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_init(params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ValueError("beta1/beta2 must be in [0, 1)")
    if lr <= 0:
        raise ValueError("lr must be positive")
    return AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps, t=0,
                     m=[np.zeros_like(p) for p in params],
                     v=[np.zeros_like(p) for p in params])


def adam_step(state: AdamState, params, grads):
    """One Adam update, in place; returns (params, state).

    Standard bias-corrected recurrence: m and v are exponential averages of
    the gradient and its square, and the step is lr * mhat / (sqrt(vhat)+eps).
    """
    if len(params) != len(state.m) or len(params) != len(grads):
        raise ShapeError("adam_step: parameter/gradient/state lengths differ")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape or p.shape != m.shape:
            raise ShapeError(
                f"adam_step: shape mismatch {p.shape} vs grad {g.shape}")
        # in place, with the rounding of m = b1 m + (1 - b1) g and so on
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
        if not np.isfinite(p).all():
            raise NumericsError("adam_step produced non-finite parameters")
    return params, state


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------

@dataclass
class FiniteDiffReport:
    max_rel_err: float
    passed: bool
    n_coords: int
    worst: tuple  # (array index, flat coordinate)

    def __bool__(self) -> bool:
        return self.passed


def finite_diff_check(loss_and_grad, params, tolerance: float = 1e-4,
                      h_scale: float = 1e-5, max_coords: int | None = 256,
                      seed: int = 0) -> FiniteDiffReport:
    """Compare analytic gradients against central finite differences.

    loss_and_grad takes a list of arrays and returns (loss, grads) with
    grads shaped like the inputs; it must be deterministic and must not
    mutate its arguments. Each checked coordinate is perturbed by
    h = h_scale * max(1, |p|). The relative error uses
    |a - n| / max(|a|, |n|, 1e-3), so coordinates with near-zero gradients
    are effectively held to an absolute tolerance.

    If the parameter count exceeds max_coords, a seeded subset of
    coordinates is checked; pass max_coords=None to check all of them.
    """
    params = [np.array(p, dtype=float) for p in params]
    loss0, grads = loss_and_grad([p.copy() for p in params])
    if not np.isfinite(loss0):
        raise NumericsError("finite_diff_check: loss is non-finite")
    grads = [np.asarray(g, dtype=float) for g in grads]
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError("finite_diff_check: gradient shape mismatch")

    coords = [(i, j) for i, p in enumerate(params) for j in range(p.size)]
    if max_coords is not None and len(coords) > max_coords:
        rng = make_rng(seed, "finite-diff")
        picks = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[int(k)] for k in sorted(picks)]

    max_rel = 0.0
    worst = (-1, -1)
    for (i, j) in coords:
        h = h_scale * max(1.0, abs(params[i].flat[j]))
        plus = [p.copy() for p in params]
        plus[i].flat[j] += h
        minus = [p.copy() for p in params]
        minus[i].flat[j] -= h
        lp, _ = loss_and_grad(plus)
        lm, _ = loss_and_grad(minus)
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise NumericsError("finite_diff_check: perturbed loss is non-finite")
        numeric = (lp - lm) / (2.0 * h)
        analytic = grads[i].flat[j]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
        if rel > max_rel:
            max_rel = rel
            worst = (i, j)
    return FiniteDiffReport(max_rel_err=float(max_rel),
                            passed=bool(max_rel < tolerance),
                            n_coords=len(coords), worst=worst)
