"""Self-expressive network: key/query embeddings, soft-thresholded inner
products as self-expression coefficients, and the reconstruction loss with
elastic-net regularization.

Conventions used throughout:

* A batch is an (n, d) array with one sample per row.
* The coefficient matrix C is (n, n) with C[i, j] the weight of sample i in
  the reconstruction of sample j, so the reconstruction of the batch is
  C.T @ X. Coefficients are c_ij = alpha * soft_threshold(u_j . v_i, beta)
  where u comes from the key net (applied to the reconstructed sample) and
  v from the query net (applied to the contributing sample), as in SENet.
  The diagonal is identically zero. The threshold's magnitude
  max(|s| - beta, 0) has one kernel, shrink_magnitudes, which training
  (coefficients) and evaluation (cluster.build_affinity) share.
* beta >= 0 is kept positive through a softplus reparameterization of an
  unconstrained scalar, and starts at DEFAULT_BETA0. alpha is a positive
  scale, fixed by default and trainable on request (init_se_model); the
  trainer always builds it fixed at 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import ConfigError, ShapeError
from .numkit import MlpParams, mlp_forward, sigmoid, softplus, softplus_inv

# With tanh embeddings and the uniform init, off-diagonal inner products
# start around |u.v| ~ 0.01-0.08; the threshold must begin below that
# scale or every coefficient is born in the dead zone and no gradient
# ever flows.
DEFAULT_BETA0 = 0.005


@dataclass
class SEModel:
    """Key/query networks plus the scalar coefficient parameters.

    beta_raw and alpha are held as 0-d float arrays so the optimizer can
    update them in place alongside the network weights. The key net embeds
    the sample being reconstructed, the query net its contributors.
    """

    key_net: MlpParams
    query_net: MlpParams
    beta_raw: np.ndarray
    alpha: np.ndarray
    alpha_learnable: bool = False

    @property
    def beta(self) -> float:
        return float(softplus(self.beta_raw))

    @property
    def in_dim(self) -> int:
        return self.key_net.in_dim


def init_se_model(in_dim: int, hidden=(64, 64, 64), embed_dim: int = 64,
                  alpha: float = 1.0, alpha_learnable: bool = False, *,
                  rng: np.random.Generator,
                  out: np.ndarray | None = None) -> SEModel:
    """Fresh model: hidden layers are ReLU, the embedding layer is tanh,
    and beta starts at DEFAULT_BETA0.

    The tanh output bounds every embedding coordinate, which keeps the
    inner products u.v in a range where the soft threshold stays active.
    The key net, query net, beta_raw and, if learnable, alpha are
    consecutive views of out (a flat vector laid out as se_vector_layout
    says, such as an optimizer's parameter vector) or of a new vector.
    """
    if not 0.0 < alpha < np.inf:
        raise ConfigError("alpha must be positive and finite")
    dims = [in_dim, *hidden, embed_dim]
    acts = ["relu"] * len(hidden) + ["tanh"]
    layout = se_vector_layout(in_dim, hidden, embed_dim, alpha_learnable)
    key_vec, query_vec, beta_raw, *learnable_alpha = numkit.flat_views(
        numkit.flat_vector(out, numkit.flat_size(layout)), layout)
    key_net = numkit.init_mlp(dims, acts, batchnorm=False, rng=rng, out=key_vec)
    query_net = numkit.init_mlp(dims, acts, batchnorm=False, rng=rng, out=query_vec)
    beta_raw[...] = softplus_inv(DEFAULT_BETA0)
    alpha_arr = learnable_alpha[0] if learnable_alpha else np.empty(())
    alpha_arr[...] = float(alpha)
    return SEModel(key_net=key_net, query_net=query_net, beta_raw=beta_raw,
                   alpha=alpha_arr, alpha_learnable=alpha_learnable)


def se_vector_layout(in_dim: int, hidden, embed_dim: int,
                     alpha_learnable: bool) -> list[tuple]:
    """Shapes of the segments of the flat vector init_se_model builds a
    model in: key net, query net, beta_raw, then alpha if learnable."""
    n_net = numkit.flat_size(numkit.mlp_shapes([in_dim, *hidden, embed_dim], False))
    return [(n_net,), (n_net,), ()] + [()] * int(alpha_learnable)


def shrink_magnitudes(s: np.ndarray, beta: float, out: np.ndarray) -> np.ndarray:
    """max(|s| - beta, 0) of each entry of s, written into out (s itself
    for an in-place pass): the package's one soft threshold, positive
    exactly on the live entries |s| > beta."""
    np.abs(s, out=out)
    out -= beta
    return np.maximum(out, 0.0, out=out)


def soft_threshold(t, beta):
    """sign(t) * max(0, |t| - beta): shrink toward zero, exact zero inside
    the dead zone |t| <= beta."""
    t = np.asarray(t, dtype=float)
    return np.sign(t) * shrink_magnitudes(t, beta, np.empty_like(t))


def elastic_net_reg(c, delta: float):
    """(r, subgradient) of each entry of c: the elastic-net penalty
    r(c) = delta*|c| + ((1-delta)/2)*c^2 and delta*sign(c) + (1-delta)*c,
    which is 0 at c = 0."""
    if not 0.0 <= delta <= 1.0:
        raise ValueError("delta must lie in [0, 1]")
    c = np.asarray(c, dtype=float)
    return (delta * np.abs(c) + 0.5 * (1.0 - delta) * c * c,
            delta * np.sign(c) + (1.0 - delta) * c)


def coefficients(model: SEModel, x: np.ndarray):
    """Coefficients for reconstructing each sample of x from the others.

    Returns (block, cache). block has shape (n, n) with entry
    (i, j) = alpha * soft_threshold(u_j . v_i, beta): row i is a
    contributing sample (query-embedded), column j the sample being
    reconstructed (key-embedded). The self-pairs i = j are exactly zero.

    The cache carries everything se_loss needs for the gradients;
    coefficient_matrix drops it. The threshold is shrink_magnitudes, signed
    in place: besides boolean masks, three float arrays of the block's size
    are made (s, thr and block). cluster.build_affinity computes the same
    entries of |C| through the same kernel, in one n x n array.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError("coefficients: input must be 2-d (samples, features)")
    if x.shape[1] != model.in_dim:
        raise ShapeError(
            f"coefficients: feature dim {x.shape[1]} != model input width {model.in_dim}")

    key_out, key_cache = mlp_forward(model.key_net, x)
    query_out, query_cache = mlp_forward(model.query_net, x)

    s = query_out @ key_out.T  # s[i, j] = v_i . u_j
    beta = model.beta
    alpha = float(model.alpha)
    # thr = where(live, sign(s) * (|s| - beta), 0.0), built in one array:
    # on live entries |s| - beta > 0, so copysign gives sign(s) * (|s| - beta)
    thr = shrink_magnitudes(s, beta, np.empty_like(s))
    live = thr > 0.0
    np.fill_diagonal(live, False)
    np.copysign(thr, s, out=thr)
    np.copyto(thr, 0.0, where=~live)
    block = alpha * thr
    cache = {
        "s": s, "live": live, "thr": thr, "alpha": alpha, "beta": beta,
        "key_out": key_out, "query_out": query_out,
        "key_cache": key_cache, "query_cache": query_cache,
    }
    return block, cache


def coefficient_matrix(model: SEModel, x: np.ndarray) -> np.ndarray:
    """Full (n, n) self-expression coefficient matrix with zero diagonal."""
    block, _ = coefficients(model, x)
    return block


@dataclass
class SELossResult:
    """Loss value plus every gradient the trainer needs.

    grad_key_out / grad_query_out are the gradients at the embedding level;
    the nets' parameter gradients are mlp_backward(net, cache, grad_*_out)
    with key_cache / query_cache, which lets the trainer add its own terms
    at the embeddings first and run one backward pass per net. l_align is
    the aligned reconstruction term's value (0.0 without a shift); every
    gradient includes shift_weight times its gradient.
    """

    loss: float
    recon: float
    reg: float
    l_align: float
    grad_beta_raw: float
    grad_alpha: float
    grad_key_out: np.ndarray
    grad_query_out: np.ndarray
    key_out: np.ndarray
    query_out: np.ndarray
    key_cache: dict
    query_cache: dict


def se_loss(model: SEModel, batch: np.ndarray, gamma: float, delta: float,
            shift=None, shift_weight: float = 0.0) -> SELossResult:
    """Self-expression loss over one batch and its exact gradients.

    loss = (gamma / 2n) * sum_j ||x_j - sum_{i != j} C[i, j] x_i||^2
         + (1 / n) * sum_{i != j} r(C[i, j])

    Within a batch every sample is reconstructed from the other n-1
    samples. Gradients are returned w.r.t. both embeddings (the caller
    backpropagates them through the nets), for the softplus pre-image of
    beta, and for alpha (whether or not alpha is trainable).

    shift, an (n, d) array, adds shift_weight * l_align to what the
    gradients differentiate, with

        l_align = (gamma / 2n) * sum_j (||x_j - sum_{i != j} C[i, j] (x_i - shift_i + shift_j)||^2
                                        - ||x_j - sum_{i != j} C[i, j] x_i||^2),

    the change in reconstruction cost when each contributor x_i is first
    moved by shift_j - shift_i into the frame of the sample it rebuilds.
    loss, recon and reg stay those of the plain objective; l_align is
    returned on its own (0.0 without a shift).
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    x = np.asarray(batch, dtype=float)
    n = x.shape[0]
    if n < 1:
        raise ShapeError("se_loss: batch must contain at least one sample")

    block, cache = coefficients(model, x)
    s, live, thr = cache["s"], cache["live"], cache["thr"]
    alpha = cache["alpha"]

    recon_mat = block.T @ x  # row j: sum_i C[i, j] x_i
    resid = recon_mat - x
    recon = (gamma / (2.0 * n)) * float((resid * resid).sum())
    r, r_grad = elastic_net_reg(block, delta)
    reg = float(r[~np.eye(n, dtype=bool)].sum()) / n
    loss = recon + reg

    # d recon / d C = (gamma/n) * x @ resid.T ; d reg / d C = r'(C)/n
    g_recon = x @ resid.T
    g_block = (gamma / n) * g_recon + r_grad / n
    l_align = 0.0
    if shift is not None:
        shift = np.asarray(shift, dtype=float)
        if shift.shape != x.shape:
            raise ShapeError(f"se_loss: shift shape {shift.shape} != batch {x.shape}")
        # row j of the aligned reconstruction: sum_i C[i, j] (x_i - shift_i) + colsum_j shift_j
        x_c = x - shift
        resid_a = block.T @ x_c + block.sum(axis=0)[:, None] * shift - x
        l_align = (gamma / (2.0 * n)) * float((resid_a * resid_a).sum()) - recon
        # d/dC[i, j] of the aligned cost: (gamma/n) (x_i - shift_i + shift_j) . resid_a_j
        g_aligned = x_c @ resid_a.T + (shift * resid_a).sum(axis=1)[None, :]
        g_block = g_block + shift_weight * (gamma / n) * (g_aligned - g_recon)
    g_block = np.where(live, g_block, 0.0)

    g_thr = alpha * g_block  # zero off the live entries, so also the gradient w.r.t. s
    g_alpha = float((g_block * thr).sum())
    g_beta = float(-(g_thr * np.sign(s)).sum())
    g_beta_raw = g_beta * float(sigmoid(model.beta_raw))

    g_query_out = g_thr @ cache["key_out"]      # d s[i, j] / d v_i = u_j
    g_key_out = g_thr.T @ cache["query_out"]    # d s[i, j] / d u_j = v_i

    return SELossResult(
        loss=loss, recon=recon, reg=reg, l_align=l_align,
        grad_beta_raw=g_beta_raw, grad_alpha=g_alpha,
        grad_key_out=g_key_out, grad_query_out=g_query_out,
        key_out=cache["key_out"], query_out=cache["query_out"],
        key_cache=cache["key_cache"], query_cache=cache["query_cache"])
