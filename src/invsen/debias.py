"""Bias mitigation: classifier heads over the key and query embeddings,
their cross-entropy and entropy-confusion losses, the bias-group estimates
behind the aligned reconstruction and the counterfactual batch, and the
invariance loss.

The two heads model the posterior of the bias label given each embedding.
During training the heads themselves are fit with plain cross-entropy on
detached embeddings, while the feature networks receive (a) the
entropy-confusion gradient, which pushes the heads' posteriors toward
uniform, (b) the reversed (negated) cross-entropy gradient scaled by
lambda * mu, (c) the gradient of the aligned reconstruction term, and
(d) the gradient of the invariance loss between each embedding and the
embedding of the same sample moved into another bias group
(counterfactual_inputs).

(a) and (b) act only on what the current heads read, and both vanish once
a head is confidently right: their logit gradients are p(log p + H) and
p - y, which are zero on a one-hot posterior. A head that saturates while
the embeddings still separate the bias therefore leaves those embeddings
alone. (c) and (d) go through no head. (c) takes away the reason the
embeddings carry the bias in the first place: a sample's bias offset can
only be rebuilt from contributors of its own bias group, so plain
self-expression rewards coefficients, and hence embeddings, that follow
the bias. With each contributor first moved into its target's bias group
(bias_group_shift) that reward is gone. (d) then pulls the embeddings
toward not moving when a sample's bias group is swapped. It is zero when
no embedding moves under the estimated swap; the swap is estimated from
one batch's group means, so it is exact only up to their sampling noise,
and a read-out may still decode what that noise leaves. The gradient
routing itself lives in the trainer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import ConfigError, ShapeError
from .numkit import MlpParams, mlp_forward, softmax_rows

PROB_EPS = 1e-7  # probabilities are clamped to [eps, 1-eps] before any log


@dataclass
class LossWeights:
    """Scalar weights of the combined objective.

    gamma scales the reconstruction term, delta mixes the elastic net,
    lam weights the bias-mitigation terms (entropy confusion, aligned
    reconstruction, invariance, and the reversed cross-entropy), and mu
    scales the cross-entropy relaxation inside them.
    """

    gamma: float = 200.0
    delta: float = 0.9
    lam: float = 0.0
    mu: float = 1.0

    def __post_init__(self):
        # written so that NaN fails every range
        if not 0.0 < self.gamma < np.inf:
            raise ConfigError("gamma must be positive and finite")
        if not 0.0 <= self.delta <= 1.0:
            raise ConfigError("delta must lie in [0, 1]")
        if not (0.0 <= self.lam < np.inf and 0.0 <= self.mu < np.inf):
            raise ConfigError("lam and mu must be non-negative and finite")


@dataclass
class BiasHeads:
    """The two bias classifiers: g over key embeddings, g_prime over query
    embeddings. Each ends in an n_bias_classes-wide linear layer whose
    output is read through a softmax."""

    g: MlpParams
    g_prime: MlpParams
    n_bias_classes: int = 2


def init_bias_heads(embed_dim: int, hidden=(64, 32, 16), n_bias_classes: int = 2,
                    batchnorm: bool = True,
                    rng: np.random.Generator | None = None,
                    out: np.ndarray | None = None) -> BiasHeads:
    """Heads are MLPs with ReLU between the dense layers and a bare linear
    classification layer on top; batchnorm=True (the default) normalizes
    between the dense layers. The head_parameter_arrays are consecutive
    views of out (a flat vector of the right length, such as an optimizer's
    parameter vector) or of a new vector.

    batchnorm=False ties the head's confidence to the bias amplitude left in
    the embeddings; with normalization the head can stay saturated on an
    arbitrarily faint residual signal. Either way a head saturates on
    embeddings that separate the bias, and its adversarial gradients then
    vanish; the aligned reconstruction and the invariance loss act on such
    embeddings without going through a head.
    """
    if n_bias_classes < 2:
        raise ConfigError("need at least two bias classes")
    if rng is None:
        rng = numkit.make_rng(0, "bias-heads")
    dims = [embed_dim, *hidden, n_bias_classes]
    acts = ["relu"] * len(hidden) + ["none"]
    bn = [batchnorm] * len(hidden) + [False]
    layout = head_vector_layout(embed_dim, hidden, n_bias_classes, batchnorm)
    g_vec, g_prime_vec = numkit.flat_views(
        numkit.flat_vector(out, numkit.flat_size(layout)), layout)
    g = numkit.init_mlp(dims, acts, batchnorm=bn, rng=rng, out=g_vec)
    g_prime = numkit.init_mlp(dims, acts, batchnorm=bn, rng=rng, out=g_prime_vec)
    return BiasHeads(g=g, g_prime=g_prime, n_bias_classes=n_bias_classes)


def head_vector_layout(embed_dim: int, hidden, n_bias_classes: int,
                       batchnorm: bool) -> list[tuple]:
    """Shapes of the segments of the flat vector init_bias_heads builds the
    heads in: head g, then head g'."""
    bn = [batchnorm] * len(hidden) + [False]
    n_head = numkit.flat_size(numkit.mlp_shapes([embed_dim, *hidden, n_bias_classes], bn))
    return [(n_head,), (n_head,)]


def bias_posterior(head: MlpParams, emb: np.ndarray):
    """Class probabilities of the bias label given embeddings.

    Returns (probs, cache): probs rows are softmax outputs (non-negative,
    summing to 1); the loss functions clamp to [PROB_EPS, 1-PROB_EPS]
    before taking logs. The cache backs the head's backward pass. A head
    with batchnorm normalizes with the statistics of emb itself, so probs
    depend on the whole batch; the heads are read only in training.
    """
    emb = np.asarray(emb, dtype=float)
    logits, cache = mlp_forward(head, emb)
    probs = softmax_rows(logits)
    return probs, cache


def _check_labels(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != probs.shape[0]:
        raise ShapeError(
            f"labels shape {labels.shape} does not match batch {probs.shape[0]}")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ValueError(
            f"bias label out of range [0, {probs.shape[1]}): "
            f"[{labels.min()}, {labels.max()}]")
    return labels.astype(int)


def cross_entropy_loss(probs: np.ndarray, labels) -> float:
    """Mean negative log probability of the true bias class."""
    probs = np.asarray(probs, dtype=float)
    labels = _check_labels(probs, labels)
    p_true = probs[np.arange(probs.shape[0]), labels]
    return float(-np.log(np.clip(p_true, PROB_EPS, 1.0 - PROB_EPS)).mean())


def entropy_confusion_loss(probs: np.ndarray) -> float:
    """Mean of sum_b Q(b|.) log Q(b|.); equals minus the posterior entropy.

    Lies in [-log K, 0]; the minimum -log K is attained exactly at uniform
    posteriors, so minimizing it w.r.t. the upstream features pushes the
    head toward knowing nothing about the bias.
    """
    probs = np.asarray(probs, dtype=float)
    logp = np.log(np.clip(probs, PROB_EPS, 1.0 - PROB_EPS))
    return float((probs * logp).sum(axis=1).mean())


def cross_entropy_grad_logits(probs: np.ndarray, labels) -> np.ndarray:
    """Gradient of cross_entropy_loss w.r.t. the head's logits: (P - Y)/n."""
    probs = np.asarray(probs, dtype=float)
    labels = _check_labels(probs, labels)
    g = probs.copy()
    g[np.arange(probs.shape[0]), labels] -= 1.0
    return g / probs.shape[0]


def entropy_confusion_grad_logits(probs: np.ndarray) -> np.ndarray:
    """Gradient of entropy_confusion_loss w.r.t. the logits.

    For each row: p_m * (log p_m + H(p)) / n, with H the row entropy. Zero
    exactly at uniform rows, which is the loss's minimum.
    """
    probs = np.asarray(probs, dtype=float)
    logp = np.log(np.clip(probs, PROB_EPS, 1.0 - PROB_EPS))
    h = -(probs * logp).sum(axis=1, keepdims=True)
    return probs * (logp + h) / probs.shape[0]


def _group_means(x: np.ndarray, labels, n_classes: int):
    """(x, labels, means, present): float batch, int labels, the mean row
    of every bias group (zeros for a group absent from the batch), and
    which groups are present."""
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != x.shape[0]:
        raise ShapeError(
            f"labels shape {labels.shape} does not match batch {x.shape[0]}")
    labels = labels.astype(int)
    present = np.array([np.any(labels == k) for k in range(n_classes)])
    means = np.array([x[labels == k].mean(axis=0) if present[k]
                      else np.zeros(x.shape[1]) for k in range(n_classes)])
    return x, labels, means, present


def bias_group_shift(x: np.ndarray, labels, n_classes: int = 2) -> np.ndarray:
    """Row i is the batch mean of sample i's bias group.

    As se_loss's shift, it moves each contributor x_i to
    x_i - m[b_i] + m[b_j] before it helps rebuild x_j: into x_j's bias
    group, by the same estimate of the offset as counterfactual_inputs.
    """
    _, labels, means, _ = _group_means(x, labels, n_classes)
    return means[labels]


def counterfactual_inputs(x: np.ndarray, labels, n_classes: int = 2) -> np.ndarray:
    """The batch with every sample moved into the next bias group.

    Row i is x_i + m[(b_i + 1) % K] - m[b_i], where m[k] is the mean of the
    batch rows in bias group k. When the bias displaces each sample by an
    offset fixed per group, and the signal averages to zero within each
    group (as samples of a linear subspace do), the group means differ by
    the offsets up to sampling noise, so row i is sample i with its bias
    label changed and its subspace content kept. A group absent from the
    batch gives no estimate: rows that would move from or into it stay
    where they are.
    """
    x, labels, means, present = _group_means(x, labels, n_classes)
    target = (labels + 1) % n_classes
    moved = present[labels] & present[target]
    return x + np.where(moved[:, None], means[target] - means[labels], 0.0)


def counterfactual_invariance(model, x: np.ndarray, labels, key_out: np.ndarray,
                              query_out: np.ndarray, n_classes: int = 2):
    """Embed the bias-swapped batch with both nets and compare.

    key_out / query_out are the batch's own embeddings. Returns
    (l_inv, key_cf, query_cf): l_inv is the sum of the key and query
    invariance losses, and key_cf / query_cf are the (embeddings, cache)
    pairs of the counterfactual forward passes, for the caller's backward
    pass.
    """
    x_cf = counterfactual_inputs(x, labels, n_classes)
    key_cf = mlp_forward(model.key_net, x_cf)
    query_cf = mlp_forward(model.query_net, x_cf)
    l_inv = (invariance_loss(key_out, key_cf[0])
             + invariance_loss(query_out, query_cf[0]))
    return l_inv, key_cf, query_cf


def invariance_loss(emb: np.ndarray, emb_cf: np.ndarray) -> float:
    """Half the mean squared distance between each embedding and the
    embedding of its counterfactual row; zero exactly when no embedding
    moves between a row and its counterfactual row."""
    diff = np.asarray(emb, dtype=float) - np.asarray(emb_cf, dtype=float)
    return 0.5 * float((diff * diff).sum()) / diff.shape[0]


def invariance_grads(emb: np.ndarray, emb_cf: np.ndarray):
    """Gradients of invariance_loss w.r.t. emb and emb_cf: +-(emb - emb_cf)/n."""
    diff = np.asarray(emb, dtype=float) - np.asarray(emb_cf, dtype=float)
    diff /= diff.shape[0]
    return diff, -diff


def head_accuracy(probs: np.ndarray, labels) -> float:
    """Fraction of samples whose argmax posterior matches the bias label."""
    probs = np.asarray(probs, dtype=float)
    labels = _check_labels(probs, labels)
    return float((probs.argmax(axis=1) == labels).mean())


def head_parameter_arrays(heads: BiasHeads) -> list[np.ndarray]:
    """Arrays updated by the bias optimizer, both heads, fixed order. From
    init_bias_heads they lie end to end in one vector, in this order."""
    return numkit.mlp_param_arrays(heads.g) + numkit.mlp_param_arrays(heads.g_prime)
