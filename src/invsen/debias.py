"""Bias mitigation: classifier heads over the key and query embeddings,
their cross-entropy and entropy-confusion losses, the bias-group offsets
behind the aligned reconstruction and the counterfactual batch, and the
invariance loss. Each loss returns its value and its gradient (w.r.t. the
head's logits, or both embeddings) from one call.

The two heads model the posterior of the bias label given each embedding.
During training the heads themselves are fit with plain cross-entropy on
detached embeddings, while the feature networks receive (a) the
entropy-confusion gradient, which pushes the heads' posteriors toward
uniform, (b) the reversed (negated) cross-entropy gradient scaled by
lambda * mu, (c) the gradient of the aligned reconstruction term, and
(d) the gradient of the invariance loss between each embedding and the
embedding of the same sample moved into another bias group. Both (c) and
(d) read one estimate of the bias groups' batch means per step
(bias_group_offsets).

(a) and (b) act only on what the current heads read, and both vanish once
a head is confidently right: their logit gradients are p(log p + H) and
p - y, which are zero on a one-hot posterior. A head that saturates while
the embeddings still separate the bias therefore leaves those embeddings
alone. (c) and (d) go through no head. (c) takes away the reason the
embeddings carry the bias in the first place: a sample's bias offset can
only be rebuilt from contributors of its own bias group, so plain
self-expression rewards coefficients, and hence embeddings, that follow
the bias. With each contributor first moved into its target's bias group
(the shift of bias_group_offsets) that reward is gone. (d) then pulls the
embeddings toward not moving when a sample's bias group is swapped. It is
zero when no embedding moves under the estimated swap; the swap is
estimated from one batch's group means, so it is exact only up to their
sampling noise, and a read-out may still decode what that noise leaves.
The gradient routing itself lives in the trainer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import ConfigError, ShapeError, integer_labels
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
                    batchnorm: bool = True, *, rng: np.random.Generator,
                    out: np.ndarray | None = None) -> BiasHeads:
    """Heads are MLPs with ReLU between the dense layers and a bare linear
    classification layer on top; batchnorm=True (the default) normalizes
    between the dense layers. Head g and head g' are consecutive views of
    out (a flat vector laid out as head_vector_layout says, such as an
    optimizer's parameter vector) or of a new vector.

    batchnorm=False ties the head's confidence to the bias amplitude left in
    the embeddings; with normalization the head can stay saturated on an
    arbitrarily faint residual signal. Either way a head saturates on
    embeddings that separate the bias, and its adversarial gradients then
    vanish; the aligned reconstruction and the invariance loss act on such
    embeddings without going through a head.
    """
    if n_bias_classes < 2:
        raise ConfigError("need at least two bias classes")
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


def _check_labels(labels, n: int, n_classes: int) -> np.ndarray:
    """labels as ints, once they are n > 0 integer labels in [0, n_classes):
    a ShapeError or ConfigError otherwise."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != n or n == 0:
        raise ShapeError(f"labels shape {labels.shape} does not match a batch of {n} > 0")
    labels = integer_labels(labels)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ConfigError(
            f"bias label out of range [0, {n_classes}): "
            f"[{labels.min()}, {labels.max()}]")
    return labels


def cross_entropy_loss(probs: np.ndarray, labels):
    """(loss, logit gradient): the mean negative log probability of the true
    bias class, and its gradient w.r.t. the head's logits, (P - Y)/n."""
    probs = np.asarray(probs, dtype=float)
    labels = _check_labels(labels, *probs.shape)
    rows = np.arange(probs.shape[0])
    loss = float(-np.log(np.clip(probs[rows, labels], PROB_EPS, 1.0 - PROB_EPS)).mean())
    g = probs.copy()
    g[rows, labels] -= 1.0
    return loss, g / probs.shape[0]


def entropy_confusion_loss(probs: np.ndarray):
    """(loss, logit gradient): the mean of sum_b Q(b|.) log Q(b|.), which is
    minus the posterior entropy H, and its gradient w.r.t. the logits, row
    by row p_m * (log p_m + H(p)) / n.

    The loss lies in [-log K, 0]; the minimum -log K is attained exactly at
    uniform posteriors, where the gradient is zero, so minimizing it w.r.t.
    the upstream features pushes the head toward knowing nothing about the
    bias.
    """
    probs = np.asarray(probs, dtype=float)
    logp = np.log(np.clip(probs, PROB_EPS, 1.0 - PROB_EPS))
    neg_h = (probs * logp).sum(axis=1)
    return float(neg_h.mean()), probs * (logp - neg_h[:, None]) / probs.shape[0]


def bias_group_offsets(x: np.ndarray, labels, n_classes: int = 2):
    """(shift, x_cf) from one estimate of the bias groups' batch means m[k].

    shift row i is m[b_i]. As se_loss's shift, it moves each contributor
    x_i to x_i - m[b_i] + m[b_j] before it helps rebuild x_j: into x_j's
    bias group.

    x_cf is the batch with every sample moved into the next bias group:
    row i is x_i + m[(b_i + 1) % K] - m[b_i]. When the bias displaces each
    sample by an offset fixed per group, and the signal averages to zero
    within each group (as samples of a linear subspace do), the group means
    differ by the offsets up to sampling noise, so row i is sample i with
    its bias label changed and its subspace content kept.

    A group absent from the batch gives no estimate: rows of x_cf that
    would move from or into it stay where they are.
    """
    x = np.asarray(x, dtype=float)
    labels = _check_labels(labels, x.shape[0], n_classes)
    present = np.array([np.any(labels == k) for k in range(n_classes)])
    means = np.array([x[labels == k].mean(axis=0) if present[k]
                      else np.zeros(x.shape[1]) for k in range(n_classes)])
    target = (labels + 1) % n_classes
    moved = present[labels] & present[target]
    shift = means[labels]
    return shift, x + np.where(moved[:, None], means[target] - shift, 0.0)


def invariance_loss(emb: np.ndarray, emb_cf: np.ndarray):
    """(loss, grad_emb, grad_emb_cf): half the mean squared distance between
    each embedding and the embedding of its counterfactual row, zero exactly
    when no embedding moves between the two, and its gradients
    +-(emb - emb_cf)/n."""
    diff = np.asarray(emb, dtype=float) - np.asarray(emb_cf, dtype=float)
    loss = 0.5 * float((diff * diff).sum()) / diff.shape[0]
    diff /= diff.shape[0]
    return loss, diff, -diff


def head_accuracy(probs: np.ndarray, labels) -> float:
    """Fraction of samples whose argmax posterior matches the bias label."""
    probs = np.asarray(probs, dtype=float)
    labels = _check_labels(labels, *probs.shape)
    return float((probs.argmax(axis=1) == labels).mean())
