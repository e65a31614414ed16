"""Training loop: two Adam optimizers (feature nets vs bias heads), gradient
reversal routing, deterministic minibatching, and versioned checkpoints.

Every step runs one forward pass of the batch (with lam > 0, also one of
its bias-swapped counterfactual), sums every term's gradient at the
embeddings, and backpropagates that sum once through each net (with
lam > 0, also the counterfactual's invariance gradient). The terms:

* the heads minimize cross-entropy on the bias labels (their gradients
  never reach the feature nets);
* the key/query nets, beta and alpha minimize the self-expression loss
  plus lam * entropy-confusion, and additionally receive the cross-entropy
  gradient through the embeddings negated and scaled by lam * mu (the
  reversal), so they learn to make the heads fail;
* with lam > 0 the key/query nets, beta and alpha also minimize
  lam * l_align (sennet.se_loss with debias.bias_group_shift): the change
  in reconstruction cost when each contributor is first moved into its
  target's bias group. At lam = 1 the reconstruction term is wholly the
  aligned one, which no longer rewards following the bias;
* the key/query nets also minimize lam * the invariance loss between the
  embeddings of the batch and those of its bias-swapped counterfactual
  (debias.counterfactual_invariance). Its gradient reaches the nets
  through the forward passes of both. Unlike the head terms, neither of
  these two vanishes when a head saturates.

Heads are updated first, then the feature nets, both from the same forward
passes. With lam = 0 the feature updates are bit-for-bit those of a plain
self-expressive network; the heads keep training on the side.

Each optimizer owns one flat vector each for the parameters, the
gradients and the two Adam moments. init_state builds the nets as views of
the parameter vectors; a step writes every parameter gradient straight
into the gradient vectors (the counterfactual pass adds to them) and runs
one fused update per optimizer.

A checkpoint stores the config and the input width, from which
init_state rebuilds the state, and the six vectors of _state_arrays: each
optimizer's parameters, m and v. _layout sizes the two parameter vectors
from the config alone, so a checkpoint is checked against its payload
length before anything is allocated.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import numkit
from .datagen import Dataset
from .debias import (
    BiasHeads,
    LossWeights,
    bias_group_shift,
    bias_posterior,
    counterfactual_invariance,
    cross_entropy_grad_logits,
    cross_entropy_loss,
    entropy_confusion_grad_logits,
    entropy_confusion_loss,
    head_accuracy,
    head_vector_layout,
    init_bias_heads,
    invariance_grads,
)
from .errors import CheckpointError, ConfigError, NumericsError, ShapeError, TrainingDiverged
from .numkit import (
    AdamState,
    adam_init,
    adam_step,
    make_rng,
    mlp_backward,
    mlp_param_arrays,
    normalize_rows,
)
from .sennet import SEModel, init_se_model, se_loss, se_vector_layout

CHECKPOINT_MAGIC = b"INVSEN01"
CHECKPOINT_VERSION = 4
DIVERGENCE_LIMIT = 1e6

HISTORY_FIELDS = ("epoch", "l_se", "l_conf_key", "l_conf_query",
                  "l_ce_key", "l_ce_query", "bias_head_acc")


@dataclass
class TrainConfig:
    epochs: int
    batch_size: int = 128
    lr_main: float = 1e-3
    lr_bias: float = 1e-4
    weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 0
    eval_every: int = 1
    # architecture (key/query hidden widths, embedding dim, head widths)
    hidden: tuple = (64, 64, 64)
    embed_dim: int = 64
    bias_hidden: tuple = (64, 32, 16)
    bias_batchnorm: bool = True
    bias_warmup_epochs: int = 0
    n_bias_classes: int = 2
    alpha: float = 1.0
    alpha_learnable: bool = False
    beta0: float = 0.005

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (self-expression needs peers)")
        if not (0 < self.lr_main < np.inf and 0 < self.lr_bias < np.inf):
            raise ConfigError("learning rates must be positive and finite")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")
        self.hidden = tuple(int(h) for h in self.hidden)
        self.bias_hidden = tuple(int(h) for h in self.bias_hidden)


@dataclass
class TrainState:
    config: TrainConfig
    model: SEModel
    heads: BiasHeads
    opt_main: AdamState
    opt_bias: AdamState
    epoch: int
    history: list


def init_state(config: TrainConfig, in_dim: int) -> TrainState:
    """Fresh model, heads, and optimizers; the nets are built as views of
    the optimizers' parameter vectors. RNG consumption is fixed (key net,
    query net, head g, head g') so trajectories only depend on the seed,
    never on which loss terms are active."""
    n_main, n_bias = _layout(config, in_dim)
    opt_main = adam_init(np.empty(n_main), config.lr_main)
    opt_bias = adam_init(np.empty(n_bias), config.lr_bias)
    rng = make_rng(config.seed, "init")
    model = init_se_model(
        in_dim, hidden=config.hidden, embed_dim=config.embed_dim,
        beta0=config.beta0, alpha=config.alpha,
        alpha_learnable=config.alpha_learnable, rng=rng, out=opt_main.params)
    heads = init_bias_heads(config.embed_dim, hidden=config.bias_hidden,
                            n_bias_classes=config.n_bias_classes,
                            batchnorm=config.bias_batchnorm, rng=rng,
                            out=opt_bias.params)
    return TrainState(config=config, model=model, heads=heads,
                      opt_main=opt_main, opt_bias=opt_bias, epoch=0,
                      history=[])


def _layout(config: TrainConfig, in_dim: int):
    """(n_main, n_bias): the values in the two parameter vectors of
    init_state(config, in_dim). Integer arithmetic over the config; nothing
    is allocated."""
    n_main = numkit.flat_size(se_vector_layout(
        in_dim, config.hidden, config.embed_dim, config.alpha_learnable))
    n_bias = numkit.flat_size(head_vector_layout(
        config.embed_dim, config.bias_hidden, config.n_bias_classes,
        config.bias_batchnorm))
    return n_main, n_bias


def _segments(vec: np.ndarray, *nets):
    """Consecutive views of vec: one per net, as long as its trainable
    arrays, then the rest."""
    sizes = [numkit.flat_size(a.shape for a in mlp_param_arrays(net)) for net in nets]
    return numkit.flat_views(vec, [(n,) for n in sizes] + [(vec.size - sum(sizes),)])


def train_step(state: TrainState, batch: np.ndarray, bias_labels,
               weights: LossWeights | None = None):
    """One min-max step on a batch; returns (state, report).

    bias_labels may be None only when lam = 0; the heads then sit idle and
    the bias-side report fields are NaN. total_report, the value the
    divergence guard reads, is
    l_se + lam * (l_conf_key + l_conf_query + l_align + l_inv)
         + mu * (l_ce_key + l_ce_query),
    with l_align and l_inv (reported on lam > 0 steps only) taken as 0
    when lam = 0.
    """
    w = weights if weights is not None else state.config.weights
    model, heads = state.model, state.heads
    x = np.asarray(batch, dtype=float)
    if bias_labels is None and w.lam > 0:
        raise ConfigError("bias labels are required when lam > 0")

    shift = None
    if w.lam > 0:
        # each contributor enters the reconstruction moved into its target's
        # bias group
        shift = bias_group_shift(x, bias_labels, heads.n_bias_classes)
    se = se_loss(model, x, w.gamma, w.delta, shift=shift, shift_weight=w.lam)

    l_ce_key = l_ce_query = l_conf_key = l_conf_query = float("nan")
    l_inv = None
    acc = float("nan")
    g_key_out, g_query_out = se.grad_key_out, se.grad_query_out
    g_key, g_query, g_scalars = _segments(state.opt_main.grads,
                                          model.key_net, model.query_net)
    cf = None
    if bias_labels is not None:
        b = np.asarray(bias_labels)
        if b.shape[0] != x.shape[0]:
            raise ShapeError("batch and bias labels are misaligned")
        p_key, cache_g = bias_posterior(heads.g, se.key_out)
        p_query, cache_gp = bias_posterior(heads.g_prime, se.query_out)
        l_ce_key = cross_entropy_loss(p_key, b)
        l_ce_query = cross_entropy_loss(p_query, b)
        l_conf_key = entropy_confusion_loss(p_key)
        l_conf_query = entropy_confusion_loss(p_query)
        acc = 0.5 * (head_accuracy(p_key, b) + head_accuracy(p_query, b))

        # All gradients are taken before any parameter moves. The heads
        # learn from the cross-entropy alone; of the confusion passes only
        # the gradients at the embeddings are used.
        g_g, g_gp, _ = _segments(state.opt_bias.grads, heads.g, heads.g_prime)
        _, ce_into_u = mlp_backward(heads.g, cache_g,
                                    cross_entropy_grad_logits(p_key, b), g_g)
        _, ce_into_v = mlp_backward(heads.g_prime, cache_gp,
                                    cross_entropy_grad_logits(p_query, b), g_gp)
        if w.lam > 0:
            _, conf_into_u = mlp_backward(heads.g, cache_g,
                                          entropy_confusion_grad_logits(p_key),
                                          param_grads=False)
            _, conf_into_v = mlp_backward(heads.g_prime, cache_gp,
                                          entropy_confusion_grad_logits(p_query),
                                          param_grads=False)
            l_inv, (u_cf, cache_u_cf), (v_cf, cache_v_cf) = counterfactual_invariance(
                model, x, b, se.key_out, se.query_out, heads.n_bias_classes)
            inv_u, inv_u_cf = invariance_grads(se.key_out, u_cf)
            inv_v, inv_v_cf = invariance_grads(se.query_out, v_cf)
            # reversal: the embeddings climb the heads' cross-entropy
            g_key_out = (g_key_out + w.lam * conf_into_u
                         - w.lam * w.mu * ce_into_u + w.lam * inv_u)
            g_query_out = (g_query_out + w.lam * conf_into_v
                           - w.lam * w.mu * ce_into_v + w.lam * inv_v)
            cf = ((cache_u_cf, w.lam * inv_u_cf), (cache_v_cf, w.lam * inv_v_cf))

    # one backward pass per net on the combined embedding gradient, plus the
    # counterfactual pass added on top when lam > 0
    mlp_backward(model.key_net, se.key_cache, g_key_out, g_key)
    mlp_backward(model.query_net, se.query_cache, g_query_out, g_query)
    if cf is not None:
        mlp_backward(model.key_net, *cf[0], g_key, add=True)
        mlp_backward(model.query_net, *cf[1], g_query, add=True)
    g_scalars[0] = se.grad_beta_raw
    if model.alpha_learnable:
        g_scalars[1] = se.grad_alpha

    total_report = se.loss
    if bias_labels is not None:
        total_report = (se.loss + w.lam * (l_conf_key + l_conf_query)
                        + w.mu * (l_ce_key + l_ce_query))
    if l_inv is not None:
        total_report += w.lam * (se.l_align + l_inv)
    report = {
        "l_se": se.loss, "l_recon": se.recon, "l_reg": se.reg,
        "l_ce_key": l_ce_key, "l_ce_query": l_ce_query,
        "l_conf_key": l_conf_key, "l_conf_query": l_conf_query,
        "bias_head_acc": acc, "total_report": total_report,
        "batch_size": x.shape[0], "beta": model.beta, "alpha": float(model.alpha),
    }
    if l_inv is not None:
        report["l_align"] = se.l_align
        report["l_inv"] = l_inv
    if not np.isfinite(total_report) or abs(total_report) > DIVERGENCE_LIMIT:
        raise TrainingDiverged(
            f"loss diverged (total_report={total_report!r})", report=report)

    # heads first, then the feature nets, all from the same forward caches
    if bias_labels is not None:
        adam_step(state.opt_bias, (state.opt_bias.params,), (state.opt_bias.grads,))
    adam_step(state.opt_main, (state.opt_main.params,), (state.opt_main.grads,))
    return state, report


def epoch_batches(n: int, batch_size: int, seed: int, epoch: int):
    """Deterministic batch index lists: a permutation that is a pure
    function of (seed, epoch), cut into consecutive chunks. A trailing
    chunk of one sample is dropped (no peers to reconstruct from)."""
    perm = make_rng(seed, "shuffle", epoch).permutation(n)
    out = []
    for start in range(0, n, batch_size):
        idx = perm[start:start + batch_size]
        if idx.size >= 2:
            out.append(idx)
    return out


def _run_epochs(state: TrainState, x: np.ndarray, b, until_epoch: int) -> TrainState:
    cfg = state.config
    warm_weights = None
    if cfg.bias_warmup_epochs > 0 and cfg.weights.lam > 0:
        # let the classifiers converge before the reversal kicks in
        warm_weights = LossWeights(gamma=cfg.weights.gamma,
                                   delta=cfg.weights.delta, lam=0.0,
                                   mu=cfg.weights.mu)
    for epoch in range(state.epoch + 1, until_epoch + 1):
        weights = cfg.weights
        if warm_weights is not None and epoch <= cfg.bias_warmup_epochs:
            weights = warm_weights
        sums = {}
        n_seen = 0
        for idx in epoch_batches(x.shape[0], cfg.batch_size, cfg.seed, epoch):
            bb = b[idx] if b is not None else None
            try:
                _, rep = train_step(state, x[idx], bb, weights)
            except NumericsError as exc:
                raise TrainingDiverged(f"epoch {epoch}: {exc}",
                                       report={"epoch": epoch}) from exc
            k = rep["batch_size"]
            n_seen += k
            for key, val in rep.items():
                if key == "batch_size":
                    continue
                sums[key] = sums.get(key, 0.0) + k * val
        record = {"epoch": epoch}
        for key, val in sums.items():
            record[key] = val / n_seen
        state.history.append(record)
        state.epoch = epoch
    return state


def fit(config: TrainConfig, dataset: Dataset) -> TrainState:
    """Train from scratch on a dataset (features are unit-normalized per
    sample on entry). Returns the final state."""
    if dataset.n < 2:
        # before init_state, which sizes the nets by the width alone
        raise ConfigError(f"training needs at least two samples, got {dataset.n}")
    x = normalize_rows(dataset.X)
    b = dataset.b
    if config.weights.lam > 0 and b is None:
        raise ConfigError("training with lam > 0 requires bias labels")
    if b is not None:
        b = np.asarray(b, dtype=int)
        if b.shape[0] != x.shape[0]:
            raise ConfigError("bias labels and samples are misaligned")
        if b.size and (b.min() < 0 or b.max() >= config.n_bias_classes):
            raise ConfigError(
                f"bias labels must lie in [0, {config.n_bias_classes})")
    state = init_state(config, x.shape[1])
    return _run_epochs(state, x, b, config.epochs)


def resume(state: TrainState, dataset: Dataset, epochs: int | None = None) -> TrainState:
    """Continue a run (e.g. one restored by load_checkpoint) up to `epochs`
    total. Because shuffling is a pure function of (seed, epoch), a resumed
    run retraces an uninterrupted one exactly."""
    until = state.config.epochs if epochs is None else epochs
    x = normalize_rows(dataset.X)
    b = np.asarray(dataset.b, dtype=int) if dataset.b is not None else None
    if state.config.weights.lam > 0 and b is None:
        raise ConfigError("training with lam > 0 requires bias labels")
    return _run_epochs(state, x, b, until)


# ---------------------------------------------------------------------------
# Checkpoints: magic + JSON manifest + packed little-endian float64 arrays
# ---------------------------------------------------------------------------

def _state_arrays(state: TrainState):
    """Every array of the state, named, in checkpoint order: each
    optimizer's parameters and moments. The nets, beta_raw and a learnable
    alpha are views of the parameter vectors; a fixed alpha comes from the
    config."""
    return [(f"{tag}.{part}", getattr(opt, part))
            for tag, opt in (("opt_main", state.opt_main), ("opt_bias", state.opt_bias))
            for part in ("params", "m", "v")]


def save_checkpoint(state: TrainState, path: str) -> None:
    """Write the full training state; the round trip is bit exact.

    The manifest holds what init_state needs to rebuild the state (the
    config and the input width), the epoch, the two Adam step counts, the
    history and the index of the packed arrays, in _state_arrays order.
    """
    named = _state_arrays(state)
    manifest = {
        "version": CHECKPOINT_VERSION,
        "in_dim": state.model.in_dim,
        "epoch": state.epoch,
        "config": asdict(state.config),
        "t": {"opt_main": state.opt_main.t, "opt_bias": state.opt_bias.t},
        "history": state.history,
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in named],
    }
    blob = json.dumps(manifest).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                       for _, arr in named)
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(payload)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> TrainState:
    """Restore a TrainState saved by save_checkpoint; CheckpointError if malformed."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not an invsen checkpoint (bad magic)")
    try:
        blob_len = int.from_bytes(raw[8:16], "little")
        manifest = json.loads(raw[16:16 + blob_len].decode("utf-8"))
        return _restore_state(manifest, raw, 16 + blob_len, path)
    except CheckpointError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise CheckpointError(f"{path}: corrupt manifest ({exc!r})") from exc


def _restore_state(manifest: dict, raw: bytes, offset: int, path: str) -> TrainState:
    """Check the payload length against the layout the config builds, then
    rebuild the state from its config and fill its arrays in place."""
    if manifest.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {manifest.get('version')!r}")
    cfg_dict = dict(manifest["config"])
    cfg_dict["weights"] = LossWeights(**cfg_dict["weights"])
    cfg_dict["hidden"] = tuple(cfg_dict["hidden"])
    cfg_dict["bias_hidden"] = tuple(cfg_dict["bias_hidden"])
    config = TrainConfig(**cfg_dict)
    in_dim = manifest["in_dim"]
    count = 3 * sum(_layout(config, in_dim))
    have = len(raw) - offset
    if count <= 0:
        raise CheckpointError(
            f"{path}: its config builds no arrays (a layout of {count} values)")
    if 8 * count != have:
        kind = "truncated array payload" if 8 * count > have else "trailing bytes"
        raise CheckpointError(
            f"{path}: {kind}: the layout its config builds holds {count} values, "
            f"the payload {have} bytes")
    state = init_state(config, in_dim)

    named = _state_arrays(state)
    index = [(entry["name"], tuple(entry["shape"])) for entry in manifest["arrays"]]
    layout = [(name, arr.shape) for name, arr in named]
    if index != layout:
        raise CheckpointError(
            f"{path}: the array index does not match the layout its config builds")
    for _, arr in named:
        arr[...] = np.frombuffer(raw, "<f8", arr.size, offset).reshape(arr.shape)
        offset += 8 * arr.size
    state.opt_main.t = manifest["t"]["opt_main"]
    state.opt_bias.t = manifest["t"]["opt_bias"]
    state.epoch = manifest["epoch"]
    state.history = manifest["history"]
    return state
