"""Training loop: two Adam optimizers (feature nets vs bias heads), gradient
reversal routing, deterministic minibatching, and versioned checkpoints.

Every step runs one forward pass of the batch through both nets, then one
pass per side of the game (key net vs head g, query net vs head g'): it
sums every term's gradient at the side's embedding and backpropagates the
sum once through the net (with lam > 0, also the invariance gradient of
the bias-swapped counterfactual batch). With lam > 0, the step estimates
the bias groups' means once (debias.bias_group_offsets), for both the
aligned shift and the counterfactual batch. The terms:

* the heads minimize cross-entropy on the bias labels (their gradients
  never reach the feature nets);
* the key/query nets and beta minimize the self-expression loss plus
  lam * entropy-confusion, and additionally receive the cross-entropy
  gradient through the embeddings negated and scaled by lam * mu (the
  reversal), so they learn to make the heads fail;
* with lam > 0 the key/query nets and beta also minimize lam * l_align
  (sennet.se_loss with the shift of bias_group_offsets): the change in
  reconstruction cost when each contributor is first moved into its
  target's bias group. At lam = 1 the reconstruction term is wholly the
  aligned one, which no longer rewards following the bias;
* the key/query nets also minimize lam * the invariance loss between the
  embeddings of the batch and those of its counterfactual
  (debias.invariance_loss, key plus query). Its gradient reaches each net
  through the forward passes of both. Unlike the head terms, neither of
  these two vanishes when a head saturates.

The coefficient scale alpha is fixed at 1 and beta starts at
sennet.DEFAULT_BETA0. Heads are updated first, then the feature nets, both
from the same forward passes. With lam = 0 the feature updates are
bit-for-bit those of a plain self-expressive network; the heads keep
training on the side.

Each optimizer owns one flat vector each for the parameters, the
gradients and the two Adam moments. init_state builds the nets as views of
the parameter vectors; a step writes every parameter gradient straight
into the gradient vectors (the counterfactual pass adds to them) and runs
one fused update per optimizer.

A checkpoint stores the config and the input width, from which
init_state rebuilds the state, and the six vectors of _state_arrays: each
optimizer's parameters, m and v. _layout gives the segments of the two
parameter vectors from the config alone: init_state sizes the vectors by
it, train_step cuts the gradient vectors by it, and a checkpoint is
checked against its payload length before anything is allocated.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import numkit
from .datagen import Dataset
from .debias import (
    BiasHeads,
    LossWeights,
    bias_group_offsets,
    bias_posterior,
    cross_entropy_loss,
    entropy_confusion_loss,
    head_accuracy,
    head_vector_layout,
    init_bias_heads,
    invariance_loss,
)
from .errors import CheckpointError, ConfigError, NumericsError, ShapeError, TrainingDiverged, check_integers
from .numkit import (
    AdamState,
    adam_init,
    adam_step,
    make_rng,
    mlp_backward,
    mlp_forward,
    normalize_rows,
)
from .sennet import SEModel, init_se_model, se_loss, se_vector_layout

CHECKPOINT_MAGIC = b"INVSEN01"
CHECKPOINT_VERSION = 6
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
    # architecture (key/query hidden widths, embedding dim, head widths)
    hidden: tuple = (64, 64, 64)
    embed_dim: int = 64
    bias_hidden: tuple = (64, 32, 16)
    bias_batchnorm: bool = True
    bias_warmup_epochs: int = 0
    n_bias_classes: int = 2

    def __post_init__(self):
        check_integers(self, ("epochs", "batch_size", "seed", "embed_dim",
                              "bias_warmup_epochs", "n_bias_classes"),
                       lists=("hidden", "bias_hidden"))
        if self.epochs < 0 or self.bias_warmup_epochs < 0:
            raise ConfigError("epochs and bias_warmup_epochs must be >= 0")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (self-expression needs peers)")
        if not (0 < self.lr_main < np.inf and 0 < self.lr_bias < np.inf):
            raise ConfigError("learning rates must be positive and finite")
        self.hidden = tuple(int(h) for h in self.hidden)
        self.bias_hidden = tuple(int(h) for h in self.bias_hidden)
        if min((self.embed_dim, *self.hidden, *self.bias_hidden)) < 1:
            raise ConfigError("embed_dim and every hidden and bias_hidden width must be >= 1")


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
    n_main, n_bias = (numkit.flat_size(layout) for layout in _layout(config, in_dim))
    opt_main = adam_init(np.empty(n_main), config.lr_main)
    opt_bias = adam_init(np.empty(n_bias), config.lr_bias)
    rng = make_rng(config.seed, "init")
    model = init_se_model(in_dim, hidden=config.hidden, embed_dim=config.embed_dim,
                          rng=rng, out=opt_main.params)
    heads = init_bias_heads(config.embed_dim, hidden=config.bias_hidden,
                            n_bias_classes=config.n_bias_classes,
                            batchnorm=config.bias_batchnorm, rng=rng,
                            out=opt_bias.params)
    return TrainState(config=config, model=model, heads=heads,
                      opt_main=opt_main, opt_bias=opt_bias, epoch=0,
                      history=[])


def _layout(config: TrainConfig, in_dim: int):
    """(main, bias): the segment shapes of the two parameter vectors of
    init_state(config, in_dim), as se_vector_layout and head_vector_layout
    give them. Integer arithmetic over the config; nothing is allocated."""
    return (se_vector_layout(in_dim, config.hidden, config.embed_dim, alpha_learnable=False),
            head_vector_layout(config.embed_dim, config.bias_hidden,
                               config.n_bias_classes, config.bias_batchnorm))


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
    b = None if bias_labels is None else np.asarray(bias_labels)
    if b is None and w.lam > 0:
        raise ConfigError("bias labels are required when lam > 0")
    if b is not None and b.shape[0] != x.shape[0]:
        raise ShapeError("batch and bias labels are misaligned")

    shift = x_cf = None
    if w.lam > 0:
        # contributors enter the reconstruction moved into their target's bias
        # group; the counterfactual batch moves every sample into the next one
        shift, x_cf = bias_group_offsets(x, b, heads.n_bias_classes)
    se = se_loss(model, x, w.gamma, w.delta, shift=shift, shift_weight=w.lam)

    main_layout, bias_layout = _layout(state.config, model.in_dim)
    g_key, g_query, g_beta = numkit.flat_views(state.opt_main.grads, main_layout)
    g_heads = numkit.flat_views(state.opt_bias.grads, bias_layout)
    ce, conf, acc, inv = [], [], [], []
    # one pass per side of the game: (net, head, embedding, forward cache,
    # se_loss's gradient at the embedding, the net's and the head's gradients)
    for net, head, emb, cache, g_emb, g_net, g_head in zip(
            (model.key_net, model.query_net), (heads.g, heads.g_prime),
            (se.key_out, se.query_out), (se.key_cache, se.query_cache),
            (se.grad_key_out, se.grad_query_out), (g_key, g_query), g_heads):
        cf = None
        if b is not None:
            p, h_cache = bias_posterior(head, emb)
            l_ce, ce_logits = cross_entropy_loss(p, b)
            l_conf, conf_logits = entropy_confusion_loss(p)
            ce.append(l_ce)
            conf.append(l_conf)
            acc.append(head_accuracy(p, b))
            # every gradient precedes every update; the head learns from the
            # cross-entropy alone; the confusion pass is used at the embedding only
            _, ce_in = mlp_backward(head, h_cache, ce_logits, g_head)
            if w.lam > 0:
                _, conf_in = mlp_backward(head, h_cache, conf_logits, param_grads=False)
                emb_cf, cache_cf = mlp_forward(net, x_cf)
                l_inv_side, inv_in, inv_cf = invariance_loss(emb, emb_cf)
                inv.append(l_inv_side)
                # reversal: the embedding climbs the head's cross-entropy
                g_emb = g_emb + w.lam * conf_in - w.lam * w.mu * ce_in + w.lam * inv_in
                cf = (cache_cf, w.lam * inv_cf)
        # one backward pass of the summed gradient, then the counterfactual's
        mlp_backward(net, cache, g_emb, g_net)
        if cf is not None:
            mlp_backward(net, *cf, g_net, add=True)
    g_beta[...] = se.grad_beta_raw

    total_report = se.loss
    if b is None:
        ce = conf = acc = [float("nan")] * 2
    else:
        total_report = se.loss + w.lam * (conf[0] + conf[1]) + w.mu * (ce[0] + ce[1])
    if inv:
        l_inv = inv[0] + inv[1]
        total_report += w.lam * (se.l_align + l_inv)
    report = {
        "l_se": se.loss, "l_recon": se.recon, "l_reg": se.reg,
        "l_ce_key": ce[0], "l_ce_query": ce[1],
        "l_conf_key": conf[0], "l_conf_query": conf[1],
        "bias_head_acc": 0.5 * (acc[0] + acc[1]), "total_report": total_report,
        "batch_size": x.shape[0], "beta": model.beta, "alpha": float(model.alpha),
    }
    if inv:
        report.update(l_align=se.l_align, l_inv=l_inv)
    if not np.isfinite(total_report) or abs(total_report) > DIVERGENCE_LIMIT:
        raise TrainingDiverged(
            f"loss diverged (total_report={total_report!r})", report=report)

    # heads first, then the feature nets, all from the same forward caches
    if b is not None:
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
    # let the classifiers converge before the reversal kicks in
    warm_weights = replace(cfg.weights, lam=0.0)
    for epoch in range(state.epoch + 1, until_epoch + 1):
        weights = warm_weights if epoch <= cfg.bias_warmup_epochs else cfg.weights
        sums = {}
        n_seen = 0
        for idx in epoch_batches(x.shape[0], cfg.batch_size, cfg.seed, epoch):
            bb = b[idx] if b is not None else None
            try:
                _, rep = train_step(state, x[idx], bb, weights)
            except NumericsError as exc:
                raise TrainingDiverged(f"epoch {epoch}: {exc}",
                                       report={"epoch": epoch}) from exc
            n_batch = rep.pop("batch_size")
            n_seen += n_batch
            for key, val in rep.items():
                sums[key] = sums.get(key, 0.0) + n_batch * val
        state.history.append({"epoch": epoch, **{k: v / n_seen for k, v in sums.items()}})
        state.epoch = epoch
    return state


def _training_data(config: TrainConfig, dataset: Dataset):
    """(x, b): the dataset's rows scaled to unit norm and its bias labels as
    ints (None without labels), once the dataset passes the checks that fit
    and resume share."""
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
    return x, b


def fit(config: TrainConfig, dataset: Dataset) -> TrainState:
    """Train from scratch on a dataset (features are unit-normalized per
    sample on entry). Returns the final state."""
    x, b = _training_data(config, dataset)
    state = init_state(config, x.shape[1])
    return _run_epochs(state, x, b, config.epochs)


def resume(state: TrainState, dataset: Dataset, epochs: int | None = None) -> TrainState:
    """Continue a run (e.g. one restored by load_checkpoint) up to `epochs`
    total, on a dataset that passes fit's checks. Because shuffling is a
    pure function of (seed, epoch), a resumed run retraces an uninterrupted
    one exactly."""
    until = state.config.epochs if epochs is None else epochs
    x, b = _training_data(state.config, dataset)
    return _run_epochs(state, x, b, until)


# ---------------------------------------------------------------------------
# Checkpoints: magic + JSON manifest + packed little-endian float64 arrays
# ---------------------------------------------------------------------------

def _state_arrays(state: TrainState):
    """Every array of the state, named, in checkpoint order: each
    optimizer's parameters and moments. The nets and beta_raw are views of
    the parameter vectors; alpha is fixed at 1."""
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
    config = TrainConfig(**cfg_dict)
    in_dim = manifest["in_dim"]
    count = 3 * sum(numkit.flat_size(layout) for layout in _layout(config, in_dim))
    have = len(raw) - offset
    if count <= 0:
        raise CheckpointError(
            f"{path}: its config builds no arrays (a layout of {count} values)")
    if 8 * count != have:
        kind = "truncated array payload" if 8 * count > have else "trailing bytes"
        raise CheckpointError(
            f"{path}: {kind}: the layout its config builds holds {count} values, "
            f"the payload {have} bytes")
    counts = (manifest["t"]["opt_main"], manifest["t"]["opt_bias"], manifest["epoch"])
    if not all(type(c) is int and c >= 0 for c in counts):
        raise CheckpointError(f"{path}: the epoch and step counts must be integers >= 0")
    history = manifest["history"]
    if not (type(history) is list and all(type(r) is dict for r in history)):
        raise CheckpointError(f"{path}: the history must be a list of objects")
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
    state.opt_main.t, state.opt_bias.t, state.epoch = counts
    state.history = history
    return state
