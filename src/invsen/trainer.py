"""Training loop: two Adam optimizers (feature nets vs bias heads), gradient
reversal routing, deterministic minibatching, and versioned checkpoints.

Every step runs one forward pass of the batch (with lam > 0, also one of
its bias-swapped counterfactual) and routes gradients from the caches:

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
    head_parameter_arrays,
    init_bias_heads,
    invariance_grads,
)
from .errors import CheckpointError, ConfigError, ShapeError, TrainingDiverged
from .numkit import (
    AdamState,
    adam_init,
    adam_step,
    make_rng,
    mlp_backward,
    normalize_rows,
)
from .sennet import SEModel, init_se_model, se_gradient_arrays, se_loss, se_parameter_arrays

CHECKPOINT_MAGIC = b"INVSEN01"
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
    checkpoint_path: str | None = None
    # architecture (key/query hidden widths, embedding dim, head widths)
    hidden: tuple = (64, 64, 64)
    embed_dim: int = 64
    bias_hidden: tuple = (64, 32, 16)
    bias_batchnorm: bool = True
    bias_warmup_epochs: int = 0
    n_bias_classes: int = 2
    alpha: float = 1.0
    alpha_learnable: bool = False
    swap_roles: bool = False
    beta0: float = 0.005

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (self-expression needs peers)")
        if self.lr_main <= 0 or self.lr_bias <= 0:
            raise ConfigError("learning rates must be positive")
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
    rng: np.random.Generator


def init_state(config: TrainConfig, in_dim: int) -> TrainState:
    """Fresh model, heads, and optimizers. RNG consumption is fixed (key
    net, query net, head g, head g') so trajectories only depend on the
    seed, never on which loss terms are active."""
    rng = make_rng(config.seed, "init")
    model = init_se_model(
        in_dim, hidden=config.hidden, embed_dim=config.embed_dim,
        beta0=config.beta0, alpha=config.alpha,
        alpha_learnable=config.alpha_learnable, swap_roles=config.swap_roles,
        rng=rng)
    heads = init_bias_heads(config.embed_dim, hidden=config.bias_hidden,
                            n_bias_classes=config.n_bias_classes,
                            batchnorm=config.bias_batchnorm, rng=rng)
    opt_main = adam_init(se_parameter_arrays(model), config.lr_main)
    opt_bias = adam_init(head_parameter_arrays(heads), config.lr_bias)
    return TrainState(config=config, model=model, heads=heads,
                      opt_main=opt_main, opt_bias=opt_bias, epoch=0,
                      history=[], rng=make_rng(config.seed, "stream"))


def train_step(state: TrainState, batch: np.ndarray, bias_labels,
               weights: LossWeights | None = None):
    """One min-max step on a batch; returns (state, report).

    bias_labels may be None only when lam = 0; the heads then sit idle and
    the bias-side report fields are NaN.
    """
    w = weights if weights is not None else state.config.weights
    model, heads = state.model, state.heads
    x = np.asarray(batch, dtype=float)
    if bias_labels is None and w.lam > 0:
        raise ConfigError("bias labels are required when lam > 0")

    shift = None
    if w.lam > 0:
        # each contributor enters the reconstruction moved into its target's
        # bias group; the nets are backpropagated below, once per forward pass
        shift = bias_group_shift(x, bias_labels, heads.n_bias_classes)
    se = se_loss(model, x, w.gamma, w.delta, mode="train", backward=w.lam == 0,
                 shift=shift, shift_weight=w.lam)

    l_ce_key = l_ce_query = l_conf_key = l_conf_query = float("nan")
    l_inv = None
    acc = float("nan")
    head_grads = None
    grad_key, grad_query = se.grad_key, se.grad_query
    if bias_labels is not None:
        b = np.asarray(bias_labels)
        if b.shape[0] != x.shape[0]:
            raise ShapeError("batch and bias labels are misaligned")
        p_key, cache_g = bias_posterior(heads.g, se.key_out, "train")
        p_query, cache_gp = bias_posterior(heads.g_prime, se.query_out, "train")
        l_ce_key = cross_entropy_loss(p_key, b)
        l_ce_query = cross_entropy_loss(p_query, b)
        l_conf_key = entropy_confusion_loss(p_key)
        l_conf_query = entropy_confusion_loss(p_query)
        acc = 0.5 * (head_accuracy(p_key, b) + head_accuracy(p_query, b))

        # All gradients are taken before any parameter moves.
        g_grads, ce_into_u = mlp_backward(heads.g, cache_g,
                                          cross_entropy_grad_logits(p_key, b))
        gp_grads, ce_into_v = mlp_backward(heads.g_prime, cache_gp,
                                           cross_entropy_grad_logits(p_query, b))
        head_grads = (numkit.mlp_grad_arrays(g_grads)
                      + numkit.mlp_grad_arrays(gp_grads))
        if w.lam > 0:
            _, conf_into_u = mlp_backward(heads.g, cache_g,
                                          entropy_confusion_grad_logits(p_key))
            _, conf_into_v = mlp_backward(heads.g_prime, cache_gp,
                                          entropy_confusion_grad_logits(p_query))
            l_inv, (u_cf, cache_u_cf), (v_cf, cache_v_cf) = counterfactual_invariance(
                model, x, b, se.key_out, se.query_out, heads.n_bias_classes)
            inv_u, inv_u_cf = invariance_grads(se.key_out, u_cf)
            inv_v, inv_v_cf = invariance_grads(se.query_out, v_cf)
            # reversal: the embeddings climb the heads' cross-entropy
            g_key_out = (se.grad_key_out + w.lam * conf_into_u
                         - w.lam * w.mu * ce_into_u + w.lam * inv_u)
            g_query_out = (se.grad_query_out + w.lam * conf_into_v
                           - w.lam * w.mu * ce_into_v + w.lam * inv_v)
            grad_key = _add_grads(
                mlp_backward(model.key_net, se.key_cache, g_key_out)[0],
                mlp_backward(model.key_net, cache_u_cf, w.lam * inv_u_cf)[0])
            grad_query = _add_grads(
                mlp_backward(model.query_net, se.query_cache, g_query_out)[0],
                mlp_backward(model.query_net, cache_v_cf, w.lam * inv_v_cf)[0])

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
    if head_grads is not None:
        adam_step(state.opt_bias, head_parameter_arrays(heads), head_grads)
    adam_step(state.opt_main, se_parameter_arrays(model),
              se_gradient_arrays(model, grad_key, grad_query,
                                 se.grad_beta_raw, se.grad_alpha))
    return state, report


def _add_grads(a, b):
    """Sum of two per-layer gradient lists of the same network."""
    return [{k: ga[k] + gb[k] for k in ga} for ga, gb in zip(a, b)]


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
            _, rep = train_step(state, x[idx], bb, weights)
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
    sample on entry). Returns the final state; writes a checkpoint to
    config.checkpoint_path if one is set."""
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
    state = _run_epochs(state, x, b, config.epochs)
    if config.checkpoint_path:
        save_checkpoint(state, config.checkpoint_path)
    return state


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

def _net_spec(net) -> dict:
    return {
        "dims": [net.layers[0].w.shape[0]] + [lay.w.shape[1] for lay in net.layers],
        "activations": [lay.activation for lay in net.layers],
        "batchnorm": [lay.batchnorm is not None for lay in net.layers],
        "bn_momentum": [lay.batchnorm.momentum if lay.batchnorm else None
                        for lay in net.layers],
        "bn_eps": [lay.batchnorm.eps if lay.batchnorm else None
                   for lay in net.layers],
    }


def _net_arrays(prefix: str, net):
    out = []
    for i, lay in enumerate(net.layers):
        out.append((f"{prefix}.{i}.w", lay.w))
        out.append((f"{prefix}.{i}.b", lay.b))
        if lay.batchnorm is not None:
            bn = lay.batchnorm
            out.append((f"{prefix}.{i}.bn.scale", bn.scale))
            out.append((f"{prefix}.{i}.bn.shift", bn.shift))
            out.append((f"{prefix}.{i}.bn.running_mean", bn.running_mean))
            out.append((f"{prefix}.{i}.bn.running_var", bn.running_var))
    return out


def _state_arrays(state: TrainState):
    named = []
    named += _net_arrays("model.key_net", state.model.key_net)
    named += _net_arrays("model.query_net", state.model.query_net)
    named.append(("model.beta_raw", state.model.beta_raw))
    named.append(("model.alpha", state.model.alpha))
    named += _net_arrays("heads.g", state.heads.g)
    named += _net_arrays("heads.g_prime", state.heads.g_prime)
    for tag, opt in (("opt_main", state.opt_main), ("opt_bias", state.opt_bias)):
        for i, (m, v) in enumerate(zip(opt.m, opt.v)):
            named.append((f"{tag}.m.{i}", m))
            named.append((f"{tag}.v.{i}", v))
    return named


def save_checkpoint(state: TrainState, path: str) -> None:
    """Write the full training state; the round trip is bit exact."""
    named = _state_arrays(state)
    manifest = {
        "version": 1,
        "epoch": state.epoch,
        "config": asdict(state.config),
        "model": {
            "embed_dim": state.model.embed_dim,
            "alpha_learnable": state.model.alpha_learnable,
            "swap_roles": state.model.swap_roles,
            "key_net": _net_spec(state.model.key_net),
            "query_net": _net_spec(state.model.query_net),
        },
        "heads": {
            "n_bias_classes": state.heads.n_bias_classes,
            "g": _net_spec(state.heads.g),
            "g_prime": _net_spec(state.heads.g_prime),
        },
        "opt_main": {"lr": state.opt_main.lr, "beta1": state.opt_main.beta1,
                     "beta2": state.opt_main.beta2, "eps": state.opt_main.eps,
                     "t": state.opt_main.t},
        "opt_bias": {"lr": state.opt_bias.lr, "beta1": state.opt_bias.beta1,
                     "beta2": state.opt_bias.beta2, "eps": state.opt_bias.eps,
                     "t": state.opt_bias.t},
        "rng": numkit.rng_state(state.rng),
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


def _build_net(spec: dict):
    from .numkit import BatchNorm, DenseLayer, MlpParams
    layers = []
    dims = spec["dims"]
    for i in range(len(dims) - 1):
        bn = None
        if spec["batchnorm"][i]:
            bn = BatchNorm(scale=np.zeros(dims[i + 1]), shift=np.zeros(dims[i + 1]),
                           running_mean=np.zeros(dims[i + 1]),
                           running_var=np.zeros(dims[i + 1]),
                           momentum=spec["bn_momentum"][i], eps=spec["bn_eps"][i])
        layers.append(DenseLayer(w=np.zeros((dims[i], dims[i + 1])),
                                 b=np.zeros(dims[i + 1]),
                                 activation=spec["activations"][i], batchnorm=bn))
    return MlpParams(layers=layers)


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
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: corrupt manifest ({exc!r})") from exc


def _restore_state(manifest: dict, raw: bytes, offset: int, path: str) -> TrainState:
    if manifest.get("version") != 1:
        raise CheckpointError(f"{path}: unsupported version {manifest.get('version')!r}")
    cfg_dict = dict(manifest["config"])
    cfg_dict["weights"] = LossWeights(**cfg_dict["weights"])
    cfg_dict["hidden"] = tuple(cfg_dict["hidden"])
    cfg_dict["bias_hidden"] = tuple(cfg_dict["bias_hidden"])
    config = TrainConfig(**cfg_dict)

    arrays = {}
    for entry in manifest["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        end = offset + 8 * count
        if end > len(raw):
            raise CheckpointError(f"{path}: truncated array payload")
        arrays[entry["name"]] = np.frombuffer(raw[offset:end], dtype="<f8").reshape(shape).copy()
        offset = end
    if offset != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after array payload")

    def fill_net(prefix, spec):
        net = _build_net(spec)
        for i, lay in enumerate(net.layers):
            lay.w = arrays[f"{prefix}.{i}.w"]
            lay.b = arrays[f"{prefix}.{i}.b"]
            if lay.batchnorm is not None:
                lay.batchnorm.scale = arrays[f"{prefix}.{i}.bn.scale"]
                lay.batchnorm.shift = arrays[f"{prefix}.{i}.bn.shift"]
                lay.batchnorm.running_mean = arrays[f"{prefix}.{i}.bn.running_mean"]
                lay.batchnorm.running_var = arrays[f"{prefix}.{i}.bn.running_var"]
        return net

    model = SEModel(
        key_net=fill_net("model.key_net", manifest["model"]["key_net"]),
        query_net=fill_net("model.query_net", manifest["model"]["query_net"]),
        embed_dim=manifest["model"]["embed_dim"],
        beta_raw=arrays["model.beta_raw"].reshape(()),
        alpha=arrays["model.alpha"].reshape(()),
        alpha_learnable=manifest["model"]["alpha_learnable"],
        swap_roles=manifest["model"]["swap_roles"])
    heads = BiasHeads(g=fill_net("heads.g", manifest["heads"]["g"]),
                      g_prime=fill_net("heads.g_prime", manifest["heads"]["g_prime"]),
                      n_bias_classes=manifest["heads"]["n_bias_classes"])

    def fill_opt(tag, meta, n_params):
        return AdamState(lr=meta["lr"], beta1=meta["beta1"], beta2=meta["beta2"],
                         eps=meta["eps"], t=meta["t"],
                         m=[arrays[f"{tag}.m.{i}"] for i in range(n_params)],
                         v=[arrays[f"{tag}.v.{i}"] for i in range(n_params)])

    opt_main = fill_opt("opt_main", manifest["opt_main"],
                        len(se_parameter_arrays(model)))
    opt_bias = fill_opt("opt_bias", manifest["opt_bias"],
                        len(head_parameter_arrays(heads)))
    return TrainState(config=config, model=model, heads=heads,
                      opt_main=opt_main, opt_bias=opt_bias,
                      epoch=manifest["epoch"], history=manifest["history"],
                      rng=numkit.restore_rng(manifest["rng"]))
