"""Command-line interface: gen-data, train, evaluate, report.

Exit codes: 0 success, 1 I/O or runtime failure, 2 usage/config error,
3 training divergence. Every option can also come from a flat JSON config
file (--config) whose keys mirror the flag names with underscores; flags
given on the command line win. All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_THREAD_LIMITER = None


def _apply_thread_cap() -> None:
    """Honor INVSEN_THREADS (best effort, via threadpoolctl when present)."""
    global _THREAD_LIMITER
    cap = os.environ.get("INVSEN_THREADS")
    if not cap:
        return
    try:
        n = max(1, int(cap))
    except ValueError:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(n))
    try:
        import threadpoolctl
        _THREAD_LIMITER = threadpoolctl.threadpool_limits(limits=n)
    except ImportError:
        pass


# ---------------------------------------------------------------------------
# config-file merging
# ---------------------------------------------------------------------------

def _load_config_file(path, known_keys):
    from .errors import ConfigError, DataFormatError
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"invalid JSON ({exc})", path=path)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config file must hold a JSON object")
    for key in cfg:
        if key not in known_keys:
            raise ConfigError(f"{path}: unknown config key {key!r}")
    return cfg


def _merge(args, defaults, config_path_attr="config"):
    """Resolve option values: explicit flag > config file > default."""
    cfg = {}
    path = getattr(args, config_path_attr, None)
    if path:
        cfg = _load_config_file(path, set(defaults))
    out = {}
    for key, default in defaults.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            out[key] = flag_val
        elif key in cfg:
            out[key] = cfg[key]
        else:
            out[key] = default
    return out


def _write_text_atomic(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

GEN_DEFAULTS = {
    "k": 3, "d": 30, "rank": 4, "n_per": 200, "sigma": 0.01,
    "bias_strength": 0.0, "e": 0.1, "test_e": 0.5, "label_flip": 0.0,
    "mode": "ood", "mixed_ratio": 0.5, "seed": 0,
}


def cmd_gen_data(args) -> int:
    from . import datagen
    from .evalmetrics import discrete_mi

    opts = _merge(args, GEN_DEFAULTS)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    config = datagen.DataGenConfig(
        k_subspaces=int(opts["k"]), ambient_dim=int(opts["d"]),
        subspace_rank=int(opts["rank"]), n_per_cluster=int(opts["n_per"]),
        noise_sigma=float(opts["sigma"]), bias_strength=float(opts["bias_strength"]),
        bias_flip_e=float(opts["e"]), label_flip=float(opts["label_flip"]),
        seed=int(opts["seed"]))

    mode = opts["mode"]
    if mode == "ood":
        splits = datagen.make_ood_split(config, train_e=float(opts["e"]),
                                        test_e=float(opts["test_e"]))
        files = {name: os.path.join(out_dir, f"{name}.csv")
                 for name in ("train", "test")}
        for name, ds in splits.items():
            datagen.save_dataset(ds, files[name])
        datasets = splits
    elif mode == "plain":
        ds = datagen.generate(config)
        files = {"data": os.path.join(out_dir, "data.csv")}
        datagen.save_dataset(ds, files["data"])
        datasets = {"data": ds}
    elif mode == "mixed":
        ds = datagen.make_mixed_domain(config, e_biased=float(opts["e"]),
                                       n_ratio=float(opts["mixed_ratio"]))
        files = {"mixed": os.path.join(out_dir, "mixed.csv")}
        datagen.save_dataset(ds, files["mixed"])
        datasets = {"mixed": ds}
    else:
        from .errors import ConfigError
        raise ConfigError(f"unknown mode {mode!r} (ood | plain | mixed)")

    summary = {"mode": mode, "k": config.k_subspaces, "d": config.ambient_dim,
               "splits": {}}
    for name, ds in datasets.items():
        summary["splits"][name] = {
            "path": files[name], "n": ds.n,
            "mi_bias_cluster": discrete_mi(ds.b, ds.s),
        }
    print(json.dumps(summary))
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

TRAIN_DEFAULTS = {
    "epochs": 200, "batch_size": 128, "lr_main": 1e-3, "lr_bias": 1e-4,
    "gamma": 200.0, "delta": 0.9, "lam": 0.0, "mu": 1.0, "seed": 0,
    "eval_every": 1, "widths": "64,64,64", "embed_dim": 64,
    "bias_widths": "64,32,16", "bias_batchnorm": 1, "bias_warmup": 0,
    "n_bias_classes": 2, "alpha": 1.0,
    "alpha_learnable": False, "beta0": 0.005,
}


def _parse_widths(value) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    return tuple(int(v) for v in str(value).split(",") if v.strip())


def history_csv_text(history, eval_every, final_epoch) -> str:
    from .trainer import HISTORY_FIELDS
    lines = [",".join(HISTORY_FIELDS)]
    for rec in history:
        epoch = rec["epoch"]
        if epoch % eval_every == 0 or epoch == final_epoch:
            lines.append(",".join(_fmt(rec.get(k)) for k in HISTORY_FIELDS))
    return "\n".join(lines) + "\n"


def cmd_train(args) -> int:
    from . import datagen, trainer
    from .debias import LossWeights
    from .errors import TrainingDiverged

    opts = _merge(args, TRAIN_DEFAULTS)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    dataset = datagen.load_dataset(args.data)
    config = trainer.TrainConfig(
        epochs=int(opts["epochs"]), batch_size=int(opts["batch_size"]),
        lr_main=float(opts["lr_main"]), lr_bias=float(opts["lr_bias"]),
        weights=LossWeights(gamma=float(opts["gamma"]), delta=float(opts["delta"]),
                            lam=float(opts["lam"]), mu=float(opts["mu"])),
        seed=int(opts["seed"]), eval_every=int(opts["eval_every"]),
        hidden=_parse_widths(opts["widths"]), embed_dim=int(opts["embed_dim"]),
        bias_hidden=_parse_widths(opts["bias_widths"]),
        bias_batchnorm=bool(int(opts["bias_batchnorm"])),
        bias_warmup_epochs=int(opts["bias_warmup"]),
        n_bias_classes=int(opts["n_bias_classes"]), alpha=float(opts["alpha"]),
        alpha_learnable=bool(opts["alpha_learnable"]), beta0=float(opts["beta0"]))

    try:
        state = trainer.fit(config, dataset)
    except TrainingDiverged as exc:
        dump = os.path.join(out_dir, "divergence.json")
        report = {k: (None if isinstance(v, float) and v != v else v)
                  for k, v in exc.report.items()}
        _write_text_atomic(dump, json.dumps({"error": str(exc), "report": report}))
        print(f"training diverged; diagnostics at {dump}", file=sys.stderr)
        return 3

    ckpt = os.path.join(out_dir, "checkpoint.invsen")
    trainer.save_checkpoint(state, ckpt)
    _write_text_atomic(os.path.join(out_dir, "history.csv"),
                       history_csv_text(state.history, config.eval_every,
                                        config.epochs))
    print(json.dumps({"checkpoint": ckpt, "epochs": state.epoch,
                      "final_l_se": state.history[-1]["l_se"] if state.history else None}))
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

EVAL_DEFAULTS = {
    "k": None, "restarts": 10, "max_iter": 100, "seed": 0, "label": None,
}


def cmd_evaluate(args) -> int:
    import numpy as np

    from . import cluster, datagen, trainer
    from .errors import ConfigError
    from .evalmetrics import METRIC_FIELDS, MetricsReport, evaluate_labels

    opts = _merge(args, EVAL_DEFAULTS)
    if opts["k"] is None:
        raise ConfigError("--k (number of clusters) is required")
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    state = trainer.load_checkpoint(args.checkpoint)
    label = opts["label"] or os.path.splitext(os.path.basename(args.checkpoint))[0]
    cfg = cluster.SpectralConfig(
        k=int(opts["k"]), kmeans_restarts=int(opts["restarts"]),
        kmeans_max_iter=int(opts["max_iter"]), seed=int(opts["seed"]))

    splits = {}
    csv_lines = ["split," + MetricsReport.csv_header()]
    for path in args.data:
        ds = datagen.load_dataset(path)
        affinity = cluster.build_affinity(state.model, ds.X)
        pred = cluster.spectral_cluster(affinity, cfg)
        if args.dump_affinity:
            # through a handle: np.save appends .npy to a bare *.tmp path
            dump = os.path.join(out_dir, f"affinity_{ds.name}.npy")
            with open(dump + ".tmp", "wb") as fh:
                np.save(fh, affinity)
            os.replace(dump + ".tmp", dump)
        _write_text_atomic(
            os.path.join(out_dir, f"labels_{ds.name}.csv"),
            "\n".join(str(int(v)) for v in pred.labels) + "\n")
        if ds.s is not None:
            rep = evaluate_labels(pred.labels, ds.s, ds.b)
            entry = rep.to_dict()
            csv_lines.append(f"{ds.name}," + rep.csv_row())
        else:
            entry = {k: None for k in METRIC_FIELDS}
            entry["n"] = ds.n
        splits[ds.name] = entry

    payload = {
        "label": label,
        "splits": splits,
        "meta": {"checkpoint": args.checkpoint, "created_unix": int(time.time()),
                 "k": int(opts["k"]), "seed": int(opts["seed"])},
    }
    _write_text_atomic(os.path.join(out_dir, "metrics.json"),
                       json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _write_text_atomic(os.path.join(out_dir, "metrics.csv"),
                       "\n".join(csv_lines) + "\n")
    print(json.dumps({"label": label, "splits": {
        name: {k: entry[k] for k in ("acc", "nmi", "ari")}
        for name, entry in splits.items()}}))
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _load_metrics_file(path):
    from .errors import DataFormatError
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or "splits" not in data:
            raise ValueError("missing 'splits' object")
        return data
    except (OSError, ValueError) as exc:
        raise DataFormatError(f"unreadable metrics file ({exc})", path=path)


def _pct(v) -> str:
    return "" if v is None else f"{100.0 * v:.2f}"


def cmd_report(args) -> int:
    rows = []
    for path in sorted(args.inputs):
        data = _load_metrics_file(path)
        label = data.get("label", os.path.basename(path))
        for split in sorted(data["splits"]):
            entry = data["splits"][split]
            rows.append({
                "source": label, "split": split, "n": entry.get("n"),
                "acc": _pct(entry.get("acc")), "nmi": _pct(entry.get("nmi")),
                "ari": _pct(entry.get("ari")),
                "mi_pred_bias": _fmt(entry.get("mi_pred_bias")),
                "mi_true_bias": _fmt(entry.get("mi_true_bias")),
            })

    columns = ("source", "split", "n", "acc", "nmi", "ari",
               "mi_pred_bias", "mi_true_bias")
    csv_text = ",".join(columns) + "\n"
    for row in rows:
        csv_text += ",".join(_fmt(row[c]) for c in columns) + "\n"

    widths = {c: max(len(c), *(len(_fmt(r[c])) for r in rows)) if rows else len(c)
              for c in columns}
    txt_lines = ["  ".join(c.ljust(widths[c]) for c in columns)]
    for row in rows:
        txt_lines.append("  ".join(_fmt(row[c]).ljust(widths[c]) for c in columns))
    table = "\n".join(txt_lines) + "\n"

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_text_atomic(os.path.join(args.out, "report.csv"), csv_text)
        _write_text_atomic(os.path.join(args.out, "report.txt"), table)
    sys.stdout.write(table)
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="invsen",
                                description="Bias-invariant self-expressive "
                                            "subspace clustering toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate synthetic biased datasets")
    g.add_argument("--config", help="flat JSON config file")
    g.add_argument("--k", type=int)
    g.add_argument("--d", type=int)
    g.add_argument("--rank", type=int)
    g.add_argument("--n-per", dest="n_per", type=int)
    g.add_argument("--sigma", type=float)
    g.add_argument("--bias-strength", dest="bias_strength", type=float)
    g.add_argument("--e", type=float, help="bias flip rate of the biased split")
    g.add_argument("--test-e", dest="test_e", type=float)
    g.add_argument("--label-flip", dest="label_flip", type=float)
    g.add_argument("--mode", choices=("ood", "plain", "mixed"))
    g.add_argument("--mixed-ratio", dest="mixed_ratio", type=float)
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model on a dataset file")
    t.add_argument("--config", help="flat JSON config file")
    t.add_argument("--data", required=True)
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", dest="batch_size", type=int)
    t.add_argument("--lr-main", dest="lr_main", type=float)
    t.add_argument("--lr-bias", dest="lr_bias", type=float)
    t.add_argument("--gamma", type=float)
    t.add_argument("--delta", type=float)
    t.add_argument("--lambda", dest="lam", type=float)
    t.add_argument("--mu", type=float)
    t.add_argument("--seed", type=int)
    t.add_argument("--eval-every", dest="eval_every", type=int)
    t.add_argument("--widths")
    t.add_argument("--embed-dim", dest="embed_dim", type=int)
    t.add_argument("--bias-widths", dest="bias_widths")
    t.add_argument("--bias-batchnorm", dest="bias_batchnorm", type=int,
                   choices=(0, 1))
    t.add_argument("--bias-warmup", dest="bias_warmup", type=int)
    t.add_argument("--n-bias-classes", dest="n_bias_classes", type=int)
    t.add_argument("--alpha", type=float)
    t.add_argument("--alpha-learnable", dest="alpha_learnable",
                   action="store_const", const=True)
    t.add_argument("--beta0", type=float)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("evaluate", help="cluster with a checkpoint, emit metrics")
    e.add_argument("--config", help="flat JSON config file")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", nargs="+", required=True)
    e.add_argument("--k", type=int)
    e.add_argument("--restarts", type=int)
    e.add_argument("--max-iter", dest="max_iter", type=int)
    e.add_argument("--seed", type=int)
    e.add_argument("--label", help="label used in report tables")
    e.add_argument("--dump-affinity", action="store_true",
                   help="also write each split's affinity as affinity_<split>.npy")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_evaluate)

    r = sub.add_parser("report", help="aggregate metrics.json files into a table")
    r.add_argument("inputs", nargs="+")
    r.add_argument("--out")
    r.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    _apply_thread_cap()
    from .errors import (ConfigError, DataFormatError, InvsenError,
                         TrainingDiverged)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvsenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
