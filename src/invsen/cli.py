"""Command-line interface: gen-data, train, evaluate, report.

Exit codes: 0 success, 1 I/O or runtime failure (a malformed dataset,
checkpoint or metrics file included), 2 usage/config error (an evaluate
split whose feature width differs from the checkpoint's included), 3
training divergence. `train` writes history.csv with one row per epoch.
BLAS threads are set the standard way, by OPENBLAS_NUM_THREADS (or
OMP_NUM_THREADS) before the process starts. Each subcommand's options
are declared once, in its option table (GEN_OPTIONS, TRAIN_OPTIONS,
EVAL_OPTIONS): the table makes the flags and reads the flat JSON config file
(--config), whose keys are the flag names with underscores (`lam` for
--lambda); flags given on the command line win. Values are read exactly: a
real option takes a number, an integer option an integral number, `mode`
and `label` a string, and an on/off switch true, false, 0 or 1 (0|1 on the
command line). All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import cluster, datagen, trainer
from .debias import LossWeights
from .errors import ConfigError, DataFormatError, InvsenError, TrainingDiverged
from .evalmetrics import METRIC_FIELDS, discrete_mi, evaluate_labels


# ---------------------------------------------------------------------------
# config-file merging
# ---------------------------------------------------------------------------

def _load_config_file(path, known_keys):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise DataFormatError(f"invalid JSON ({exc})", path=path)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config file must hold a JSON object")
    for key in cfg:
        if key not in known_keys:
            raise ConfigError(f"{path}: unknown config key {key!r}")
    return cfg


def _number(value):
    """A JSON number as it is; a boolean or a string (even "2e2") is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    return value


def _real(value) -> float:
    """A real option's value: any number."""
    return float(_number(value))


def _integer(value) -> int:
    """An integer option's value: an int, or an integral float such as 2.0.
    A boolean, a string or a fractional number is refused."""
    if isinstance(_number(value), float) and not value.is_integer():
        raise ValueError("expected an integral number")
    return int(value)


def _string(value) -> str:
    """A string option's value: a string, never a number read as one."""
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _switch(value) -> bool:
    """An on/off option's value: true, false, 0 or 1."""
    if isinstance(value, bool):
        return value
    if _integer(value) not in (0, 1):
        raise ValueError("expected true, false, 0 or 1")
    return bool(value)


def _merge(args, options):
    """Resolve option values (explicit flag > config file > default) and
    convert each with its option's converter. options maps a key to
    (converter, default); an option whose default is None and that nothing
    sets stays None. A value that does not convert is a ConfigError that
    names the option."""
    path = getattr(args, "config", None)
    cfg = _load_config_file(path, set(options)) if path else {}
    out = {}
    for key, (convert, default) in options.items():
        value = getattr(args, key, None)
        if value is None:
            value = cfg.get(key, default)
        if value is not None or default is not None:
            try:
                value = convert(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"option {key!r}: cannot read {value!r} ({exc})") from exc
        out[key] = value
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

GEN_OPTIONS = {
    "k": (_integer, 3), "d": (_integer, 30), "rank": (_integer, 4),
    "n_per": (_integer, 200),
    "sigma": (_real, 0.01), "bias_strength": (_real, 0.0), "e": (_real, 0.1),
    "test_e": (_real, 0.5), "mode": (_string, "ood"),
    "mixed_ratio": (_real, 0.5), "seed": (_integer, 0),
}


def cmd_gen_data(args) -> int:
    opts = _merge(args, GEN_OPTIONS)
    config = datagen.DataGenConfig(
        k_subspaces=opts["k"], ambient_dim=opts["d"], subspace_rank=opts["rank"],
        n_per_cluster=opts["n_per"], noise_sigma=opts["sigma"],
        bias_strength=opts["bias_strength"], bias_flip_e=opts["e"], seed=opts["seed"])
    # each mode's datasets, keyed by the name of the CSV file each is saved to
    modes = {
        "ood": lambda: datagen.make_ood_split(config, train_e=opts["e"], test_e=opts["test_e"]),
        "plain": lambda: {"data": datagen.generate(config)},
        "mixed": lambda: {"mixed": datagen.make_mixed_domain(
            config, e_biased=opts["e"], n_ratio=opts["mixed_ratio"])},
    }
    mode = opts["mode"]
    if mode not in modes:
        raise ConfigError(f"unknown mode {mode!r} ({' | '.join(modes)})")
    os.makedirs(args.out, exist_ok=True)
    summary = {"mode": mode, "k": config.k_subspaces, "d": config.ambient_dim,
               "splits": {}}
    for name, ds in modes[mode]().items():
        path = os.path.join(args.out, f"{name}.csv")
        datagen.save_dataset(ds, path)
        summary["splits"][name] = {"path": path, "n": ds.n,
                                   "mi_bias_cluster": discrete_mi(ds.b, ds.s)}
    print(json.dumps(summary))
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _widths(value) -> tuple:
    """Layer widths from "64,32", a list, or one number (one layer)."""
    if isinstance(value, str):
        return tuple(int(v) for v in value.split(",") if v.strip())
    if isinstance(value, (list, tuple)):
        return tuple(_integer(v) for v in value)
    return (_integer(value),)


TRAIN_OPTIONS = {
    "epochs": (_integer, 200), "batch_size": (_integer, 128),
    "lr_main": (_real, 1e-3),
    "lr_bias": (_real, 1e-4), "gamma": (_real, 200.0), "delta": (_real, 0.9),
    "lam": (_real, 0.0), "mu": (_real, 1.0), "seed": (_integer, 0),
    "widths": (_widths, "64,64,64"),
    "embed_dim": (_integer, 64),
    "bias_widths": (_widths, "64,32,16"),
    "bias_batchnorm": (_switch, 1), "bias_warmup": (_integer, 0),
    "n_bias_classes": (_integer, 2),
}


def history_csv_text(history) -> str:
    """One row per epoch, the fields of trainer.HISTORY_FIELDS."""
    fields = trainer.HISTORY_FIELDS
    lines = [",".join(fields)]
    lines += [",".join(_fmt(rec.get(k)) for k in fields) for rec in history]
    return "\n".join(lines) + "\n"


def cmd_train(args) -> int:
    opts = _merge(args, TRAIN_OPTIONS)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    dataset = datagen.load_dataset(args.data)
    config = trainer.TrainConfig(
        epochs=opts["epochs"], batch_size=opts["batch_size"],
        lr_main=opts["lr_main"], lr_bias=opts["lr_bias"],
        weights=LossWeights(gamma=opts["gamma"], delta=opts["delta"],
                            lam=opts["lam"], mu=opts["mu"]),
        seed=opts["seed"],
        hidden=opts["widths"], embed_dim=opts["embed_dim"],
        bias_hidden=opts["bias_widths"], bias_batchnorm=opts["bias_batchnorm"],
        bias_warmup_epochs=opts["bias_warmup"], n_bias_classes=opts["n_bias_classes"])

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
                       history_csv_text(state.history))
    print(json.dumps({"checkpoint": ckpt, "epochs": state.epoch,
                      "final_l_se": state.history[-1]["l_se"] if state.history else None}))
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

EVAL_OPTIONS = {
    "k": (_integer, None), "restarts": (_integer, 10),
    "max_iter": (_integer, 100),
    "seed": (_integer, 0), "label": (_string, None),
}


def cmd_evaluate(args) -> int:
    opts = _merge(args, EVAL_OPTIONS)
    if opts["k"] is None:
        raise ConfigError("--k (number of clusters) is required")
    state = trainer.load_checkpoint(args.checkpoint)
    label = opts["label"] or os.path.splitext(os.path.basename(args.checkpoint))[0]
    cfg = cluster.SpectralConfig(
        k=opts["k"], kmeans_restarts=opts["restarts"],
        kmeans_max_iter=opts["max_iter"], seed=opts["seed"])
    # every input is checked before anything is written
    datasets = [datagen.load_dataset(path) for path in args.data]
    names = [ds.name for ds in datasets]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"--data: two files give the split name {name!r} "
                              "(a split is named by its file name without extension)")
    for ds in datasets:
        if ds.d != state.model.in_dim:
            raise ConfigError(f"--data: split {ds.name!r} has {ds.d} features, the "
                              f"checkpoint's model takes {state.model.in_dim}")
    smallest = min(datasets, key=lambda ds: ds.n)
    if cfg.k > smallest.n:
        raise ConfigError(f"--k {cfg.k} exceeds the {smallest.n} samples of split "
                          f"{smallest.name!r}")
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)

    splits = {}
    csv_lines = [",".join(("split", *METRIC_FIELDS))]
    for ds in datasets:
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
            csv_lines.append(",".join([ds.name, *(_fmt(entry[k]) for k in METRIC_FIELDS)]))
        else:
            entry = {k: None for k in METRIC_FIELDS}
            entry["n"] = ds.n
        splits[ds.name] = entry

    payload = {
        "label": label,
        "splits": splits,
        "meta": {"checkpoint": args.checkpoint, "created_unix": int(time.time()),
                 "k": opts["k"], "seed": opts["seed"]},
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
    """A metrics.json as `invsen evaluate` writes it: an optional string
    label, and splits that map each name to an object whose metric fields
    are numbers or null. Anything else is a DataFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or not isinstance(data.get("splits"), dict):
            raise ValueError("missing 'splits' object")
        if not isinstance(data.get("label", ""), str):
            raise ValueError("'label' is not a string")
        for split, entry in data["splits"].items():
            if not isinstance(entry, dict):
                raise ValueError(f"split {split!r} is not an object")
            for key in METRIC_FIELDS:
                if entry.get(key) is not None:
                    _real(entry[key])
    except (OSError, ValueError, TypeError, OverflowError) as exc:
        raise DataFormatError(f"unreadable metrics file ({exc})", path=path)
    return data


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

# The argparse type of the flag of an option with this converter; the
# converter then reads the flag's value as it reads a config file's.
_FLAG_TYPES = {_integer: int, _real: float, _switch: int}


def build_parser() -> argparse.ArgumentParser:
    """One flag per option-table entry, --<key with dashes> (--lambda for
    lam), plus each subcommand's fixed arguments."""
    p = argparse.ArgumentParser(prog="invsen",
                                description="Bias-invariant self-expressive "
                                            "subspace clustering toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    parsers = {}
    for name, func, options, help_text in (
            ("gen-data", cmd_gen_data, GEN_OPTIONS, "generate synthetic biased datasets"),
            ("train", cmd_train, TRAIN_OPTIONS, "train a model on a dataset file"),
            ("evaluate", cmd_evaluate, EVAL_OPTIONS, "cluster with a checkpoint, emit metrics"),
            ("report", cmd_report, None, "aggregate metrics.json files into a table")):
        s = parsers[name] = sub.add_parser(name, help=help_text)
        s.set_defaults(func=func)
        if options is not None:
            s.add_argument("--config", help="flat JSON config file")
        for key, (convert, default) in (options or {}).items():
            s.add_argument("--lambda" if key == "lam" else "--" + key.replace("_", "-"),
                           dest=key, type=_FLAG_TYPES.get(convert, str),
                           choices=(0, 1) if convert is _switch else None,
                           help=None if default is None else f"default: {default}")
        s.add_argument("--out", required=options is not None)
    parsers["train"].add_argument("--data", required=True)
    e = parsers["evaluate"]
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", nargs="+", required=True)
    e.add_argument("--dump-affinity", action="store_true",
                   help="also write each split's affinity as affinity_<split>.npy")
    parsers["report"].add_argument("inputs", nargs="+")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvsenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
