"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in ``setup``, runs
one operation per ``op`` call and checks every output it produces; a wrong
output raises ``CheckFailed``. Timings go into ``samples``, quality figures
into ``quality``. Calls go through module attributes (``trainer.fit``, not a
name imported from ``trainer``) so that the tracer sees them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import shutil
import time
from collections import defaultdict

import numpy as np

from invsen import cli, cluster, datagen, evalmetrics, trainer
from invsen.debias import LossWeights
from invsen.errors import InvsenError

K = 3
GEOMETRY = dict(k_subspaces=K, ambient_dim=30, subspace_rank=4, noise_sigma=0.01)


class CheckFailed(Exception):
    """An output of the program is wrong."""


class CliFailure(Exception):
    """A CLI subcommand exited with a non-zero code."""


# What counts as a failed operation; anything else aborts the run.
FAILURES = (InvsenError, CliFailure)


@dataclasses.dataclass(frozen=True)
class Sizes:
    n_per: int          # samples per cluster in each training split
    epochs: int         # train-debias: epochs per fit
    warmup: int         # train-debias: warm-up epochs with the adversary off
    eval_every: int     # train-debias: epochs between evaluations of the test split
    large_n_per: int    # cluster-large: samples per cluster in each draw
    large_epochs: int   # cluster-large: epochs of the short fit
    cli_epochs: int     # cli-roundtrip: `train --epochs`


FULL = Sizes(n_per=200, epochs=300, warmup=100, eval_every=30,
             large_n_per=1000, large_epochs=40, cli_epochs=10)
# Same code path at tiny sizes, for the harness's own test.
SMOKE = Sizes(n_per=12, epochs=3, warmup=1, eval_every=1,
              large_n_per=20, large_epochs=2, cli_epochs=2)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_history(history) -> None:
    for record in history:
        for key, value in record.items():
            check(np.isfinite(value), f"epoch {record['epoch']}: {key} = {value!r}")


def check_labels(labels, n: int) -> None:
    labels = np.asarray(labels)
    check(labels.shape == (n,), f"labels have shape {labels.shape}, expected ({n},)")
    check(labels.min() >= 0 and labels.max() < K, f"labels outside [0, {K})")


def check_report(report: dict) -> None:
    # ARI is below 0 for a clustering worse than chance, as at smoke sizes
    for key, low in (("acc", 0.0), ("nmi", 0.0), ("ari", -1.0)):
        check(low <= report[key] <= 1.0, f"{key} = {report[key]!r} is outside [{low}, 1]")
    mi = report["mi_pred_bias"]
    check(mi is not None and np.isfinite(mi) and mi >= 0.0, f"mi_pred_bias = {mi!r}")


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def checkpoint_round_trip(path: str) -> bytes:
    """Check that load -> save reproduces the checkpoint file bit for bit."""
    first = read_bytes(path)
    trainer.save_checkpoint(trainer.load_checkpoint(path), path + ".again")
    check(read_bytes(path + ".again") == first,
          f"{path}: checkpoint save -> load -> save is not bit-exact")
    return first


def dataset_round_trip(ds, path: str) -> None:
    """Check that save -> load gives back the same arrays."""
    datagen.save_dataset(ds, path)
    back = datagen.load_dataset(path)
    for field in ("X", "s", "b"):
        check(np.array_equal(getattr(back, field), getattr(ds, field)),
              f"{path}: dataset save -> load changed {field}")


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(hashlib.sha256(chunk).digest())
    return h.hexdigest()


def labels_bytes(labels) -> bytes:
    return np.asarray(labels, dtype="<i8").tobytes()


def dataset_bytes(*datasets) -> bytes:
    return b"".join(np.asarray(a, dtype="<f8").tobytes()
                    for ds in datasets for a in (ds.X, ds.s, ds.b))


def cluster_split(model, ds, seed: int):
    """Affinity, spectral clustering and metrics for one split, timed."""
    t0 = time.perf_counter()
    affinity = cluster.build_affinity(model, ds.X)
    pred = cluster.spectral_cluster(affinity, cluster.SpectralConfig(k=K, seed=seed))
    report = evalmetrics.evaluate_labels(pred.labels, ds.s, ds.b).to_dict()
    return pred.labels, report, time.perf_counter() - t0


def run_cli(*argv: str) -> None:
    """`invsen <argv>` in this process, its output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its arguments
            code = exc.code
    if code:
        raise CliFailure(f"invsen {argv[0]} exited {code}: {out.getvalue()[-400:]}")


def samples_per_epoch(n: int, batch_size: int) -> int:
    """Samples one epoch trains on: a trailing batch of one is dropped."""
    return n - 1 if n % batch_size == 1 else n


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    # True when every operation of a run gets the same inputs, so every
    # operation must give the same output digest.
    same_inputs = False

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed, self.sizes, self.workdir = seed, sizes, workdir
        os.makedirs(workdir, exist_ok=True)
        self.samples = defaultdict(list)
        self.quality: list[dict] = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def timed_fit(self, config, dataset, after_epoch=None, fit=None):
        """Fit epoch by epoch, timing each epoch from outside, and call
        `after_epoch(state)` between epochs. Gives the same checkpoint bytes
        as one `trainer.fit(config, dataset)`; `fit` stands in for
        `trainer.fit` while that name is rebound to this method."""
        state = (fit or trainer.fit)(dataclasses.replace(config, epochs=0), dataset)
        state.config = config
        per_epoch = samples_per_epoch(dataset.n, config.batch_size)
        for epoch in range(1, config.epochs + 1):
            t0 = time.perf_counter()
            trainer.resume(state, dataset, epochs=epoch)
            self.samples["epoch_s"].append(time.perf_counter() - t0)
            self.samples["epoch_samples"].append(per_epoch)
            if after_epoch is not None:
                after_epoch(state)
        check_history(state.history)
        return state

    def setup(self) -> str:
        """Build the inputs; returns their digest."""
        raise NotImplementedError

    def op(self, index: int) -> str:
        """Run operation `index`; returns the digest of its outputs."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks made once per run, after the timed operations."""

    def check_cli_agrees(self, gen_flags, train_flags) -> None:
        """The CLI must reproduce the library bit for bit on this workload's
        data: the training CSV, a 2-epoch checkpoint and its labels."""
        d = self.path("cli-check")
        shutil.rmtree(d, ignore_errors=True)
        seed = str(self.seed)
        csv = os.path.join(d, "data", "train.csv")
        ckpt = os.path.join(d, "model", "checkpoint.invsen")
        state = trainer.fit(dataclasses.replace(self.config, epochs=2), self.train)
        labels, _, _ = cluster_split(state.model, self.train, self.seed)
        try:
            run_cli("gen-data", "--mode", "ood", *gen_flags, "--seed", seed,
                    "--out", os.path.dirname(csv))
            run_cli("train", "--data", csv, "--epochs", "2", *train_flags,
                    "--seed", seed, "--out", os.path.dirname(ckpt))
            run_cli("evaluate", "--checkpoint", ckpt, "--data", csv, "--k", str(K),
                    "--seed", seed, "--out", os.path.join(d, "eval"))
            run_cli("report", os.path.join(d, "eval", "metrics.json"))
        except CliFailure as exc:
            raise CheckFailed(str(exc)) from exc
        datagen.save_dataset(self.train, os.path.join(d, "library.csv"))
        check(read_bytes(csv) == read_bytes(os.path.join(d, "library.csv")),
              "`invsen gen-data` and the library wrote different data")
        trainer.save_checkpoint(state, os.path.join(d, "library.invsen"))
        check(read_bytes(ckpt) == read_bytes(os.path.join(d, "library.invsen")),
              "`invsen train` and the library wrote different checkpoints")
        cli_labels = read_bytes(os.path.join(d, "eval", "labels_train.csv")).split()
        check(np.array_equal(np.array(cli_labels, dtype=int), labels),
              "`invsen evaluate` and the library gave different labels")


class TrainDebias(Workload):
    """The bias-mitigation fixture trained from scratch; its OOD test split
    is clustered every `eval_every` epochs, the last time after the final
    epoch."""

    name = "train-debias"
    same_inputs = True

    def setup(self) -> str:
        z = self.sizes
        geo = datagen.DataGenConfig(n_per_cluster=z.n_per, bias_strength=2.5,
                                    bias_flip_e=0.25, seed=self.seed, **GEOMETRY)
        self.train = datagen.generate(geo, "train")
        self.test = datagen.generate(dataclasses.replace(geo, bias_flip_e=0.5), "test")
        self.config = trainer.TrainConfig(
            epochs=z.epochs, batch_size=64, seed=self.seed, lr_bias=1e-3,
            bias_batchnorm=False, bias_warmup_epochs=z.warmup,
            weights=LossWeights(gamma=50.0, delta=0.9, lam=1.0, mu=1.0))
        return digest(dataset_bytes(self.train, self.test))

    def evaluate_test(self, state) -> None:
        """Cluster the test split every `eval_every` epochs, counted back
        from the final one. Spread over the fit, the evaluations sample the
        whole run rather than one burst of a few seconds."""
        if (state.config.epochs - state.epoch) % self.sizes.eval_every == 0:
            labels, report, eval_s = cluster_split(state.model, self.test, self.seed)
            check_labels(labels, self.test.n)
            check_report(report)
            self.samples["eval_s"].append(eval_s)
            self.last_eval = labels, report

    def op(self, index: int) -> str:
        t0 = time.perf_counter()
        state = self.timed_fit(self.config, self.train, self.evaluate_test)
        self.samples["pipeline_s"].append(time.perf_counter() - t0)
        labels, report = self.last_eval
        self.quality.append(report)
        path = self.path("train-debias.invsen")
        trainer.save_checkpoint(state, path)
        return digest(checkpoint_round_trip(path), labels_bytes(labels))

    def finish(self) -> None:
        dataset_round_trip(self.test, self.path("test.csv"))
        z = self.sizes
        self.check_cli_agrees(
            ["--n-per", str(z.n_per), "--bias-strength", "2.5", "--e", "0.25", "--test-e", "0.5"],
            ["--batch-size", "64", "--lr-bias", "1e-3", "--gamma", "50", "--delta", "0.9",
             "--lambda", "1", "--mu", "1", "--bias-batchnorm", "0",
             "--bias-warmup", str(z.warmup)])


class ClusterLarge(Workload):
    """Spectral clustering of fresh n = 3000 draws. Each operation first
    refits the same short model (40 epochs on 600 samples, a fifth of the
    operation) so that its training figures are spread over the whole run
    rather than taken in one burst at set-up. The data carry no bias
    displacement: a short fit on the biased fixture still clusters by bias
    (ACC near chance), which would leave the quality guard nothing to guard."""

    name = "cluster-large"

    def setup(self) -> str:
        z = self.sizes
        geo = datagen.DataGenConfig(n_per_cluster=z.n_per, bias_flip_e=0.5,
                                    seed=self.seed, **GEOMETRY)
        self.train = datagen.generate(geo, "train")
        self.draw_config = dataclasses.replace(geo, n_per_cluster=z.large_n_per)
        self.config = trainer.TrainConfig(epochs=z.large_epochs, batch_size=128,
                                          seed=self.seed,
                                          weights=LossWeights(gamma=50.0, delta=0.9))
        return digest(dataset_bytes(self.train))

    def op(self, index: int) -> str:
        t0 = time.perf_counter()
        state = self.timed_fit(self.config, self.train)
        self.draw = datagen.generate(self.draw_config, f"draw-{index}")
        labels, report, eval_s = cluster_split(state.model, self.draw, self.seed)
        self.samples["pipeline_s"].append(time.perf_counter() - t0)
        self.samples["eval_s"].append(eval_s)
        check_labels(labels, self.draw.n)
        check_report(report)
        self.quality.append(report)
        path = self.path("cluster-large.invsen")
        trainer.save_checkpoint(state, path)
        return digest(checkpoint_round_trip(path), labels_bytes(labels))

    def finish(self) -> None:
        dataset_round_trip(self.draw, self.path("draw.csv"))
        self.check_cli_agrees(
            ["--n-per", str(self.sizes.n_per), "--bias-strength", "0", "--e", "0.5",
             "--test-e", "0.5"],
            ["--batch-size", "128", "--gamma", "50", "--delta", "0.9"])


class CliRoundtrip(Workload):
    """In-process `invsen` pipelines: gen-data, train, evaluate, report, each
    on a fresh data seed drawn from the workload seed."""

    name = "cli-roundtrip"

    def setup(self) -> str:
        self.root = self.path("cli")
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        return digest(b"")

    def data_seed(self, index: int) -> str:
        return str(int(np.random.SeedSequence([self.seed, index]).generate_state(1)[0]))

    def op(self, index: int) -> str:
        z = self.sizes
        data_seed = self.data_seed(index)
        d = os.path.join(self.root, "pipeline")
        shutil.rmtree(d, ignore_errors=True)
        data, model, evald = (os.path.join(d, sub) for sub in ("data", "model", "eval"))
        train_csv, test_csv = os.path.join(data, "train.csv"), os.path.join(data, "test.csv")
        ckpt = os.path.join(model, "checkpoint.invsen")

        t0 = time.perf_counter()
        run_cli("gen-data", "--mode", "ood", "--n-per", str(z.n_per),
                 "--seed", data_seed, "--out", data)
        t1 = time.perf_counter()
        # `invsen train` calls `trainer.fit`; run it epoch by epoch so that
        # the epoch figures leave out the CSV, checkpoint and history I/O.
        fit, epochs_before = trainer.fit, len(self.samples["epoch_s"])
        trainer.fit = lambda config, dataset: self.timed_fit(config, dataset, fit=fit)
        try:
            run_cli("train", "--data", train_csv, "--epochs", str(z.cli_epochs),
                    "--seed", data_seed, "--out", model)
        finally:
            trainer.fit = fit
        check(len(self.samples["epoch_s"]) - epochs_before == z.cli_epochs,
              "`invsen train` did not run its epochs through trainer.fit")
        t2 = time.perf_counter()
        run_cli("evaluate", "--checkpoint", ckpt, "--data", train_csv, test_csv,
                 "--k", str(K), "--seed", data_seed, "--out", evald)
        t3 = time.perf_counter()
        run_cli("report", os.path.join(evald, "metrics.json"),
                 "--out", os.path.join(d, "report"))
        t4 = time.perf_counter()

        n = K * z.n_per
        self.samples["eval_s"].append(t3 - t2)
        self.samples["pipeline_s"].append(t4 - t0)

        with open(os.path.join(model, "history.csv"), encoding="utf-8") as fh:
            header, *rows = fh.read().split()
        column = header.split(",").index("l_se")
        check(len(rows) == z.cli_epochs and all(
            np.isfinite(float(r.split(",")[column])) for r in rows),
            "history.csv: missing or non-finite l_se")
        labels = []
        for split in ("train", "test"):
            raw = read_bytes(os.path.join(evald, f"labels_{split}.csv"))
            check_labels(np.array(raw.split(), dtype=int), n)
            labels.append(raw)
        with open(os.path.join(evald, "metrics.json"), encoding="utf-8") as fh:
            splits = json.load(fh)["splits"]
        for split in ("train", "test"):
            check_report(splits[split])
        self.quality.append(splits["test"])
        again = os.path.join(d, "train-again.csv")
        datagen.save_dataset(datagen.load_dataset(train_csv), again)
        check(read_bytes(again) == read_bytes(train_csv),
              "dataset load -> save is not bit-exact")
        return digest(checkpoint_round_trip(ckpt), *labels)


WORKLOADS = {w.name: w for w in (TrainDebias, ClusterLarge, CliRoundtrip)}
