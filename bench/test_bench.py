"""Tests of the benchmark harness itself.

The smoke runs use tiny sizes on the same code path as a real run. They
check that every metric declared in BENCHMARK.json is emitted with its unit
and direction, and that the tracer puts back every name it rebinds.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from invsen import datagen, trainer  # noqa: E402
from invsen.debias import LossWeights  # noqa: E402
from tracer import Tracer, layer_metrics, traced_functions  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [line for line in lines if line.split(" ", 1)[0] == m["name"]]
        assert len(printed) == 1 and printed[0].endswith(f"({m['better']} is better)")
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def tiny_dataset():
    cfg = datagen.DataGenConfig(k_subspaces=2, ambient_dim=10, subspace_rank=2,
                                n_per_cluster=6, bias_strength=1.0, seed=0)
    return datagen.generate(cfg)


def test_tracer_rebinds_and_restores_every_binding():
    functions = traced_functions()
    originals = {id(fn): fn for fn in functions.values()}
    before = {(name, attr): value
              for name, mod in list(sys.modules.items())
              if isinstance(getattr(mod, "__dict__", None), dict)
              for attr, value in list(vars(mod).items())
              if id(value) in originals and originals[id(value)] is value}
    # the binding that patching numkit alone would miss
    assert before[("invsen.trainer", "mlp_backward")] is functions["numkit.mlp_backward"]

    cfg = trainer.TrainConfig(epochs=1, batch_size=12, hidden=(8,), embed_dim=4,
                              bias_hidden=(4,), weights=LossWeights(gamma=50.0, lam=1.0))
    with Tracer() as tracer:
        for (name, attr), original in before.items():
            assert getattr(sys.modules[name], attr) is not original, (name, attr)
        trainer.fit(cfg, tiny_dataset())
    for (name, attr), original in before.items():
        assert getattr(sys.modules[name], attr) is original, (name, attr)

    m = layer_metrics(tracer.spans)
    # with lam > 0 a step backpropagates through both heads twice (cross
    # entropy, confusion) and through both feature nets twice (se_loss, then
    # the combined gradient): 8 calls, bound in sennet and trainer
    assert m["numkit.mlp_backward.calls_per_step"] == 8
    assert m["numkit.adam_step.arrays_per_call"] > 0


def test_epochwise_fit_matches_single_fit(tmp_path):
    # evaluating between epochs must not touch the training state
    w = workloads.TrainDebias(seed=5, sizes=workloads.SMOKE, workdir=str(tmp_path))
    w.setup()
    fitted = w.timed_fit(w.config, w.train, w.evaluate_test)
    assert len(w.samples["eval_s"]) == w.config.epochs // w.sizes.eval_every
    trainer.save_checkpoint(fitted, str(tmp_path / "a"))
    trainer.save_checkpoint(trainer.fit(w.config, w.train), str(tmp_path / "b"))
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_cli_train_timed_epochwise_matches_plain_train(tmp_path):
    # the pipeline times `invsen train` epoch by epoch; the checkpoint must
    # be the one a plain `invsen train` writes
    w = workloads.CliRoundtrip(seed=5, sizes=workloads.SMOKE, workdir=str(tmp_path))
    w.setup()
    w.op(0)
    assert len(w.samples["epoch_s"]) == w.sizes.cli_epochs
    pipeline = tmp_path / "cli" / "pipeline"
    workloads.run_cli("train", "--data", str(pipeline / "data" / "train.csv"),
                      "--epochs", str(w.sizes.cli_epochs), "--seed", w.data_seed(0),
                      "--out", str(tmp_path / "plain"))
    assert ((pipeline / "model" / "checkpoint.invsen").read_bytes()
            == (tmp_path / "plain" / "checkpoint.invsen").read_bytes())
