import argparse
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from invsen.cli import (EVAL_OPTIONS, GEN_OPTIONS, TRAIN_OPTIONS, _integer, _merge, _real,
                         _string, _switch, _widths, build_parser, main)
from invsen import cluster
from invsen.cluster import build_affinity, normalized_laplacian, smallest_eigenvectors
from invsen.datagen import (DataGenConfig, Dataset, load_dataset, make_mixed_domain,
                            save_dataset)
from invsen.trainer import load_checkpoint


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = run_cli("gen-data", "--k", "2", "--d", "12", "--rank", "2",
                   "--n-per", "24", "--e", "0.1", "--bias-strength", "1.0",
                   "--seed", "7", "--mode", "ood", "--out", str(out))
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("run")
    code = run_cli("train", "--data", str(data_dir / "train.csv"),
                   "--epochs", "4", "--batch-size", "12",
                   "--widths", "8,6", "--embed-dim", "4",
                   "--bias-widths", "6", "--gamma", "20", "--lambda", "0.5",
                   "--seed", "3", "--out", str(out))
    assert code == 0
    return out


class TestGenData:
    def test_ood_mode_writes_two_files(self, data_dir, capsys):
        assert (data_dir / "train.csv").exists()
        assert (data_dir / "test.csv").exists()
        ds = load_dataset(str(data_dir / "train.csv"))
        assert ds.n == 48 and ds.d == 12
        assert ds.s is not None and ds.b is not None

    def test_summary_json_line(self, tmp_path, capsys):
        code = run_cli("gen-data", "--k", "2", "--d", "10", "--rank", "2",
                       "--n-per", "10", "--mode", "plain", "--seed", "1",
                       "--out", str(tmp_path))
        assert code == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["k"] == 2 and summary["d"] == 10
        assert "mi_bias_cluster" in summary["splits"]["data"]

    def test_mixed_mode_matches_library(self, tmp_path):
        code = run_cli("gen-data", "--k", "2", "--d", "10", "--rank", "2",
                       "--n-per", "20", "--bias-strength", "1.5", "--e", "0.1",
                       "--mode", "mixed", "--mixed-ratio", "0.25",
                       "--seed", "4", "--out", str(tmp_path))
        assert code == 0
        config = DataGenConfig(k_subspaces=2, ambient_dim=10, subspace_rank=2,
                               n_per_cluster=20, bias_strength=1.5, bias_flip_e=0.1,
                               seed=4)
        save_dataset(make_mixed_domain(config, e_biased=0.1, n_ratio=0.25),
                     str(tmp_path / "library.csv"))
        assert ((tmp_path / "mixed.csv").read_bytes()
                == (tmp_path / "library.csv").read_bytes())

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run_cli("gen-data", "--nonsense", "1", "--out", "x")
        assert err.value.code == 2

    def test_infeasible_config_exits_2(self, tmp_path):
        code = run_cli("gen-data", "--k", "4", "--d", "6", "--rank", "2",
                       "--n-per", "10", "--out", str(tmp_path))
        assert code == 2

    def test_no_partial_files(self, tmp_path):
        run_cli("gen-data", "--k", "2", "--d", "10", "--rank", "2",
                "--n-per", "10", "--mode", "plain", "--seed", "1",
                "--out", str(tmp_path))
        assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


class TestTrain:
    def test_outputs_exist(self, trained_dir):
        assert (trained_dir / "checkpoint.invsen").exists()
        assert (trained_dir / "history.csv").exists()
        header = (trained_dir / "history.csv").read_text().splitlines()[0]
        assert header == ("epoch,l_se,l_conf_key,l_conf_query,"
                          "l_ce_key,l_ce_query,bias_head_acc")

    def test_determinism_byte_identical(self, tmp_path, data_dir):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = run_cli("train", "--data", str(data_dir / "train.csv"),
                           "--epochs", "3", "--batch-size", "12",
                           "--widths", "8,6", "--embed-dim", "4",
                           "--bias-widths", "6", "--gamma", "20",
                           "--seed", "9", "--out", str(out))
            assert code == 0
            outs.append(out)
        h1 = (outs[0] / "history.csv").read_bytes()
        h2 = (outs[1] / "history.csv").read_bytes()
        assert h1 == h2
        c1 = (outs[0] / "checkpoint.invsen").read_bytes()
        c2 = (outs[1] / "checkpoint.invsen").read_bytes()
        assert c1 == c2

    def test_lambda_without_bias_labels_exits_2(self, tmp_path):
        run_cli("gen-data", "--k", "2", "--d", "10", "--rank", "2",
                "--n-per", "10", "--mode", "plain", "--seed", "1",
                "--out", str(tmp_path))
        # strip the bias column by rewriting the dataset
        ds = load_dataset(str(tmp_path / "data.csv"))
        ds.b = None
        from invsen.datagen import save_dataset
        save_dataset(ds, str(tmp_path / "nob.csv"))
        code = run_cli("train", "--data", str(tmp_path / "nob.csv"),
                       "--epochs", "2", "--batch-size", "8",
                       "--widths", "6", "--embed-dim", "4", "--bias-widths", "6",
                       "--lambda", "1.0", "--out", str(tmp_path / "out"))
        assert code == 2

    def test_divergence_exits_3_with_dump(self, tmp_path, data_dir):
        out = tmp_path / "div"
        code = run_cli("train", "--data", str(data_dir / "train.csv"),
                       "--epochs", "2", "--batch-size", "12",
                       "--widths", "8,6", "--embed-dim", "4",
                       "--bias-widths", "6", "--gamma", "1e8",
                       "--out", str(out))
        assert code == 3
        assert (out / "divergence.json").exists()

    def test_non_finite_step_exits_3_with_dump(self, tmp_path, capsys):
        # a NumericsError inside a step (here from adam_step or the next
        # forward pass) is a divergence, not a runtime failure
        run_cli("gen-data", "--k", "2", "--d", "10", "--rank", "2",
                "--n-per", "20", "--mode", "plain", "--seed", "1",
                "--out", str(tmp_path))
        out = tmp_path / "div"
        capsys.readouterr()
        with warnings.catch_warnings():
            # the finite check reports the failure, not a numpy RuntimeWarning
            warnings.simplefilter("error")
            code = run_cli("train", "--data", str(tmp_path / "data.csv"),
                           "--epochs", "2", "--batch-size", "8", "--widths", "6",
                           "--embed-dim", "4", "--bias-widths", "6",
                           "--lr-main", "1e308", "--out", str(out))
        assert code == 3
        dump = json.loads((out / "divergence.json").read_text())
        assert "non-finite" in dump["error"]
        assert "diverged" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, data_dir):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "epochs": 2, "batch_size": 12, "widths": "8,6", "embed_dim": 4,
            "bias_widths": "6", "gamma": 20.0, "seed": 4}))
        out = tmp_path / "out"
        code = run_cli("train", "--data", str(data_dir / "train.csv"),
                       "--config", str(cfg_path), "--epochs", "3",
                       "--out", str(out))
        assert code == 0
        rows = (out / "history.csv").read_text().strip().splitlines()
        # flag overrode the config file; one row per epoch
        assert [row.split(",")[0] for row in rows[1:]] == ["1", "2", "3"]

    def test_unknown_config_key_exits_2(self, tmp_path, data_dir):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"not_a_key": 1}))
        code = run_cli("train", "--data", str(data_dir / "train.csv"),
                       "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert code == 2


@pytest.mark.parametrize("argv, code", [
    (["train", "--data", "{data}/train.csv", "--epochs", "-1"], 2),
    (["train", "--data", "{data}/missing.csv"], 1),
    (["train", "--data", "{data}/train.csv", "--n-bias-classes", "1"], 2),
    (["gen-data", "--k", "5", "--d", "10", "--rank", "2"], 2),
], ids=["train-negative-epochs", "train-missing-data", "train-one-bias-class",
        "gen-data-infeasible"])
def test_refused_input_leaves_no_out_dir(tmp_path, data_dir, argv, code):
    out = tmp_path / "out"
    assert run_cli(*(a.format(data=data_dir) for a in argv), "--out", str(out)) == code
    assert not out.exists()


@pytest.mark.parametrize("command, cfg", [
    ("train", {"epochs": "abc"}),
    ("gen-data", {"k": "z"}),
    ("train", {"bias_batchnorm": "false"}),  # bool("false") would be True
    ("train", {"epochs": 2.7}),  # int(2.7) would train 2 epochs
    ("train", {"bias_batchnorm": 0.5}),  # bool(int(0.5)) would be False
    ("train", {"epochs": True}),
    ("evaluate", {"k": "3"}),
    ("train", {"lam": True}),  # float(True) would train at lam = 1.0
    ("train", {"gamma": "2e2"}),  # float("2e2") would read 200.0
    ("train", {"gamma": 10 ** 400}),  # float() of it overflows
    ("evaluate", {"label": 3}),  # str(3) would label the run "3"
], ids=["train-epochs", "gen-data-k", "bias-batchnorm-string", "epochs-fraction",
        "bias-batchnorm-fraction", "epochs-boolean", "evaluate-k-string",
        "lam-boolean", "gamma-string", "gamma-huge-integer", "label-number"])
def test_unreadable_config_value_exits_2(tmp_path, data_dir, capsys, command, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    argv = {"train": ["train", "--data", str(data_dir / "train.csv")],
            "evaluate": ["evaluate", "--checkpoint", "unread.invsen", "--data", "unread.csv"],
            }.get(command, [command])
    capsys.readouterr()
    code = run_cli(*argv, "--config", str(cfg_path), "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and repr(next(iter(cfg))) in err


def test_config_numbers_read_exactly(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"epochs": 2.0, "seed": 5, "widths": [8.0, 6],
                                    "bias_widths": 64.0, "bias_batchnorm": 0}))
    args = build_parser().parse_args(["train", "--data", "unread.csv",
                                      "--config", str(cfg_path), "--out", "unused"])
    opts = _merge(args, TRAIN_OPTIONS)
    assert opts["epochs"] == 2 and type(opts["epochs"]) is int
    assert opts["seed"] == 5 and opts["widths"] == (8, 6)
    # one number is one layer, read like an integer option
    assert opts["bias_widths"] == (64,) and type(opts["bias_widths"][0]) is int
    assert opts["bias_batchnorm"] is False


def test_bias_batchnorm_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bias_batchnorm": False}))
    fixed = ["train", "--data", "unread.csv", "--config", str(cfg_path), "--out", "unused"]
    parser = build_parser()
    assert _merge(parser.parse_args(fixed), TRAIN_OPTIONS)["bias_batchnorm"] is False
    opts = _merge(parser.parse_args([*fixed, "--bias-batchnorm", "1"]), TRAIN_OPTIONS)
    assert opts["bias_batchnorm"] is True
    with pytest.raises(SystemExit) as err:  # the switch takes 0|1, never a bare flag
        parser.parse_args([*fixed, "--bias-batchnorm"])
    assert err.value.code == 2


@pytest.mark.parametrize("command, key", [
    ("train", "alpha"), ("train", "alpha_learnable"), ("train", "beta0"),
    ("gen-data", "label_flip"),
])
def test_removed_option_exits_2(tmp_path, data_dir, capsys, command, key):
    # as a config key and as a flag
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: 0.1}))
    argv = ["train", "--data", str(data_dir / "train.csv")] if command == "train" else [command]
    capsys.readouterr()
    assert run_cli(*argv, "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as err:
        run_cli(*argv, "--" + key.replace("_", "-"), "0.1", "--out", str(tmp_path / "o"))
    assert err.value.code == 2
    assert not (tmp_path / "o").exists()


# Each option is declared once, in its subcommand's table; the parser's only
# other arguments are these.
TABLES = {"gen-data": GEN_OPTIONS, "train": TRAIN_OPTIONS, "evaluate": EVAL_OPTIONS}
FIXED_ARGUMENTS = {
    "gen-data": ["--out", "o"],
    "train": ["--data", "d.csv", "--out", "o"],
    "evaluate": ["--checkpoint", "c.invsen", "--data", "d.csv", "--dump-affinity", "--out", "o"],
}


def _sample(convert, default):
    """A flag's text and the config value it must read as, both unlike the
    option's default."""
    if convert is _switch:
        on = not _switch(default)
        return str(int(on)), on
    return {_integer: ("5", 5), _real: ("0.25", 0.25), _string: ("plain", "plain"),
            _widths: ("8,6", [8, 6])}[convert]


@pytest.mark.parametrize("command, key", [(c, k) for c, table in TABLES.items() for k in table])
def test_flag_and_config_key_read_alike(tmp_path, command, key):
    options = TABLES[command]
    convert, default = options[key]
    text, value = _sample(convert, default)
    flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    parser = build_parser()

    def read(*argv):
        return _merge(parser.parse_args([command, *FIXED_ARGUMENTS[command], *argv]), options)[key]

    from_flag, from_config = read(flag, text), read("--config", str(cfg_path))
    assert from_flag == from_config and type(from_flag) is type(from_config)
    assert from_flag != read()


def test_parser_has_no_option_outside_the_tables_but_the_fixed_arguments():
    fixed = {name: {a.lstrip("-").replace("-", "_") for a in argv if a.startswith("--")}
             | {"config"} for name, argv in FIXED_ARGUMENTS.items()}
    fixed["report"] = {"inputs", "out"}
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == set(fixed)
    for name, sub in commands.items():
        dests = {a.dest for a in sub._actions if a.dest != "help"}
        assert dests == fixed[name] | set(TABLES.get(name, ())), name


def test_config_file_not_utf8_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'{"epochs": "\xff"}')
    code = run_cli("train", "--data", "unread.csv", "--config", str(cfg_path),
                   "--out", str(tmp_path / "o"))
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg_path}: ")


def _drop_config(manifest):
    del manifest["config"]


def _unknown_config_key(manifest):
    manifest["config"]["no_such_option"] = 1


def _misnamed_array(manifest):
    entry = next(e for e in manifest["arrays"] if e["name"] == "opt_main.params")
    entry["name"] = "opt_main.weights"


def _version_1(manifest):
    manifest["version"] = 1


def _version_2(manifest):
    # version 2, whose config still holds swap_roles
    manifest["version"] = 2
    manifest["config"]["swap_roles"] = False


def _version_3(manifest):
    # version 3, whose config still holds checkpoint_path
    manifest["version"] = 3
    manifest["config"]["checkpoint_path"] = None


def _version_4(manifest):
    # version 4, whose config still holds eval_every
    manifest["version"] = 4
    manifest["config"]["eval_every"] = 1


def _version_5(manifest):
    # the previous format, whose config still holds alpha, alpha_learnable and beta0
    manifest["version"] = 5
    manifest["config"].update(alpha=1.0, alpha_learnable=False, beta0=0.005)


def _hidden_disagrees_with_arrays(manifest):
    manifest["config"]["hidden"] = [9, 6]


def _in_dim_huge(manifest):
    # would ask init_state for hundreds of TiB before any check
    manifest["in_dim"] = 10 ** 13


def _in_dim_negative(manifest):
    # with the first width 8: sqrt(6 / -1) is nan, and rng.uniform overflows
    manifest["in_dim"] = -9


class TestEvaluate:
    def test_metrics_written(self, tmp_path, data_dir, trained_dir):
        out = tmp_path / "eval"
        code = run_cli("evaluate", "--checkpoint",
                       str(trained_dir / "checkpoint.invsen"),
                       "--data", str(data_dir / "train.csv"),
                       str(data_dir / "test.csv"),
                       "--k", "2", "--seed", "1", "--out", str(out))
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics["splits"]) == {"train", "test"}
        for entry in metrics["splits"].values():
            assert 0.0 <= entry["acc"] <= 1.0
            assert entry["mi_pred_bias"] >= 0.0
        csv_lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "split,acc,nmi,ari,mi_pred_bias,mi_true_bias,n"
        assert len(csv_lines) == 3
        # every cell is the repr of its metrics.json value, six per split
        for line in csv_lines[1:]:
            split, *cells = line.split(",")
            entry = metrics["splits"][split]
            assert cells == [repr(entry[k]) for k in csv_lines[0].split(",")[1:]]

    def test_missing_k_exits_2(self, tmp_path, data_dir, trained_dir):
        code = run_cli("evaluate", "--checkpoint",
                       str(trained_dir / "checkpoint.invsen"),
                       "--data", str(data_dir / "test.csv"),
                       "--out", str(tmp_path / "e"))
        assert code == 2

    def test_repeat_evaluation_identical(self, tmp_path, data_dir, trained_dir):
        payloads = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            code = run_cli("evaluate", "--checkpoint",
                           str(trained_dir / "checkpoint.invsen"),
                           "--data", str(data_dir / "test.csv"),
                           "--k", "2", "--seed", "1", "--out", str(out))
            assert code == 0
            data = json.loads((out / "metrics.json").read_text())
            data.pop("meta")  # timestamps live only in meta
            payloads.append(json.dumps(data, sort_keys=True))
        assert payloads[0] == payloads[1]

    def test_same_split_name_twice_exits_2(self, tmp_path, data_dir, trained_dir, capsys):
        # a/test.csv and b/test.csv both name the split "test"; neither may
        # overwrite the other's labels and metrics
        other = tmp_path / "b"
        other.mkdir()
        (other / "test.csv").write_bytes((data_dir / "test.csv").read_bytes())
        out = tmp_path / "e"
        capsys.readouterr()
        code = run_cli("evaluate", "--checkpoint", str(trained_dir / "checkpoint.invsen"),
                       "--data", str(data_dir / "test.csv"), str(other / "test.csv"),
                       "--k", "2", "--out", str(out))
        assert code == 2
        assert "'test'" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_split_of_another_width_exits_2(self, tmp_path, data_dir, trained_dir, capsys):
        # refused before the first split's labels are written
        ds = load_dataset(str(data_dir / "test.csv"))
        wide = tmp_path / "wide.csv"
        save_dataset(Dataset(X=np.hstack([ds.X, ds.X[:, :2]]), s=ds.s, b=ds.b), str(wide))
        out = tmp_path / "e"
        capsys.readouterr()
        code = run_cli("evaluate", "--checkpoint", str(trained_dir / "checkpoint.invsen"),
                       "--data", str(data_dir / "train.csv"), str(wide),
                       "--k", "2", "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "'wide'" in err and f"{ds.d + 2} features" in err and f"takes {ds.d}" in err
        assert not out.exists() or not any(out.iterdir())

    def test_k_above_a_split_size_exits_2(self, tmp_path, data_dir, trained_dir, capsys):
        # refused before the first split's labels are written
        ds = load_dataset(str(data_dir / "test.csv"))
        small = tmp_path / "small.csv"
        save_dataset(Dataset(X=ds.X[:6], s=ds.s[:6], b=ds.b[:6]), str(small))
        out = tmp_path / "e"
        capsys.readouterr()
        code = run_cli("evaluate", "--checkpoint", str(trained_dir / "checkpoint.invsen"),
                       "--data", str(data_dir / "train.csv"), str(small),
                       "--k", "7", "--out", str(out))
        assert code == 2
        assert "'small'" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("corrupt", [_drop_config, _unknown_config_key, _misnamed_array,
                                         _version_1, _version_2, _version_3, _version_4,
                                         _version_5, _hidden_disagrees_with_arrays,
                                         _in_dim_huge, _in_dim_negative])
    def test_malformed_checkpoint_manifest_exits_1(self, tmp_path, data_dir,
                                                    trained_dir, capsys, corrupt):
        raw = (trained_dir / "checkpoint.invsen").read_bytes()
        blob_len = int.from_bytes(raw[8:16], "little")
        manifest = json.loads(raw[16:16 + blob_len])
        corrupt(manifest)
        blob = json.dumps(manifest).encode("utf-8")
        path = tmp_path / "corrupt.invsen"
        path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob
                         + raw[16 + blob_len:])
        capsys.readouterr()
        code = run_cli("evaluate", "--checkpoint", str(path),
                       "--data", str(data_dir / "test.csv"),
                       "--k", "2", "--out", str(tmp_path / "e"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if corrupt in (_version_3, _version_4, _version_5):
            assert f"unsupported version {corrupt.__name__[-1]}" in err

    def test_dump_affinity_writes_exact_npy(self, tmp_path, data_dir, trained_dir):
        out = tmp_path / "e"
        ckpt = str(trained_dir / "checkpoint.invsen")
        code = run_cli("evaluate", "--checkpoint", ckpt,
                       "--data", str(data_dir / "test.csv"), "--k", "2",
                       "--dump-affinity", "--out", str(out))
        assert code == 0
        dumped = np.load(out / "affinity_test.npy")
        expected = build_affinity(load_checkpoint(ckpt).model,
                                  load_dataset(str(data_dir / "test.csv")).X)
        assert dumped.dtype == expected.dtype and dumped.shape == expected.shape
        assert dumped.tobytes() == expected.tobytes()
        assert not any(p.name.endswith(".tmp") for p in out.iterdir())


# The training split's Laplacian has a clustered spectrum: lambda_2 = 0.92,
# lambda_3 .. lambda_6 within 0.003 of 1. The default Krylov basis holds all
# 48 vectors; one of 16 restarts many times and must still resolve it.
@pytest.mark.parametrize("basis", [None, 16])
def test_clustered_spectrum_solved(data_dir, trained_dir, monkeypatch, basis):
    if basis is not None:
        monkeypatch.setattr(cluster, "KRYLOV_BASIS", basis)
    a = build_affinity(load_checkpoint(str(trained_dir / "checkpoint.invsen")).model,
                       load_dataset(str(data_dir / "train.csv")).X)
    lap = normalized_laplacian(a)
    ref_vals, ref_vecs = np.linalg.eigh(lap.rows(np.eye(len(a))))
    assert 0.9 < ref_vals[1] < 0.95 and np.abs(ref_vals[2:6] - 1.0).max() < 0.005
    vals, vecs = smallest_eigenvectors(lap, 2)
    assert np.abs(vals - ref_vals[:2]).max() < 1e-12
    assert np.abs(np.abs(vecs.T @ ref_vecs[:, :2]) - np.eye(2)).max() < 1e-10


# out-of-range options: each must end in a ConfigError (exit 2), not a traceback
BAD_OPTIONS = [
    ("train", "--gamma", "0"), ("train", "--delta", "2"), ("train", "--lambda", "-1"),
    ("train", "--mu", "-1"),
    # NaN passes a comparison-only range check; each must be refused
    *(("train", flag, "nan") for flag in ("--gamma", "--lambda", "--mu", "--lr-main",
                                          "--lr-bias")),
    ("train", "--gamma", "inf"),
    # malformed or zero layer widths
    ("train", "--widths", "8,x"), ("train", "--widths", "-3"),
    ("train", "--bias-widths", "4,q"), ("train", "--widths", "0"),
    ("train", "--embed-dim", "0"), ("train", "--bias-widths", "0"),
    ("gen-data", "--sigma", "nan"), ("gen-data", "--sigma", "inf"),
    ("gen-data", "--bias-strength", "nan"),
    ("gen-data", "--mode", "bogus"),
    ("evaluate", "--k", "0"), ("evaluate", "--restarts", "0"),
    ("evaluate", "--max-iter", "0"),
]


@pytest.mark.parametrize("command, flag, value", BAD_OPTIONS,
                         ids=[f"{c}{f}={v}" for c, f, v in BAD_OPTIONS])
def test_out_of_range_option_exits_2(tmp_path, data_dir, trained_dir, capsys,
                                     command, flag, value):
    if command == "train":
        argv = ["train", "--data", str(data_dir / "train.csv"), "--epochs", "1",
                "--batch-size", "12", "--widths", "6", "--embed-dim", "4",
                "--bias-widths", "6"]
    elif command == "gen-data":
        argv = ["gen-data", "--k", "2", "--d", "12", "--rank", "2", "--n-per", "4"]
    else:
        argv = ["evaluate", "--checkpoint", str(trained_dir / "checkpoint.invsen"),
                "--data", str(data_dir / "test.csv"), "--k", "2"]
    capsys.readouterr()
    code = run_cli(*argv, flag, value, "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("corruption", ["non-utf8", "negative-label"])
def test_corrupt_dataset_file_exits_1(tmp_path, data_dir, trained_dir, capsys,
                                      command, corruption):
    # the second data row (line 3) spoilt: a byte that is not UTF-8 after its
    # first feature, or its cluster label (the next-to-last cell) made -1
    lines = (data_dir / "test.csv").read_bytes().split(b"\n")
    cells = lines[2].split(b",")
    if corruption == "non-utf8":
        cells[0] += b"\xff"
    else:
        cells[-2] = b"-1"
    lines[2] = b",".join(cells)
    path = tmp_path / "corrupt.csv"
    path.write_bytes(b"\n".join(lines))
    if command == "train":
        argv = ["train", "--data", str(path), "--epochs", "1"]
    else:
        argv = ["evaluate", "--checkpoint", str(trained_dir / "checkpoint.invsen"),
                "--data", str(path), "--k", "2"]
    capsys.readouterr()
    code = run_cli(*argv, "--out", str(tmp_path / "o"))
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{path}:3: " in err


class TestReport:
    def test_table_from_metrics(self, tmp_path, data_dir, trained_dir, capsys):
        eval_dir = tmp_path / "ev"
        run_cli("evaluate", "--checkpoint",
                str(trained_dir / "checkpoint.invsen"),
                "--data", str(data_dir / "test.csv"),
                "--k", "2", "--seed", "1", "--label", "demo",
                "--out", str(eval_dir))
        capsys.readouterr()
        out = tmp_path / "rep"
        code = run_cli("report", str(eval_dir / "metrics.json"),
                       "--out", str(out))
        assert code == 0
        table = capsys.readouterr().out
        assert "demo" in table and "acc" in table
        csv_text = (out / "report.csv").read_text()
        header = csv_text.splitlines()[0]
        assert header.startswith("source,split,n,acc,nmi,ari")
        # percentages rendered with two decimals
        acc_cell = csv_text.splitlines()[1].split(",")[3]
        assert len(acc_cell.split(".")[-1]) == 2

    @pytest.mark.parametrize("text", [
        "{not json",
        json.dumps({"splits": [1, 2]}),
        json.dumps({"splits": {"a": 5}}),
        json.dumps({"splits": {"a": {"acc": "x"}}}),
        json.dumps({"splits": {"a": {"acc": 10 ** 400}}}),  # no float holds it
    ], ids=["not-json", "splits-list", "split-number", "metric-string", "metric-too-large"])
    def test_malformed_metrics_exits_1(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = run_cli("report", str(bad))
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_percent_formatting(self):
        from invsen.cli import _pct
        assert _pct(0.7853) == "78.53"


class TestEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "invsen", "gen-data", "--k", "2", "--d",
             "10", "--rank", "2", "--n-per", "8", "--mode", "plain",
             "--seed", "2", "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "data.csv").exists()
        json.loads(proc.stdout.strip().splitlines()[-1])
