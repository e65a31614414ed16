import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from invsen.cli import main
from invsen.cluster import build_affinity
from invsen.datagen import load_dataset
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
        assert rows[-1].startswith("3,")  # flag overrode the config file

    def test_unknown_config_key_exits_2(self, tmp_path, data_dir):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"not_a_key": 1}))
        code = run_cli("train", "--data", str(data_dir / "train.csv"),
                       "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert code == 2


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
    # the previous format, whose config still holds checkpoint_path
    manifest["version"] = 3
    manifest["config"]["checkpoint_path"] = None


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

    @pytest.mark.parametrize("corrupt", [_drop_config, _unknown_config_key, _misnamed_array,
                                         _version_1, _version_2, _version_3,
                                         _hidden_disagrees_with_arrays,
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
        if corrupt is _version_3:
            assert "unsupported version 3" in err

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


# out-of-range options: each must end in a ConfigError (exit 2), not a traceback
BAD_OPTIONS = [
    ("train", "--gamma", "0"), ("train", "--delta", "2"), ("train", "--lambda", "-1"),
    ("train", "--mu", "-1"), ("train", "--alpha", "0"), ("train", "--beta0", "0"),
    # NaN passes a comparison-only range check; each must be refused
    *(("train", flag, "nan") for flag in ("--gamma", "--lambda", "--mu", "--alpha",
                                          "--beta0", "--lr-main", "--lr-bias")),
    ("train", "--gamma", "inf"),
    ("gen-data", "--sigma", "nan"), ("gen-data", "--sigma", "inf"),
    ("gen-data", "--bias-strength", "nan"),
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

    def test_malformed_metrics_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli("report", str(bad))
        assert code == 1

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

    def test_thread_cap_env(self, tmp_path):
        env = dict(os.environ, INVSEN_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "invsen", "gen-data", "--k", "2", "--d",
             "10", "--rank", "2", "--n-per", "8", "--mode", "plain",
             "--seed", "2", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
