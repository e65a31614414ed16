import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from invsen.datagen import (
    DataGenConfig,
    Dataset,
    bias_group,
    generate,
    load_dataset,
    make_mixed_domain,
    make_ood_split,
    save_dataset,
)
from invsen.errors import ConfigError, DataFormatError
from invsen.evalmetrics import discrete_mi


def small_config(**kw):
    base = dict(k_subspaces=3, ambient_dim=20, subspace_rank=3,
                n_per_cluster=50, noise_sigma=0.01, bias_strength=1.0,
                bias_flip_e=0.1, seed=7)
    base.update(kw)
    return DataGenConfig(**base)


class TestGenerate:
    def test_shapes_and_labels(self):
        ds = generate(small_config())
        assert ds.X.shape == (150, 20)
        assert ds.s.shape == (150,) and ds.b.shape == (150,)
        assert set(ds.s.tolist()) == {0, 1, 2}
        assert set(ds.b.tolist()) <= {0, 1}

    def test_deterministic(self):
        a = generate(small_config())
        b = generate(small_config())
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.s, b.s) and np.array_equal(a.b, b.b)

    def test_e_zero_bias_equals_group(self):
        ds = generate(small_config(bias_flip_e=0.0))
        assert np.array_equal(ds.b, bias_group(ds.s))

    def test_flip_fraction_near_e(self):
        ds = generate(small_config(n_per_cluster=2000, bias_flip_e=0.2))
        flipped = float(np.mean(ds.b != bias_group(ds.s)))
        assert abs(flipped - 0.2) < 0.02

    def test_half_flip_is_independent(self):
        cfg = DataGenConfig(k_subspaces=2, ambient_dim=12, subspace_rank=2,
                            n_per_cluster=10000, noise_sigma=0.01,
                            bias_strength=1.0, bias_flip_e=0.5, seed=3)
        ds = generate(cfg)
        assert ds.n == 20000
        assert abs(discrete_mi(ds.b, ds.s)) < 0.005

    def test_orthonormal_structure(self):
        ds = generate(small_config())
        bases = ds.provenance["bases"]
        dirs = ds.provenance["bias_dirs"]
        for u in bases:
            assert np.abs(u.T @ u - np.eye(u.shape[1])).max() < 1e-10
            assert np.abs(dirs @ u).max() < 1e-10
        assert np.abs(dirs @ dirs.T - np.eye(2)).max() < 1e-10

    def test_noise_free_rank(self):
        cfg = small_config(noise_sigma=0.0, bias_strength=0.0)
        ds = generate(cfg)
        sv = np.linalg.svd(ds.X, compute_uv=False)
        r = cfg.k_subspaces * cfg.subspace_rank
        assert sv[r - 1] > 1e-6
        assert sv[r:].max() < 1e-10 * sv[0]

    def test_bias_displacement_is_orthogonal_confound(self):
        clean = generate(small_config(bias_strength=0.0))
        biased = generate(small_config(bias_strength=2.0))
        delta = biased.X - clean.X  # same draws, only the displacement differs
        dirs = biased.provenance["bias_dirs"]
        expected = 2.0 * dirs[biased.b]
        assert np.abs(delta - expected).max() < 1e-12

    def test_infeasible_orthogonality(self):
        with pytest.raises(ConfigError):
            generate(DataGenConfig(k_subspaces=4, ambient_dim=10,
                                   subspace_rank=3, n_per_cluster=5))

    def test_label_flip_knob(self):
        ds = generate(small_config(n_per_cluster=2000, bias_flip_e=0.0,
                                   label_flip=0.25))
        flipped = float(np.mean(ds.b != bias_group(ds.s)))
        assert abs(flipped - 0.25) < 0.03


class TestOodSplit:
    def test_shared_structure(self):
        split = make_ood_split(small_config(), train_e=0.1, test_e=0.5)
        tr, te = split["train"], split["test"]
        for u_tr, u_te in zip(tr.provenance["bases"], te.provenance["bases"]):
            assert np.array_equal(u_tr, u_te)
        assert np.array_equal(tr.provenance["bias_dirs"],
                              te.provenance["bias_dirs"])

    def test_train_mi_dominates_test_mi(self):
        split = make_ood_split(small_config(n_per_cluster=1000),
                               train_e=0.1, test_e=0.5)
        mi_tr = discrete_mi(split["train"].b, split["train"].s)
        mi_te = discrete_mi(split["test"].b, split["test"].s)
        assert mi_tr > 10 * mi_te
        assert mi_tr > 0.2  # strongly correlated at e = 0.1

    def test_same_e_splits_differ_only_by_draw(self):
        split = make_ood_split(small_config(), train_e=0.3, test_e=0.3)
        assert not np.array_equal(split["train"].X, split["test"].X)
        assert split["train"].n == split["test"].n


class TestMixedDomain:
    def test_exact_origin_counts(self):
        cfg = small_config(k_subspaces=4, ambient_dim=25, subspace_rank=3,
                           n_per_cluster=1000)
        ds = make_mixed_domain(cfg, e_biased=0.1, n_ratio=0.5)
        assert ds.n == 4000
        origin = ds.provenance["origin"]
        assert int((origin == 0).sum()) == 2000
        assert int((origin == 1).sum()) == 2000

    def test_mixture_mi_between_components(self):
        cfg = small_config(n_per_cluster=2000)
        ds = make_mixed_domain(cfg, e_biased=0.05, n_ratio=0.5)
        origin = ds.provenance["origin"]
        mi_biased = discrete_mi(ds.b[origin == 0], ds.s[origin == 0])
        mi_clean = discrete_mi(ds.b[origin == 1], ds.s[origin == 1])
        mi_all = discrete_mi(ds.b, ds.s)
        assert mi_clean < mi_all < mi_biased

    def test_ratio_one_is_pure_biased(self):
        ds = make_mixed_domain(small_config(), e_biased=0.1, n_ratio=1.0)
        assert np.all(ds.provenance["origin"] == 0)
        assert ds.n == 150


class TestDatasetIO:
    def test_round_trip_exact(self, tmp_path):
        ds = generate(small_config())
        path = str(tmp_path / "d.csv")
        save_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.X, ds.X)  # bit-exact via repr round trip
        assert np.array_equal(back.s, ds.s)
        assert np.array_equal(back.b, ds.b)

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# invsen-dataset v1 n=3 d=2 has_s=0 has_b=0\n"
                        "1.0,2.0\n3.0,4.0\n")
        with pytest.raises(DataFormatError, match="n=3"):
            load_dataset(str(path))

    def test_header_larger_than_file(self, tmp_path):
        # refused before anything of the header's size is allocated
        # (1e9 x 1e6 float64 would be 7.1 PiB)
        path = tmp_path / "bad.csv"
        path.write_text("# invsen-dataset v1 n=1000000000 d=1000000 has_s=0 has_b=0\n"
                        "1.0,2.0\n")
        with pytest.raises(DataFormatError, match="more than the file holds"):
            load_dataset(str(path))
        # no rows, but a width numpy cannot allocate even for them
        path.write_text("# invsen-dataset v1 n=0 d=99999999999999999999 has_s=0 has_b=0\n")
        with pytest.raises(DataFormatError, match=":1: header says d="):
            load_dataset(str(path))
        # the smallest file that can hold its header's rows is accepted
        path.write_text("# invsen-dataset v1 n=2 d=2 has_s=0 has_b=1\n1,2,0\n3,4,1")
        assert load_dataset(str(path)).n == 2

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n1.0,2.0\n")
        with pytest.raises(DataFormatError, match="header"):
            load_dataset(str(path))

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# invsen-dataset v1 n=2 d=2 has_s=0 has_b=0\n"
                        "1.0,2.0\n3.0\n")
        with pytest.raises(DataFormatError, match=":3"):
            load_dataset(str(path))

    def test_negative_bias_label_names_line(self, tmp_path):
        # the CLI tests spoil a cluster label; this one the bias label
        path = tmp_path / "bad.csv"
        path.write_text("# invsen-dataset v1 n=2 d=2 has_s=1 has_b=1\n"
                        "1.0,2.0,0,0\n3.0,4.0,1,-1\n")
        with pytest.raises(DataFormatError, match=":3: negative label"):
            load_dataset(str(path))

    def test_label_too_large_for_int64(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# invsen-dataset v1 n=1 d=1 has_s=1 has_b=0\n1.0,99999999999999999999\n")
        with pytest.raises(DataFormatError, match=":2: unparsable"):
            load_dataset(str(path))

    def test_optional_labels_absent(self, tmp_path):
        ds = Dataset(X=np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = str(tmp_path / "x.csv")
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.s is None and back.b is None

    def test_no_partial_file_on_atomic_write(self, tmp_path):
        ds = generate(small_config(n_per_cluster=5))
        path = tmp_path / "out.csv"
        save_dataset(ds, str(path))
        assert not (tmp_path / "out.csv.tmp").exists()


@pytest.fixture(scope="module")
def saved_lines(tmp_path_factory):
    path = tmp_path_factory.mktemp("ds") / "d.csv"
    save_dataset(generate(small_config(n_per_cluster=2, ambient_dim=12)), str(path))
    return path.read_bytes().split(b"\n")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupt_dataset_line_gives_a_dataset_or_data_format_error(saved_lines, tmp_path, data):
    # one line (the header included) replaced by arbitrary bytes, or one of
    # its bytes replaced: load_dataset returns a dataset or raises
    # DataFormatError, nothing else
    lines = list(saved_lines)
    at = data.draw(st.integers(0, len(lines) - 1), label="line")
    if data.draw(st.booleans(), label="whole line") or not lines[at]:
        lines[at] = data.draw(st.one_of(
            st.binary(max_size=40),
            st.text(alphabet="0123456789-+.,eEinfa \r", max_size=40).map(str.encode)),
            label="bytes")
    else:
        i = data.draw(st.integers(0, len(lines[at]) - 1), label="offset")
        byte = data.draw(st.one_of(st.integers(0, 255), st.sampled_from(b"-0123456789.,e\n")),
                         label="byte")
        lines[at] = lines[at][:i] + bytes([byte]) + lines[at][i + 1:]
    path = tmp_path / "corrupt.csv"
    path.write_bytes(b"\n".join(lines))
    try:
        ds = load_dataset(str(path))
    except DataFormatError:
        return
    assert np.isfinite(ds.X).all()
    assert all(labels is None or labels.min(initial=0) >= 0 for labels in (ds.s, ds.b))
