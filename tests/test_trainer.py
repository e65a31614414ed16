import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from invsen import numkit
from invsen.datagen import DataGenConfig, Dataset, generate
from invsen.debias import (
    BiasHeads,
    LossWeights,
    bias_group_shift,
    bias_posterior,
    counterfactual_inputs,
    cross_entropy_grad_logits,
    cross_entropy_loss,
    entropy_confusion_grad_logits,
    entropy_confusion_loss,
    head_parameter_arrays,
    invariance_grads,
    invariance_loss,
)
from invsen.errors import CheckpointError, ConfigError, ShapeError, TrainingDiverged
from invsen.numkit import DenseLayer, MlpParams, adam_init, adam_step, mlp_backward, mlp_forward, normalize_rows
from invsen.sennet import se_loss, se_parameter_arrays
from invsen.trainer import (
    TrainConfig,
    TrainState,
    _layout,
    _state_arrays,
    epoch_batches,
    fit,
    init_state,
    load_checkpoint,
    resume,
    save_checkpoint,
    train_step,
)


def tiny_config(**kw):
    base = dict(epochs=3, batch_size=16, lr_main=1e-3, lr_bias=1e-4,
                weights=LossWeights(gamma=20.0, delta=0.9, lam=0.0, mu=1.0),
                seed=11, hidden=(10, 8), embed_dim=6, bias_hidden=(8, 6),
                beta0=0.005)
    base.update(kw)
    return TrainConfig(**base)


def toy_dataset(n_per=20, k=2, d=10, r=2, seed=5, bias_strength=1.0, e=0.1):
    cfg = DataGenConfig(k_subspaces=k, ambient_dim=d, subspace_rank=r,
                        n_per_cluster=n_per, noise_sigma=0.01,
                        bias_strength=bias_strength, bias_flip_e=e, seed=seed)
    return generate(cfg)


def clone_state(state: TrainState) -> TrainState:
    """A state built like the original (nets as views of the optimizers'
    vectors) holding copies of every array."""
    twin = init_state(state.config, state.model.in_dim)
    for (_, a), (_, c) in zip(_state_arrays(state), _state_arrays(twin)):
        c[...] = a
    twin.opt_main.t, twin.opt_bias.t = state.opt_main.t, state.opt_bias.t
    twin.epoch, twin.history = state.epoch, list(state.history)
    return twin


def flat(arrays):
    return np.concatenate([np.ravel(a) for a in arrays])


def se_param_grads(model, se):
    """se_loss's gradients for every main-optimizer parameter, as one flat
    vector: the embedding gradients backpropagated through both nets, then
    beta and alpha."""
    return flat(mlp_backward(model.key_net, se.key_cache, se.grad_key_out)[0]
                + mlp_backward(model.query_net, se.query_cache, se.grad_query_out)[0]
                + [se.grad_beta_raw] + ([se.grad_alpha] if model.alpha_learnable else []))


def install_heads(state, g, g_prime):
    """Give the state the heads g and g_prime, laid out in the parameter
    vector of a fresh bias optimizer."""
    arrays = numkit.mlp_param_arrays(g) + numkit.mlp_param_arrays(g_prime)
    vec = flat(arrays)
    views = numkit.flat_views(vec, [a.shape for a in arrays])
    n_g = len(numkit.mlp_param_arrays(g))
    numkit.set_param_arrays(g, views[:n_g])
    numkit.set_param_arrays(g_prime, views[n_g:])
    state.heads = BiasHeads(g=g, g_prime=g_prime)
    state.opt_bias = adam_init(vec, state.config.lr_bias)


def assert_flat(state):
    """Every trainable array is a view of its own optimizer's vector."""
    for arrays, own, other in (
            (se_parameter_arrays(state.model), state.opt_main, state.opt_bias),
            (head_parameter_arrays(state.heads), state.opt_bias, state.opt_main)):
        assert all(np.shares_memory(a, own.params) for a in arrays)
        assert not any(np.shares_memory(a, other.params) for a in arrays)
        assert np.array_equal(flat(arrays), own.params)


def read_manifest(path):
    raw = path.read_bytes()
    return json.loads(raw[16:16 + int.from_bytes(raw[8:16], "little")])


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


class TestTrainStep:
    def test_lambda_zero_feature_update_is_pure_senet(self):
        ds = toy_dataset()
        x = normalize_rows(ds.X)[:16]
        b = ds.b[:16]
        cfg = tiny_config()
        state = init_state(cfg, x.shape[1])
        twin = clone_state(state)

        train_step(state, x, b, cfg.weights)

        # straight-line pure-SE step on the twin: ignore the heads entirely
        se = se_loss(twin.model, x, cfg.weights.gamma, cfg.weights.delta)
        adam_step(twin.opt_main, [twin.opt_main.params], [se_param_grads(twin.model, se)])
        assert params_equal(se_parameter_arrays(state.model),
                            se_parameter_arrays(twin.model))
        # the heads did move, on cross-entropy
        assert state.opt_bias.t == 1

    def test_step_matches_straightline_composition(self):
        # full min-max step recomputed by composing the primitives by hand
        ds = toy_dataset()
        x = normalize_rows(ds.X)[:4]
        b = ds.b[:4]
        # both bias groups: the aligned reconstruction and the invariance
        # term are live
        assert 0 < b.sum() < b.size
        w = LossWeights(gamma=20.0, delta=0.9, lam=0.8, mu=1.3)
        cfg = tiny_config(weights=w)
        state = init_state(cfg, x.shape[1])
        twin = clone_state(state)

        train_step(state, x, b, w)

        se = se_loss(twin.model, x, w.gamma, w.delta,
                     shift=bias_group_shift(x, b), shift_weight=w.lam)
        p_key, cache_g = bias_posterior(twin.heads.g, se.key_out)
        p_query, cache_gp = bias_posterior(twin.heads.g_prime, se.query_out)
        g_grads, ce_u = mlp_backward(twin.heads.g, cache_g,
                                     cross_entropy_grad_logits(p_key, b))
        gp_grads, ce_v = mlp_backward(twin.heads.g_prime, cache_gp,
                                      cross_entropy_grad_logits(p_query, b))
        _, conf_u = mlp_backward(twin.heads.g, cache_g,
                                 entropy_confusion_grad_logits(p_key))
        _, conf_v = mlp_backward(twin.heads.g_prime, cache_gp,
                                 entropy_confusion_grad_logits(p_query))
        x_cf = counterfactual_inputs(x, b)
        u_cf, cache_u_cf = mlp_forward(twin.model.key_net, x_cf)
        v_cf, cache_v_cf = mlp_forward(twin.model.query_net, x_cf)
        inv_u, inv_u_cf = invariance_grads(se.key_out, u_cf)
        inv_v, inv_v_cf = invariance_grads(se.query_out, v_cf)
        gk, _ = mlp_backward(twin.model.key_net, se.key_cache,
                             se.grad_key_out + w.lam * conf_u - w.lam * w.mu * ce_u
                             + w.lam * inv_u)
        gk_cf, _ = mlp_backward(twin.model.key_net, cache_u_cf, w.lam * inv_u_cf)
        gq, _ = mlp_backward(twin.model.query_net, se.query_cache,
                             se.grad_query_out + w.lam * conf_v - w.lam * w.mu * ce_v
                             + w.lam * inv_v)
        gq_cf, _ = mlp_backward(twin.model.query_net, cache_v_cf, w.lam * inv_v_cf)
        gk = [a + c for a, c in zip(gk, gk_cf)]
        gq = [a + c for a, c in zip(gq, gq_cf)]
        adam_step(twin.opt_bias, [twin.opt_bias.params], [flat(g_grads + gp_grads)])
        adam_step(twin.opt_main, [twin.opt_main.params],
                  [flat(gk + gq + [se.grad_beta_raw])])

        assert params_equal(se_parameter_arrays(state.model),
                            se_parameter_arrays(twin.model))
        assert params_equal(head_parameter_arrays(state.heads),
                            head_parameter_arrays(twin.heads))

    def test_report_total_composition(self):
        ds = toy_dataset()
        x = normalize_rows(ds.X)[:8]
        b = ds.b[:8]
        assert 0 < b.sum() < b.size
        w = LossWeights(gamma=20.0, delta=0.9, lam=0.7, mu=1.3)
        state = init_state(tiny_config(weights=w), x.shape[1])
        twin = clone_state(state)

        _, rep = train_step(state, x, b, w)

        se = se_loss(twin.model, x, w.gamma, w.delta,
                     shift=bias_group_shift(x, b), shift_weight=w.lam)
        pk, _ = bias_posterior(twin.heads.g, se.key_out)
        pq, _ = bias_posterior(twin.heads.g_prime, se.query_out)
        x_cf = counterfactual_inputs(x, b)
        u_cf, _ = mlp_forward(twin.model.key_net, x_cf)
        v_cf, _ = mlp_forward(twin.model.query_net, x_cf)
        l_inv = invariance_loss(se.key_out, u_cf) + invariance_loss(se.query_out, v_cf)
        expected = (se.loss
                    + 0.7 * (entropy_confusion_loss(pk) + entropy_confusion_loss(pq))
                    + 0.7 * (se.l_align + l_inv)
                    + 1.3 * (cross_entropy_loss(pk, b) + cross_entropy_loss(pq, b)))
        assert rep["l_se"] == se.loss
        assert rep["l_align"] == se.l_align
        assert rep["l_inv"] == pytest.approx(l_inv, rel=1e-14)
        assert rep["total_report"] == pytest.approx(expected, rel=1e-14)

    def test_report_lambda_mu_zero_is_se_loss(self):
        ds = toy_dataset()
        x = normalize_rows(ds.X)[:8]
        w = LossWeights(gamma=20.0, delta=0.9, lam=0.0, mu=0.0)
        state = init_state(tiny_config(weights=w), x.shape[1])
        se = se_loss(clone_state(state).model, x, w.gamma, w.delta)
        _, rep = train_step(state, x, ds.b[:8], w)
        assert rep["total_report"] == se.loss
        assert "l_align" not in rep and "l_inv" not in rep

    def test_report_uniform_heads(self):
        ds = toy_dataset()
        x = normalize_rows(ds.X)[:8]
        w = LossWeights(gamma=20.0, delta=0.9, lam=1.0, mu=1.0)
        cfg = tiny_config(weights=w)
        state = init_state(cfg, x.shape[1])
        # zero weights and biases: every posterior is uniform
        def zero_head():
            return MlpParams(layers=[DenseLayer(w=np.zeros((cfg.embed_dim, 2)),
                                                b=np.zeros(2), activation="none")])
        install_heads(state, zero_head(), zero_head())
        _, rep = train_step(state, x, ds.b[:8], w)
        for key in ("l_conf_key", "l_conf_query"):
            assert rep[key] == pytest.approx(-np.log(2.0), abs=1e-12)
        for key in ("l_ce_key", "l_ce_query"):
            assert rep[key] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_misaligned_bias_labels(self):
        ds = toy_dataset()
        x = normalize_rows(ds.X)[:8]
        state = init_state(tiny_config(), x.shape[1])
        with pytest.raises(ShapeError):
            train_step(state, x, ds.b[:7])

    def test_reversal_sign_is_exactly_minus_lambda_mu(self):
        # the CE contribution to the key-net gradient equals
        # -lam*mu times the CE gradient backpropagated through the head
        ds = toy_dataset()
        x = normalize_rows(ds.X)[:8]
        b = ds.b[:8]
        cfg = tiny_config()
        state = init_state(cfg, x.shape[1])
        lam, mu = 0.7, 1.9

        se = se_loss(clone_state(state).model, x, 20.0, 0.9)
        heads = clone_state(state).heads
        p_key, cache_g = bias_posterior(heads.g, se.key_out)
        _, ce_u = mlp_backward(heads.g, cache_g,
                               cross_entropy_grad_logits(p_key, b))
        _, conf_u = mlp_backward(heads.g, cache_g,
                                 entropy_confusion_grad_logits(p_key))
        model = clone_state(state).model
        with_ce, _ = mlp_backward(model.key_net, se.key_cache,
                                  se.grad_key_out + lam * conf_u - lam * mu * ce_u)
        without_ce, _ = mlp_backward(model.key_net, se.key_cache,
                                     se.grad_key_out + lam * conf_u)
        reversed_only, _ = mlp_backward(model.key_net, se.key_cache,
                                        -lam * mu * ce_u)
        for a, c, r in zip(with_ce, without_ce, reversed_only):
            assert np.allclose(a - c, r, atol=1e-12)

    def test_bias_signal_survives_a_confident_head(self):
        # Once a head is confidently right, its confusion gradient
        # p(log p + H) and reversed cross-entropy gradient p - y vanish. Here
        # the key embeddings separate the bias and head g reads it with a
        # logit margin of at least 30 on every sample; the bias pull that
        # train_step sends into the key net must still be of the order of
        # the self-expression gradient.
        ds = toy_dataset(bias_strength=3.0, e=0.0)
        x = normalize_rows(ds.X)[::2]
        b = ds.b[::2]
        cfg = tiny_config(weights=LossWeights(gamma=20.0, delta=0.9, lam=1.0, mu=1.0))
        state = init_state(cfg, x.shape[1])
        u, _ = mlp_forward(state.model.key_net, x)
        # least-squares linear read-out of b; the margin sets its sign
        readout = np.linalg.lstsq(np.c_[u, np.ones(b.size)], 2.0 * b - 1.0,
                                  rcond=None)[0]
        margin = u @ readout[:-1] + readout[-1]
        assert np.array_equal(margin > 0, b == 1)  # linearly separable by b
        scale = 30.0 / np.abs(margin).min()
        head = MlpParams(layers=[DenseLayer(
            w=np.stack([np.zeros(u.shape[1]), scale * readout[:-1]], axis=1),
            b=np.array([0.0, scale * readout[-1]]), activation="none")])
        p_key, _ = bias_posterior(head, u)
        assert p_key[np.arange(b.size), b].min() > 1.0 - 1e-12

        # With eps far above every |gradient|, Adam's first step is
        # -lr * g / eps, so the parameter change reads the gradient itself.
        def key_step(lam):
            twin = clone_state(state)
            install_heads(twin, numkit.clone_mlp(head), numkit.clone_mlp(head))
            twin.opt_main.lr, twin.opt_main.eps = 1.0, 1e6
            before = [a.copy() for a in numkit.mlp_param_arrays(twin.model.key_net)]
            train_step(twin, x, b, LossWeights(gamma=20.0, delta=0.9, lam=lam, mu=1.0))
            after = numkit.mlp_param_arrays(twin.model.key_net)
            return np.concatenate([(a - c).ravel() for a, c in zip(after, before)])

        se_only = key_step(0.0)
        bias_pull = key_step(1.0) - se_only
        ratio = np.linalg.norm(bias_pull) / np.linalg.norm(se_only)
        assert ratio > 0.05, ratio

    def test_optimizer_isolation(self, tmp_path):
        # every trainable array stays a view of its own optimizer's vector:
        # after init_state, after load_checkpoint and after training steps
        # (a layer rebound to a copy would stop training silently)
        ds = toy_dataset()
        x = normalize_rows(ds.X)
        for kw in (dict(), dict(alpha_learnable=True, bias_batchnorm=False,
                                weights=LossWeights(gamma=20.0, delta=0.9, lam=1.0, mu=1.0))):
            state = init_state(tiny_config(**kw), ds.X.shape[1])
            assert_flat(state)
            assert (state.opt_main.params.size == state.opt_main.grads.size
                    == state.opt_main.m.size == state.opt_main.v.size)
            for idx in epoch_batches(x.shape[0], 16, 11, 1):
                train_step(state, x[idx], ds.b[idx])
            assert state.opt_main.t == state.opt_bias.t == 3
            assert_flat(state)
            save_checkpoint(state, str(tmp_path / "ck"))
            back = load_checkpoint(str(tmp_path / "ck"))
            assert_flat(back)
            for idx in epoch_batches(x.shape[0], 16, 11, 2):
                train_step(back, x[idx], ds.b[idx])
            assert_flat(back)

    def test_missing_bias_labels_with_lam(self):
        cfg = tiny_config(weights=LossWeights(gamma=20.0, delta=0.9, lam=1.0))
        state = init_state(cfg, 10)
        with pytest.raises(ConfigError):
            train_step(state, np.ones((4, 10)), None, cfg.weights)

    def test_divergence_guard(self):
        cfg = tiny_config(weights=LossWeights(gamma=1e7, delta=0.9, lam=0.0))
        ds = toy_dataset()
        with pytest.raises(TrainingDiverged) as err:
            fit(cfg, ds)
        assert "total_report" in str(err.value)
        assert err.value.report


class TestEpochBatches:
    def test_pure_function_of_seed_and_epoch(self):
        a = epoch_batches(50, 16, seed=3, epoch=4)
        b = epoch_batches(50, 16, seed=3, epoch=4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = epoch_batches(50, 16, seed=3, epoch=5)
        assert not np.array_equal(a[0], c[0])

    def test_partition_without_replacement(self):
        batches = epoch_batches(50, 16, seed=0, epoch=1)
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(50))

    def test_singleton_tail_dropped(self):
        batches = epoch_batches(17, 4, seed=0, epoch=1)
        assert [len(b) for b in batches] == [4, 4, 4, 4]


class TestFit:
    def test_zero_epochs(self):
        state = fit(tiny_config(epochs=0), toy_dataset())
        assert state.epoch == 0 and state.history == []

    def test_seeded_runs_identical(self):
        ds = toy_dataset()
        a = fit(tiny_config(), ds)
        b = fit(tiny_config(), ds)
        assert params_equal(se_parameter_arrays(a.model),
                            se_parameter_arrays(b.model))
        assert a.history == b.history

    def test_history_one_record_per_epoch(self):
        state = fit(tiny_config(epochs=4), toy_dataset())
        assert [r["epoch"] for r in state.history] == [1, 2, 3, 4]
        for rec in state.history:
            for key in ("l_se", "l_ce_key", "l_conf_query", "bias_head_acc"):
                assert key in rec

    def test_smoke_loss_decreases_on_clean_data(self):
        # calibrated smoke threshold: 60 epochs on easy 2-subspace data
        # cuts the self-expression loss to well under half its start
        ds = toy_dataset(n_per=30, bias_strength=0.0, e=0.0)
        cfg = tiny_config(epochs=60, batch_size=32,
                          weights=LossWeights(gamma=20.0, delta=0.9, lam=0.0))
        state = fit(cfg, ds)
        assert state.history[-1]["l_se"] < 0.5 * state.history[0]["l_se"]

    def test_lam_zero_trajectory_equals_debias_free_build(self):
        # same seed, heads disabled entirely: feature params must agree
        # bit for bit with the lam=0 run
        ds = toy_dataset()
        cfg = tiny_config(epochs=3)
        full = fit(cfg, ds)

        state = init_state(cfg, ds.X.shape[1])
        x = normalize_rows(ds.X)
        for epoch in range(1, cfg.epochs + 1):
            for idx in epoch_batches(x.shape[0], cfg.batch_size, cfg.seed, epoch):
                se = se_loss(state.model, x[idx], cfg.weights.gamma,
                             cfg.weights.delta)
                adam_step(state.opt_main, [state.opt_main.params],
                          [se_param_grads(state.model, se)])
        assert params_equal(se_parameter_arrays(full.model),
                            se_parameter_arrays(state.model))

    def test_lam_requires_bias_labels(self):
        ds = toy_dataset()
        ds_nob = Dataset(X=ds.X, s=ds.s, b=None)
        cfg = tiny_config(weights=LossWeights(gamma=20.0, delta=0.9, lam=1.0))
        with pytest.raises(ConfigError):
            fit(cfg, ds_nob)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=1, batch_size=1)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=-1)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=1, lr_main=0.0)

    def test_fewer_than_two_samples_refused_before_allocating(self):
        # no rows, and a width whose nets would take hundreds of TiB
        with pytest.raises(ConfigError, match="two samples"):
            fit(tiny_config(), Dataset(X=np.empty((0, 10 ** 12))))


class TestCheckpoints:
    def test_round_trip_zero_ulp(self, tmp_path):
        state = fit(tiny_config(epochs=2,
                                weights=LossWeights(gamma=20.0, delta=0.9,
                                                    lam=0.5, mu=1.0)),
                    toy_dataset())
        path = str(tmp_path / "ck.invsen")
        save_checkpoint(state, path)
        back = load_checkpoint(path)
        assert params_equal(se_parameter_arrays(state.model),
                            se_parameter_arrays(back.model))
        assert params_equal(head_parameter_arrays(state.heads),
                            head_parameter_arrays(back.heads))
        assert params_equal([state.opt_main.m, state.opt_main.v],
                            [back.opt_main.m, back.opt_main.v])
        assert back.opt_main.t == state.opt_main.t
        assert back.history == state.history
        assert back.config == state.config
        # saving the restored state reproduces the file byte for byte
        save_checkpoint(back, str(tmp_path / "ck2.invsen"))
        assert (tmp_path / "ck.invsen").read_bytes() == (tmp_path / "ck2.invsen").read_bytes()

    @pytest.mark.parametrize("kw", [
        dict(bias_batchnorm=False),
        dict(alpha_learnable=True, bias_warmup_epochs=1),
        dict(weights=LossWeights(gamma=20.0, delta=0.9, lam=0.0, mu=1.0)),
    ], ids=["no-batchnorm", "alpha-learnable", "lam0"])
    def test_load_save_byte_identical(self, tmp_path, kw):
        kw = {"weights": LossWeights(gamma=20.0, delta=0.9, lam=0.5, mu=1.0), **kw}
        save_checkpoint(fit(tiny_config(epochs=2, **kw), toy_dataset()),
                        str(tmp_path / "a"))
        save_checkpoint(load_checkpoint(str(tmp_path / "a")), str(tmp_path / "b"))
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()
        # the config fixes the architecture: no spec or RNG is stored
        assert set(read_manifest(tmp_path / "a")) == {
            "version", "in_dim", "epoch", "config", "t", "history", "arrays"}

    @pytest.mark.parametrize("edit, match", [
        (lambda m: m.update(version=1), "version"),
        # version 2, whose config holds swap_roles
        (lambda m: (m.update(version=2), m["config"].update(swap_roles=False)), "version"),
        # the previous format: version 3, whose config holds checkpoint_path
        (lambda m: (m.update(version=3), m["config"].update(checkpoint_path=None)),
         "unsupported version 3"),
        (lambda m: m["config"].update(hidden=[10, 9]), "layout"),
        (lambda m: m["config"].update(bias_batchnorm=False), "layout"),
        (lambda m: m.update(in_dim=11), "layout"),
        (lambda m: m.update(in_dim=-10 ** 6), "builds no arrays"),
    ], ids=["version-1", "version-2", "version-3", "hidden", "batchnorm", "in-dim", "negative-in-dim"])
    def test_manifest_that_does_not_match_refused(self, tmp_path, edit, match):
        path = tmp_path / "ck.invsen"
        save_checkpoint(fit(tiny_config(epochs=1), toy_dataset()), str(path))
        raw = path.read_bytes()
        manifest = read_manifest(path)
        edit(manifest)
        blob = json.dumps(manifest).encode("utf-8")
        path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob
                         + raw[16 + int.from_bytes(raw[8:16], "little"):])
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("kw", [
        dict(),
        dict(bias_batchnorm=False, alpha_learnable=True, hidden=(7,), bias_hidden=()),
        dict(n_bias_classes=3, embed_dim=2, bias_hidden=(5, 4, 3)),
    ], ids=["default", "no-bn-alpha", "three-classes"])
    def test_layout_counts_the_state_arrays(self, kw):
        cfg = tiny_config(**kw)
        state = init_state(cfg, 9)
        n_main, n_bias = _layout(cfg, 9)
        assert (n_main, n_bias) == (state.opt_main.params.size, state.opt_bias.params.size)
        assert 3 * (n_main + n_bias) == sum(a.size for _, a in _state_arrays(state))

    def test_payload_is_the_six_optimizer_vectors(self, tmp_path):
        cfg = tiny_config(epochs=2, alpha_learnable=True,
                          weights=LossWeights(gamma=20.0, delta=0.9, lam=0.5, mu=1.0))
        state = fit(cfg, toy_dataset())
        path = tmp_path / "ck.invsen"
        save_checkpoint(state, str(path))
        raw = path.read_bytes()
        vectors = [state.opt_main.params, state.opt_main.m, state.opt_main.v,
                   state.opt_bias.params, state.opt_bias.m, state.opt_bias.v]
        assert raw[16 + int.from_bytes(raw[8:16], "little"):] == np.concatenate(
            vectors).astype("<f8").tobytes()
        assert [e["name"] for e in read_manifest(path)["arrays"]] == [
            f"{opt}.{part}" for opt in ("opt_main", "opt_bias") for part in ("params", "m", "v")]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.invsen"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(str(path))

    def test_truncated_payload(self, tmp_path):
        state = fit(tiny_config(epochs=1), toy_dataset())
        path = str(tmp_path / "ck.invsen")
        save_checkpoint(state, path)
        blob = (tmp_path / "ck.invsen").read_bytes()
        (tmp_path / "ck.invsen").write_bytes(blob[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_resume_equals_uninterrupted(self, tmp_path):
        ds = toy_dataset()
        w = LossWeights(gamma=20.0, delta=0.9, lam=0.5, mu=1.0)
        full = fit(tiny_config(epochs=6, weights=w), ds)

        half = fit(tiny_config(epochs=3, weights=w), ds)
        path = str(tmp_path / "half.invsen")
        save_checkpoint(half, path)
        resumed = resume(load_checkpoint(path), ds, epochs=6)

        assert resumed.epoch == 6
        assert params_equal(se_parameter_arrays(full.model),
                            se_parameter_arrays(resumed.model))
        assert params_equal(head_parameter_arrays(full.heads),
                            head_parameter_arrays(resumed.heads))
        assert full.history == resumed.history


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    cfg = tiny_config(epochs=1, hidden=(4,), embed_dim=3, bias_hidden=(4,),
                      weights=LossWeights(gamma=20.0, delta=0.9, lam=0.5, mu=1.0))
    path = tmp_path_factory.mktemp("ck") / "tiny.invsen"
    save_checkpoint(fit(cfg, toy_dataset(n_per=8)), str(path))
    return path


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupt_checkpoint_bytes_give_a_state_or_checkpoint_error(tiny_checkpoint, data):
    # truncated anywhere, or one byte of the header or manifest replaced:
    # load_checkpoint returns a state or raises CheckpointError, nothing else
    raw = tiny_checkpoint.read_bytes()
    manifest_end = 16 + int.from_bytes(raw[8:16], "little")
    if data.draw(st.booleans(), label="truncate"):
        corrupt = raw[:data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        at = data.draw(st.integers(0, manifest_end - 1), label="offset")
        # any byte, or one that keeps the JSON valid more often
        byte = data.draw(st.one_of(st.integers(0, 255), st.sampled_from(b"-0123456789. "))
                         .filter(lambda v: v != raw[at]), label="byte")
        corrupt = raw[:at] + bytes([byte]) + raw[at + 1:]
    path = tiny_checkpoint.parent / "corrupt.invsen"
    path.write_bytes(corrupt)
    try:
        assert isinstance(load_checkpoint(str(path)), TrainState)
    except CheckpointError:
        pass
