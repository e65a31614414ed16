import numpy as np
import pytest

from invsen import numkit, sennet
from invsen.debias import bias_group_offsets
from invsen.errors import ShapeError
from invsen.numkit import DenseLayer, MlpParams, make_rng, mlp_backward, mlp_param_arrays
from invsen.sennet import (
    SEModel,
    coefficient_matrix,
    coefficients,
    elastic_net_reg,
    init_se_model,
    se_loss,
    soft_threshold,
)

from gradcheck import finite_diff_check, set_param_arrays
from oracles import ref_mlp_forward


def constant_embedding_model(d, p, vec, beta_raw=-np.inf):
    """Both nets map every input to the fixed embedding `vec` (single
    linear layer, zero weights, bias = vec, no activation)."""
    def net():
        return MlpParams(layers=[DenseLayer(w=np.zeros((d, p)),
                                            b=np.asarray(vec, dtype=float).copy(),
                                            activation="none")])
    return SEModel(key_net=net(), query_net=net(), beta_raw=np.array(beta_raw))


def linear_embedding_model(wk, wq, beta_raw=-np.inf):
    """Nets are bare linear maps u = x @ wk, v = x @ wq."""
    def net(w):
        return MlpParams(layers=[DenseLayer(w=np.asarray(w, dtype=float).copy(),
                                            b=np.zeros(np.asarray(w).shape[1]),
                                            activation="none")])
    return SEModel(key_net=net(wk), query_net=net(wq), beta_raw=np.array(beta_raw))


class TestSoftThreshold:
    def test_dead_zone(self):
        # |t| = beta exactly is dead too
        for t in (0.7, 1.0, -1.0):
            assert soft_threshold(t, 1.0) == 0.0

    def test_positive_shrink(self):
        assert soft_threshold(1.5, 1.0) == pytest.approx(0.5)

    def test_odd_symmetry(self):
        assert soft_threshold(-1.5, 1.0) == pytest.approx(-0.5)

    def test_vectorized_monotone_sparsity_in_beta(self):
        t = make_rng(0, "t").standard_normal(200)
        zeros = [np.count_nonzero(soft_threshold(t, b) == 0.0)
                 for b in (0.0, 0.2, 0.5, 1.0, 3.0)]
        assert zeros == sorted(zeros)


class TestElasticNet:
    def test_zero(self):
        assert elastic_net_reg(0.0, 0.9)[0] == 0.0

    def test_pure_l1(self):
        assert elastic_net_reg(2.0, 1.0)[0] == pytest.approx(2.0)

    def test_mixed_value(self):
        assert elastic_net_reg(-2.0, 0.9)[0] == pytest.approx(0.9 * 2 + 0.05 * 4)

    def test_symmetric_nonnegative(self):
        c = make_rng(1, "c").standard_normal(50)
        r = elastic_net_reg(c, 0.7)[0]
        assert np.all(r >= 0)
        assert np.allclose(r, elastic_net_reg(-c, 0.7)[0])

    def test_subgradient(self):
        c = make_rng(2, "c").standard_normal(50)
        assert np.array_equal(elastic_net_reg(c, 1.0)[1], np.sign(c))
        assert np.array_equal(elastic_net_reg(c, 0.0)[1], c)
        # exactly 0 at the kink, the derivative away from it
        away, h = c[np.abs(c) > 1e-3], 1e-6
        for delta in (0.0, 0.3, 0.9, 1.0):
            assert elastic_net_reg(0.0, delta)[1] == 0.0
            central = (elastic_net_reg(away + h, delta)[0]
                       - elastic_net_reg(away - h, delta)[0]) / (2 * h)
            assert np.allclose(elastic_net_reg(away, delta)[1], central, rtol=0, atol=1e-8)


class TestCoefficients:
    def test_dead_zone_kills_everything(self):
        model = init_se_model(3, hidden=(5,), embed_dim=4,
                              rng=make_rng(2, "m"))
        x = make_rng(3, "x").standard_normal((6, 3))
        model.beta_raw = np.array(50.0)  # beta ~ 50 >> any |u.v| (tanh bounded)
        c = coefficient_matrix(model, x)
        assert np.array_equal(c, np.zeros((6, 6)))

    def test_constant_unit_embeddings_give_all_ones_offdiagonal(self):
        vec = np.zeros(4)
        vec[0] = 1.0
        model = constant_embedding_model(3, 4, vec)
        x = make_rng(4, "x").standard_normal((5, 3))
        c = coefficient_matrix(model, x)
        expected = np.ones((5, 5)) - np.eye(5)
        assert np.array_equal(c, expected)

    def test_matches_compositional_recomputation(self):
        # oracle: reference forward pass + explicit soft threshold
        model = init_se_model(3, hidden=(6, 5), embed_dim=4,
                              rng=make_rng(5, "m"))
        x = make_rng(6, "x").standard_normal((4, 3))
        c = coefficient_matrix(model, x)
        u = ref_mlp_forward(model.key_net, x)
        v = ref_mlp_forward(model.query_net, x)
        beta = model.beta
        expected = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                if i == j:
                    continue
                s = float(np.dot(u[j], v[i]))
                expected[i, j] = np.sign(s) * max(0.0, abs(s) - beta)
        assert np.abs(c - expected).max() < 1e-10

    def test_in_place_threshold_matches_where_expression(self):
        model = init_se_model(6, hidden=(8,), embed_dim=5, rng=make_rng(9, "m"))
        model.beta_raw[...] = -3.0  # beta ~ 0.049: live and dead pairs
        x = make_rng(10, "x").standard_normal((40, 6))
        block, cache = coefficients(model, x)
        s = cache["s"]
        live = np.abs(s) > model.beta
        np.fill_diagonal(live, False)
        thr = np.where(live, np.sign(s) * (np.abs(s) - model.beta), 0.0)
        assert 0 < live.sum() < live.size - 40
        assert np.array_equal(cache["live"], live)
        assert thr.tobytes() == block.tobytes()  # +0.0 in the dead zone

    def test_parameters_are_views_of_one_vector(self):
        vec = np.empty(2 * (4 * 6 + 6 + 6 * 3 + 3) + 1)
        m = init_se_model(4, hidden=(6,), embed_dim=3, rng=make_rng(11, "m"), out=vec)
        arrays = (mlp_param_arrays(m.key_net) + mlp_param_arrays(m.query_net)
                  + [m.beta_raw])
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), vec)
        assert all(np.shares_memory(a, vec) for a in arrays)
        assert m.beta == pytest.approx(sennet.DEFAULT_BETA0)
        with pytest.raises(ShapeError):
            init_se_model(4, hidden=(6,), embed_dim=3, rng=make_rng(11, "m"), out=vec[1:])

    def test_zero_diagonal_always(self):
        model = init_se_model(4, hidden=(8,), embed_dim=6, rng=make_rng(7, "m"))
        model.beta_raw = np.array(-50.0)  # essentially no threshold
        for seed in range(3):
            x = make_rng(seed, "diag").standard_normal((7, 4))
            c = coefficient_matrix(model, x)
            assert np.array_equal(np.diag(c), np.zeros(7))

    def test_sparsity_monotone_in_beta(self):
        model = init_se_model(3, hidden=(5,), embed_dim=4, rng=make_rng(10, "m"))
        x = make_rng(11, "x").standard_normal((10, 3))
        fractions = []
        for beta_raw in (-8.0, -2.0, -1.0, 0.0, 1.0):
            model.beta_raw = np.array(beta_raw)
            c = coefficient_matrix(model, x)
            fractions.append(np.mean(c == 0.0))
        assert fractions == sorted(fractions)

    def test_feature_dim_mismatch(self):
        model = init_se_model(3, hidden=(5,), embed_dim=4, rng=make_rng(14, "m"))
        with pytest.raises(ShapeError):
            coefficients(model, np.zeros((4, 2)))


class TestSELoss:
    def test_all_dead_reduces_to_input_energy(self):
        model = init_se_model(3, hidden=(5,), embed_dim=4, rng=make_rng(18, "m"))
        model.beta_raw = np.array(50.0)
        x = make_rng(19, "x").standard_normal((6, 3))
        res = se_loss(model, x, gamma=10.0, delta=0.9)
        assert res.loss == pytest.approx((10.0 / (2 * 6)) * (x ** 2).sum())
        assert res.reg == 0.0

    def test_single_sample_batch(self):
        model = init_se_model(3, hidden=(5,), embed_dim=4, rng=make_rng(20, "m"))
        x = make_rng(21, "x").standard_normal((1, 3))
        res = se_loss(model, x, gamma=4.0, delta=0.9)
        assert res.loss == pytest.approx(2.0 * (x ** 2).sum())

    def test_hand_computed_loss(self):
        # bare linear nets, three points, everything recomputed with loops
        wk = [[0.5, 0.0], [0.0, 1.0], [0.5, -0.5]]
        wq = [[1.0, 0.5], [-0.5, 0.0], [0.0, 1.0]]
        model = linear_embedding_model(wk, wq, beta_raw=np.log(np.e - 1.0))
        beta = model.beta  # softplus(log(e-1)) = 1 exactly up to fp
        assert beta == pytest.approx(1.0, abs=1e-15)
        x = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 1.0], [2.0, 1.0, 0.0]])
        gamma, delta = 6.0, 0.8
        res = se_loss(model, x, gamma, delta)

        u = x @ np.array(wk)
        v = x @ np.array(wq)
        n = 3
        c = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    s = float(np.dot(u[j], v[i]))
                    c[i, j] = np.sign(s) * max(0.0, abs(s) - beta)
        recon = 0.0
        for j in range(n):
            xhat = sum(c[i, j] * x[i] for i in range(n))
            recon += float(((x[j] - xhat) ** 2).sum())
        recon *= gamma / (2 * n)
        reg = sum(delta * abs(c[i, j]) + 0.5 * (1 - delta) * c[i, j] ** 2
                  for i in range(n) for j in range(n) if i != j) / n
        assert (c != 0).sum() > 0  # the case actually exercises live pairs
        assert res.loss == pytest.approx(recon + reg, rel=1e-12)

    def test_gradients_pass_finite_differences(self):
        x = make_rng(22, "x").standard_normal((6, 5))

        def loss_and_grad(arrays):
            m = init_se_model(5, hidden=(8, 6), embed_dim=4, rng=make_rng(23, "m"))
            nk = len(numkit.mlp_param_arrays(m.key_net))
            set_param_arrays(m.key_net, [a.copy() for a in arrays[:nk]])
            set_param_arrays(m.query_net, [a.copy() for a in arrays[nk:2 * nk]])
            m.beta_raw = np.asarray(arrays[2 * nk]).reshape(()).copy()
            res = se_loss(m, x, gamma=10.0, delta=0.9)
            return res.loss, (
                mlp_backward(m.key_net, res.key_cache, res.grad_key_out)[0]
                + mlp_backward(m.query_net, res.query_cache, res.grad_query_out)[0]
                + [np.array(res.grad_beta_raw)])

        m0 = init_se_model(5, hidden=(8, 6), embed_dim=4, rng=make_rng(23, "m"))
        rep = finite_diff_check(
            loss_and_grad,
            mlp_param_arrays(m0.key_net) + mlp_param_arrays(m0.query_net) + [m0.beta_raw],
            tolerance=1e-4, max_coords=None)
        assert rep.passed, rep.max_rel_err

    def test_aligned_term_matches_explicit_loop(self):
        model = init_se_model(5, hidden=(6,), embed_dim=4, rng=make_rng(8, "m"))
        x = make_rng(10, "x").standard_normal((8, 5))
        b = make_rng(11, "b").integers(0, 2, size=8)
        res = se_loss(model, x, 10.0, 0.9,
                      shift=bias_group_offsets(x, b)[0], shift_weight=0.7)
        # each contributor moved into the bias group of the sample it rebuilds
        means = [x[b == k].mean(axis=0) for k in (0, 1)]
        c = coefficients(model, x)[0]
        aligned = np.array([sum(c[i, j] * (x[i] - means[b[i]] + means[b[j]])
                                for i in range(len(b))) for j in range(len(b))])
        l_align = 10.0 / (2 * len(b)) * (((aligned - x) ** 2).sum()
                                         - ((c.T @ x - x) ** 2).sum())
        assert res.l_align == pytest.approx(l_align, rel=1e-12)
        # the plain objective's value is reported unchanged
        assert res.loss == se_loss(model, x, 10.0, 0.9).loss

    def test_gamma_must_be_positive(self):
        model = init_se_model(3, hidden=(5,), embed_dim=4, rng=make_rng(24, "m"))
        with pytest.raises(ValueError):
            se_loss(model, np.zeros((3, 3)), gamma=0.0, delta=0.9)
