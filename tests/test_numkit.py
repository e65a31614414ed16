import numpy as np
import pytest

from invsen import numkit
from invsen.errors import NumericsError, ShapeError
from invsen.numkit import (
    adam_init,
    adam_step,
    clone_mlp,
    finite_diff_check,
    init_mlp,
    make_rng,
    mlp_backward,
    mlp_forward,
    mlp_grad_arrays,
    mlp_param_arrays,
    normalize_rows,
    set_param_arrays,
)

from oracles import ref_adam_trajectory, ref_mlp_forward


@pytest.fixture
def seeded_net():
    return init_mlp([3, 4, 2], ["relu", "tanh"], batchnorm=False,
                    rng=make_rng(7, "net"))


def mse_loss_and_grad(template, x, mode="train"):
    """loss = 0.5 * sum(out^2) over a reconstructed copy of the net."""
    def fn(arrays):
        net = clone_mlp(template)
        set_param_arrays(net, [a.copy() for a in arrays])
        out, cache = mlp_forward(net, x, mode)
        loss = 0.5 * float((out ** 2).sum())
        grads, _ = mlp_backward(net, cache, out)
        return loss, mlp_grad_arrays(grads)
    return fn


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42, "x").standard_normal(5)
        b = make_rng(42, "x").standard_normal(5)
        assert np.array_equal(a, b)

    def test_different_labels_different_streams(self):
        a = make_rng(42, "x").standard_normal(5)
        b = make_rng(42, "y").standard_normal(5)
        assert not np.array_equal(a, b)

    def test_derive_seed_is_stable(self):
        # frozen: cross-platform stability contract of the hash derivation
        assert numkit.derive_seed(0, "init") == numkit.derive_seed(0, "init")
        assert numkit.derive_seed(0, "init") != numkit.derive_seed(1, "init")


class TestNormalizeRows:
    def test_overflowing_norm_still_unit(self):
        x = np.array([[1e300, 1e300, 0.0], [3.0, 4.0, 0.0], [-1e308, 0.0, 2e307]])
        out = normalize_rows(x)
        assert np.allclose(out[0], [2 ** -0.5, 2 ** -0.5, 0.0], rtol=1e-15)
        assert np.allclose(out[2], np.array([-1.0, 0.0, 0.2]) / np.sqrt(1.04),
                           rtol=1e-15)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, rtol=1e-15)

    def test_underflowing_norm_still_unit(self):
        # the squares underflow: to zero in the first row, to subnormals in
        # the second
        out = normalize_rows(np.array([[1e-170, 1e-170, 0.0], [1e-160, 0.0, 0.0]]))
        assert np.allclose(out[0], [2 ** -0.5, 2 ** -0.5, 0.0], rtol=1e-15)
        assert np.array_equal(out[1], [1.0, 0.0, 0.0])

    def test_finite_norm_rows_unchanged(self):
        x = make_rng(3, "rows").standard_normal((6, 5)) * 1e3
        x[2] = 0.0
        big = np.vstack([x, [[1e300, -1e300, 0.0, 0.0, 5.0]]])
        expected = x / np.where(np.linalg.norm(x, axis=1, keepdims=True) > 0.0,
                                np.linalg.norm(x, axis=1, keepdims=True), 1.0)
        assert np.array_equal(normalize_rows(x), expected)
        assert np.array_equal(normalize_rows(big)[:6], expected)
        assert np.array_equal(normalize_rows(x)[2], np.zeros(5))


class TestMlpForward:
    def test_zero_net_maps_to_zero(self):
        net = init_mlp([3, 4, 2], ["relu", "none"], batchnorm=False,
                       rng=make_rng(0, "z"))
        for lay in net.layers:
            lay.w[:] = 0.0
            lay.b[:] = 0.0
        out, _ = mlp_forward(net, make_rng(1, "x").standard_normal((5, 3)))
        assert np.array_equal(out, np.zeros((5, 2)))

    def test_identity_layer(self):
        net = init_mlp([4, 4], ["none"], batchnorm=False, rng=make_rng(0, "i"))
        net.layers[0].w = np.eye(4)
        net.layers[0].b = np.zeros(4)
        x = make_rng(2, "x").standard_normal((6, 4))
        out, _ = mlp_forward(net, x)
        assert np.array_equal(out, x)

    def test_matches_reference_forward(self, seeded_net):
        # oracle: pure-python re-implementation of the layer equations
        x = make_rng(3, "x").standard_normal((5, 3))
        out, _ = mlp_forward(seeded_net, x, "train")
        ref = ref_mlp_forward(seeded_net, x, "train")
        assert np.abs(out - ref).max() < 1e-12

    def test_matches_reference_with_batchnorm(self):
        net = init_mlp([3, 5, 2], ["relu", "none"], batchnorm=[True, False],
                       rng=make_rng(4, "bn"))
        x = make_rng(5, "x").standard_normal((7, 3))
        ref = ref_mlp_forward(net, x, "train")  # before running stats move
        out, _ = mlp_forward(net, x, "train")
        assert np.abs(out - ref).max() < 1e-12

    def test_dimension_mismatch_names_layer(self, seeded_net):
        with pytest.raises(ShapeError, match="layer 0"):
            mlp_forward(seeded_net, np.zeros((2, 5)))

    def test_eval_mode_is_pure(self):
        net = init_mlp([3, 4], ["relu"], batchnorm=True, rng=make_rng(6, "bn"))
        x = make_rng(7, "x").standard_normal((4, 3))
        mlp_forward(net, x, "train")  # move running stats off init
        out1, _ = mlp_forward(net, x, "eval")
        out2, _ = mlp_forward(net, x, "eval")
        assert np.array_equal(out1, out2)

    def test_train_mode_updates_running_stats(self):
        net = init_mlp([3, 4], ["none"], batchnorm=True, rng=make_rng(6, "bn"))
        before = net.layers[0].batchnorm.running_mean.copy()
        mlp_forward(net, make_rng(8, "x").standard_normal((4, 3)) + 5.0, "train")
        assert not np.array_equal(before, net.layers[0].batchnorm.running_mean)


class TestMlpBackward:
    def test_zero_grad_output_gives_zero_grads(self, seeded_net):
        x = make_rng(9, "x").standard_normal((4, 3))
        out, cache = mlp_forward(seeded_net, x)
        grads, gin = mlp_backward(seeded_net, cache, np.zeros_like(out))
        assert np.array_equal(gin, np.zeros_like(x))
        for g in mlp_grad_arrays(grads):
            assert np.array_equal(g, np.zeros_like(g))

    def test_single_linear_layer_chain_rule(self):
        # y = x W + b; grad_W = x^T G, grad_b = sum G, grad_x = G W^T
        net = init_mlp([3, 2], ["none"], batchnorm=False, rng=make_rng(10, "l"))
        x = make_rng(11, "x").standard_normal((5, 3))
        g = make_rng(12, "g").standard_normal((5, 2))
        _, cache = mlp_forward(net, x)
        grads, gin = mlp_backward(net, cache, g)
        assert np.allclose(grads[0]["w"], x.T @ g, atol=1e-14)
        assert np.allclose(grads[0]["b"], g.sum(axis=0), atol=1e-14)
        assert np.allclose(gin, g @ net.layers[0].w.T, atol=1e-14)

    def test_finite_difference_every_layer_type(self):
        cases = [
            ([3, 4], ["none"], False),
            ([3, 4], ["relu"], False),
            ([3, 4], ["tanh"], False),
            ([3, 4], ["none"], True),
            ([3, 5, 2], ["relu", "tanh"], [True, False]),
        ]
        x = make_rng(13, "x").standard_normal((6, 3))
        for i, (dims, acts, bn) in enumerate(cases):
            net = init_mlp(dims, acts, batchnorm=bn, rng=make_rng(14 + i, "fd"))
            rep = finite_diff_check(mse_loss_and_grad(net, x),
                                    mlp_param_arrays(net), tolerance=1e-4,
                                    max_coords=None)
            assert rep.passed, (dims, acts, bn, rep.max_rel_err)

    def test_constant_batch_batchnorm_grads_flow_through_shift(self):
        net = init_mlp([3, 4], ["none"], batchnorm=True, rng=make_rng(20, "bn"))
        x = np.tile(make_rng(21, "x").standard_normal(3), (5, 1))
        out, cache = mlp_forward(net, x, "train")
        g = make_rng(22, "g").standard_normal(out.shape)
        grads, _ = mlp_backward(net, cache, g)
        assert np.abs(grads[0]["scale"]).max() < 1e-12  # xhat is 0
        assert np.allclose(grads[0]["shift"], g.sum(axis=0))

    def test_stale_cache_rejected(self, seeded_net):
        x = make_rng(23, "x").standard_normal((4, 3))
        _, cache = mlp_forward(seeded_net, x)
        other = init_mlp([3, 6, 2], ["relu", "tanh"], batchnorm=False,
                         rng=make_rng(24, "o"))
        with pytest.raises(ShapeError):
            mlp_backward(other, cache, np.zeros((4, 2)))
        with pytest.raises(ShapeError):
            mlp_backward(seeded_net, cache, np.zeros((4, 3)))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = [np.array([1.0, -2.0]), np.array(3.0)]
        st = adam_init(p, lr=0.1)
        adam_step(st, p, [np.zeros(2), np.array(0.0)])
        assert np.array_equal(p[0], [1.0, -2.0]) and float(p[1]) == 3.0
        assert st.t == 1

    def test_first_step_is_signed_lr(self):
        # with eps << |g| the first update is about -lr * sign(g)
        p = [np.array(0.5)]
        st = adam_init(p, lr=1e-3)
        adam_step(st, p, [np.array(7.3)])
        assert abs(float(p[0]) - (0.5 - 1e-3)) < 1e-9

    def test_three_steps_match_hand_rolled_oracle(self):
        # frozen from the reference scalar Adam on loss 0.5*(p-3)^2,
        # p0 = 0, lr = 0.1
        expected = [0.09999999966666669, 0.19989729224944813, 0.2996184760421757]
        p = [np.array(0.0)]
        st = adam_init(p, lr=0.1)
        seen = []
        for _ in range(3):
            adam_step(st, p, [np.array(float(p[0]) - 3.0)])
            seen.append(float(p[0]))
        assert np.abs(np.array(seen) - np.array(expected)).max() < 1e-12
        ref = ref_adam_trajectory(0.0, lambda q: q - 3.0, 3, lr=0.1)
        assert np.abs(np.array(seen) - np.array(ref)).max() < 1e-12

    def test_shape_mismatch_raises(self):
        p = [np.zeros(3)]
        st = adam_init(p, lr=0.1)
        with pytest.raises(ShapeError):
            adam_step(st, p, [np.zeros(4)])

    def test_determinism_bitwise(self):
        def run():
            rng = make_rng(33, "adam")
            p = [rng.standard_normal((4, 3))]
            st = adam_init(p, lr=1e-2)
            for _ in range(50):
                adam_step(st, p, [p[0] * 0.3 - 1.0])
            return p[0].copy()
        assert np.array_equal(run(), run())


class TestFiniteDiffCheck:
    def test_quadratic_is_exact(self):
        p = [make_rng(40, "q").uniform(0.5, 1.5, size=6)]

        def lg(arrays):
            return 0.5 * float((arrays[0] ** 2).sum()), [arrays[0]]

        rep = finite_diff_check(lg, p, tolerance=1e-9, max_coords=None)
        assert rep.passed and rep.max_rel_err < 1e-9

    def test_mlp_loss_passes(self, seeded_net):
        x = make_rng(41, "x").standard_normal((5, 3))
        rep = finite_diff_check(mse_loss_and_grad(seeded_net, x),
                                mlp_param_arrays(seeded_net), tolerance=1e-4,
                                max_coords=None)
        assert rep.passed

    def test_corrupted_gradient_fails(self):
        p = [make_rng(42, "q").uniform(0.5, 1.5, size=6)]

        def lg(arrays):
            g = arrays[0].copy()
            g[2] = -g[2]  # deliberate sign flip
            return 0.5 * float((arrays[0] ** 2).sum()), [g]

        rep = finite_diff_check(lg, p, tolerance=1e-4, max_coords=None)
        assert not rep.passed

    def test_non_finite_loss_raises(self):
        def lg(arrays):
            return float("nan"), [arrays[0]]
        with pytest.raises(NumericsError):
            finite_diff_check(lg, [np.ones(2)], tolerance=1e-4)
