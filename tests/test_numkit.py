import warnings

import numpy as np
import pytest

from invsen import numkit
from invsen.errors import NumericsError, ShapeError
from invsen.numkit import (
    adam_init,
    adam_step,
    init_mlp,
    make_rng,
    mlp_backward,
    mlp_forward,
    mlp_param_arrays,
    mlp_shapes,
    normalize_rows,
)

from gradcheck import clone_mlp, finite_diff_check, set_param_arrays
from oracles import ref_adam_arrays_step, ref_adam_trajectory, ref_mlp_forward


@pytest.fixture
def seeded_net():
    return init_mlp([3, 4, 2], ["relu", "tanh"], batchnorm=False,
                    rng=make_rng(7, "net"))


def mse_loss_and_grad(template, x):
    """loss = 0.5 * sum(out^2) over a reconstructed copy of the net."""
    def fn(arrays):
        net = clone_mlp(template)
        set_param_arrays(net, [a.copy() for a in arrays])
        out, cache = mlp_forward(net, x)
        loss = 0.5 * float((out ** 2).sum())
        grads, _ = mlp_backward(net, cache, out)
        return loss, grads
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
        out, _ = mlp_forward(seeded_net, x)
        ref = ref_mlp_forward(seeded_net, x)
        assert np.abs(out - ref).max() < 1e-12

    def test_matches_reference_with_batchnorm(self):
        net = init_mlp([3, 5, 2], ["relu", "none"], batchnorm=[True, False],
                       rng=make_rng(4, "bn"))
        x = make_rng(5, "x").standard_normal((7, 3))
        ref = ref_mlp_forward(net, x)  # before running stats move
        out, _ = mlp_forward(net, x)
        assert np.abs(out - ref).max() < 1e-12

    def test_dimension_mismatch_names_layer(self, seeded_net):
        with pytest.raises(ShapeError, match="layer 0"):
            mlp_forward(seeded_net, np.zeros((2, 5)))

    def test_forward_mutates_nothing(self):
        net = init_mlp([3, 4, 2], ["relu", "none"], batchnorm=True, rng=make_rng(6, "bn"))
        x = make_rng(7, "x").standard_normal((4, 3)) + 5.0
        before = [a.copy() for a in mlp_param_arrays(net)]
        x_before = x.copy()
        out1, _ = mlp_forward(net, x)
        out2, _ = mlp_forward(net, x)
        assert out1.tobytes() == out2.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(mlp_param_arrays(net), before))
        assert x.tobytes() == x_before.tobytes()


class TestMlpBackward:
    def test_zero_grad_output_gives_zero_grads(self, seeded_net):
        x = make_rng(9, "x").standard_normal((4, 3))
        out, cache = mlp_forward(seeded_net, x)
        grads, gin = mlp_backward(seeded_net, cache, np.zeros_like(out))
        assert np.array_equal(gin, np.zeros_like(x))
        for g in grads:
            assert np.array_equal(g, np.zeros_like(g))

    def test_single_linear_layer_chain_rule(self):
        # y = x W + b; grad_W = x^T G, grad_b = sum G, grad_x = G W^T
        net = init_mlp([3, 2], ["none"], batchnorm=False, rng=make_rng(10, "l"))
        x = make_rng(11, "x").standard_normal((5, 3))
        g = make_rng(12, "g").standard_normal((5, 2))
        _, cache = mlp_forward(net, x)
        grads, gin = mlp_backward(net, cache, g)
        g_w, g_b = grads
        assert np.allclose(g_w, x.T @ g, atol=1e-14)
        assert np.allclose(g_b, g.sum(axis=0), atol=1e-14)
        assert np.allclose(gin, g @ net.layers[0].w.T, atol=1e-14)

    def test_input_gradient_alone_matches_full_pass(self):
        net = init_mlp([3, 5, 4, 2], ["relu", "tanh", "none"], batchnorm=[True, False, False],
                       rng=make_rng(15, "in"))
        x = make_rng(16, "x").standard_normal((6, 3))
        out, cache = mlp_forward(net, x)
        g = make_rng(17, "g").standard_normal(out.shape)
        _, gin = mlp_backward(net, cache, g)
        grads, gin_only = mlp_backward(net, cache, g, param_grads=False)
        assert grads == []
        assert gin_only.tobytes() == gin.tobytes()

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
        out, cache = mlp_forward(net, x)
        g = make_rng(22, "g").standard_normal(out.shape)
        _, _, g_scale, g_shift = mlp_backward(net, cache, g)[0]
        assert np.abs(g_scale).max() < 1e-12  # xhat is 0
        assert np.allclose(g_shift, g.sum(axis=0))

    def test_stale_cache_rejected(self, seeded_net):
        x = make_rng(23, "x").standard_normal((4, 3))
        _, cache = mlp_forward(seeded_net, x)
        other = init_mlp([3, 6, 2], ["relu", "tanh"], batchnorm=False,
                         rng=make_rng(24, "o"))
        with pytest.raises(ShapeError):
            mlp_backward(other, cache, np.zeros((4, 2)))
        with pytest.raises(ShapeError):
            mlp_backward(seeded_net, cache, np.zeros((4, 3)))


class TestFlatLayout:
    def test_init_mlp_lays_arrays_out_in_one_vector(self):
        dims, bn = [3, 5, 2], [True, False]
        vec = np.zeros(numkit.flat_size(mlp_shapes(dims, bn)))
        net = init_mlp(dims, ["relu", "none"], bn, make_rng(4, "bn"), out=vec)
        arrays = mlp_param_arrays(net)
        assert [a.shape for a in arrays] == mlp_shapes(dims, bn)
        assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), vec)
        assert all(np.shares_memory(a, vec) for a in arrays)
        # the same draws as a net with a vector of its own
        fresh = init_mlp(dims, ["relu", "none"], bn, make_rng(4, "bn"))
        assert all(np.array_equal(a, c)
                   for a, c in zip(arrays, mlp_param_arrays(fresh)))
        with pytest.raises(ShapeError):
            init_mlp(dims, ["relu", "none"], bn, make_rng(4, "bn"), out=vec[1:])

    @pytest.mark.parametrize("bn", [False, [True, False]])
    def test_backward_into_a_vector_same_bits(self, bn):
        net = init_mlp([3, 5, 2], ["relu", "tanh"], bn, make_rng(25, "o"))
        x = make_rng(26, "x").standard_normal((6, 3))
        out, cache = mlp_forward(net, x)
        g1 = make_rng(27, "g").standard_normal(out.shape)
        g2 = make_rng(28, "g").standard_normal(out.shape)
        fresh1, gin1 = mlp_backward(net, cache, g1)
        fresh2, _ = mlp_backward(net, cache, g2)
        vec = np.full(sum(a.size for a in fresh1), np.nan)
        views, gin = mlp_backward(net, cache, g1, vec)
        assert all(np.shares_memory(v, vec) for v in views)
        assert np.array_equal(gin, gin1)
        assert all(np.array_equal(v, f) for v, f in zip(views, fresh1))
        # add=True: the first pass plus the second, as the sum of two fresh ones
        mlp_backward(net, cache, g2, vec, add=True)
        assert all(np.array_equal(v, a + c) for v, a, c in zip(views, fresh1, fresh2))
        with pytest.raises(ShapeError):
            mlp_backward(net, cache, g1, vec[1:])


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        p = np.array([1.0, -2.0, 3.0])
        st = adam_init(p, lr=0.1)
        adam_step(st, [p], [np.zeros(3)])
        assert np.array_equal(p, [1.0, -2.0, 3.0])
        assert st.t == 1

    def test_first_step_is_signed_lr(self):
        # with eps << |g| the first update is about -lr * sign(g)
        p = np.array([0.5])
        st = adam_init(p, lr=1e-3)
        adam_step(st, [p], [np.array([7.3])])
        assert abs(float(p[0]) - (0.5 - 1e-3)) < 1e-9

    def test_three_steps_match_hand_rolled_oracle(self):
        # frozen from the reference scalar Adam on loss 0.5*(p-3)^2,
        # p0 = 0, lr = 0.1
        expected = [0.09999999966666669, 0.19989729224944813, 0.2996184760421757]
        p = np.array([0.0])
        st = adam_init(p, lr=0.1)
        seen = []
        for _ in range(3):
            adam_step(st, [p], [p - 3.0])
            seen.append(float(p[0]))
        assert np.abs(np.array(seen) - np.array(expected)).max() < 1e-12
        ref = ref_adam_trajectory(0.0, lambda q: q - 3.0, 3, lr=0.1)
        assert np.abs(np.array(seen) - np.array(ref)).max() < 1e-12

    def test_shape_mismatch_raises(self):
        p = np.zeros(3)
        st = adam_init(p, lr=0.1)
        with pytest.raises(ShapeError):
            adam_step(st, [p], [np.zeros(4)])
        with pytest.raises(ShapeError):
            adam_step(st, [p[:2]], [np.zeros(2)])
        with pytest.raises(ShapeError):
            adam_step(st, [p[:2], p[2:]], [np.zeros(2), np.zeros(1)])
        with pytest.raises(ShapeError):
            adam_init(np.zeros((2, 2)), lr=0.1)

    def test_determinism_bitwise(self):
        def run():
            rng = make_rng(33, "adam")
            p = rng.standard_normal(12)
            st = adam_init(p, lr=1e-2)
            for _ in range(50):
                adam_step(st, [p], [p * 0.3 - 1.0])
            return p.copy()
        assert np.array_equal(run(), run())

    def test_fused_update_matches_per_array_reference(self):
        # one update over the flat vector against the per-array update on
        # copies of each array and its moments, bit for bit over 50 steps;
        # some steps have all-zero or tiny (down to subnormal) gradients
        shapes = [(4, 3), (3,), (), (5,)]
        rng = make_rng(34, "adam")
        p = rng.standard_normal(numkit.flat_size(shapes))
        st = adam_init(p, lr=3e-2)
        ref_p = [a.copy() for a in numkit.flat_views(p, shapes)]
        ref_m = [np.zeros(s) for s in shapes]
        ref_v = [np.zeros(s) for s in shapes]
        for step in range(1, 51):
            g = rng.standard_normal(p.size)
            if step % 7 == 0:
                g[:] = 0.0
            elif step % 5 == 0:
                g *= 1e-300
                g[::3] = 5e-324
            adam_step(st, [p], [g])
            ref_adam_arrays_step(ref_p, numkit.flat_views(g, shapes), ref_m, ref_v,
                                 step, lr=3e-2)
            assert np.array_equal(p, np.concatenate([a.ravel() for a in ref_p]))
            assert np.array_equal(st.m, np.concatenate([a.ravel() for a in ref_m]))
            assert np.array_equal(st.v, np.concatenate([a.ravel() for a in ref_v]))

    def test_overflow_raises_without_a_warning(self):
        p = np.ones(3)
        st = adam_init(p, lr=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="non-finite"):
                for _ in range(3):
                    adam_step(st, [p], [np.full(3, -1.0)])


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
