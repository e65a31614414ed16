import numpy as np
import pytest

from invsen import sennet
from invsen.debias import (
    LossWeights,
    bias_group_shift,
    bias_posterior,
    counterfactual_inputs,
    cross_entropy_grad_logits,
    cross_entropy_loss,
    entropy_confusion_grad_logits,
    entropy_confusion_loss,
    head_accuracy,
    init_bias_heads,
    invariance_grads,
    invariance_loss,
)
from invsen.errors import ShapeError
from invsen.numkit import DenseLayer, MlpParams, make_rng

from oracles import ref_mlp_forward


def logit_head(d, logits):
    """Head producing fixed logits for every sample (zero weights, bias)."""
    return MlpParams(layers=[DenseLayer(w=np.zeros((d, len(logits))),
                                        b=np.asarray(logits, dtype=float),
                                        activation="none")])


class TestBiasPosterior:
    def test_zero_logits_give_uniform(self):
        head = logit_head(4, [0.0, 0.0, 0.0])
        probs, _ = bias_posterior(head, make_rng(0, "e").standard_normal((5, 4)))
        assert np.allclose(probs, 1.0 / 3.0, atol=1e-15)

    def test_softmax_arithmetic(self):
        head = logit_head(2, [np.log(3.0), 0.0])
        probs, _ = bias_posterior(head, np.zeros((3, 2)))
        assert np.allclose(probs, [[0.75, 0.25]] * 3, atol=1e-12)

    def test_rows_sum_to_one(self):
        heads = init_bias_heads(4, hidden=(6, 5), rng=make_rng(1, "h"))
        emb = make_rng(2, "e").standard_normal((20, 4)) * 3.0
        probs, _ = bias_posterior(heads.g, emb)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
        assert probs.min() >= 0.0

    def test_matches_compositional_recomputation(self):
        heads = init_bias_heads(4, hidden=(6,), rng=make_rng(3, "h"))
        emb = make_rng(4, "e").standard_normal((5, 4))
        probs, _ = bias_posterior(heads.g, emb)
        logits = ref_mlp_forward(heads.g, emb)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        assert np.abs(probs - e / e.sum(axis=1, keepdims=True)).max() < 1e-12


class TestCrossEntropy:
    def test_uniform_binary(self):
        probs = np.full((4, 2), 0.5)
        assert cross_entropy_loss(probs, [0, 1, 0, 1]) == pytest.approx(np.log(2.0))

    def test_confident_correct_is_near_zero(self):
        probs = np.array([[1.0 - 1e-9, 1e-9]])
        assert cross_entropy_loss(probs, [0]) < 1e-6

    def test_batch_arithmetic(self):
        probs = np.array([[0.75, 0.25], [0.75, 0.25]])
        expected = -(np.log(0.75) + np.log(0.25)) / 2.0
        assert cross_entropy_loss(probs, [0, 1]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.8370, abs=5e-5)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.full((2, 2), 0.5), [0, 2])

    def test_relabel_invariance(self):
        # permuting classes together with the posterior columns is a no-op
        probs = make_rng(5, "p").dirichlet(np.ones(3), size=10)
        labels = make_rng(6, "l").integers(0, 3, size=10)
        perm = np.array([2, 0, 1])
        assert cross_entropy_loss(probs, labels) == pytest.approx(
            cross_entropy_loss(probs[:, perm], np.argsort(perm)[labels]), abs=1e-12)


class TestEntropyConfusion:
    def test_uniform_is_minus_log_k(self):
        assert entropy_confusion_loss(np.full((6, 2), 0.5)) == pytest.approx(-np.log(2.0))

    def test_one_hot_is_near_zero(self):
        probs = np.array([[1.0 - 1e-9, 1e-9], [1e-9, 1.0 - 1e-9]])
        assert abs(entropy_confusion_loss(probs)) < 1e-6

    def test_row_arithmetic(self):
        probs = np.array([[0.75, 0.25]])
        expected = 0.75 * np.log(0.75) + 0.25 * np.log(0.25)
        assert entropy_confusion_loss(probs) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.5623, abs=5e-5)

    def test_bounds_and_entropy_identity(self):
        probs = make_rng(7, "p").dirichlet(np.ones(4), size=30)
        val = entropy_confusion_loss(probs)
        assert -np.log(4.0) - 1e-12 <= val <= 0.0
        entropy = -(probs * np.log(probs)).sum(axis=1).mean()
        assert val + entropy == pytest.approx(0.0, abs=1e-6)

    def test_uniform_gradient_is_zero(self):
        g = entropy_confusion_grad_logits(np.full((5, 3), 1.0 / 3.0))
        assert np.abs(g).max() < 1e-12


class TestBiasGroupShift:
    def test_rows_are_group_means(self):
        x = make_rng(16, "x").standard_normal((7, 3))
        b = np.array([0, 1, 1, 0, 1, 0, 1])
        shift = bias_group_shift(x, b)
        for i in range(7):
            assert np.allclose(shift[i], x[b == b[i]].mean(axis=0), atol=1e-15)

    def test_one_group_leaves_the_reconstruction_alone(self):
        # every contributor already shares its target's group: no move
        model = sennet.init_se_model(5, hidden=(6,), embed_dim=4,
                                     rng=make_rng(8, "m"))
        x = make_rng(10, "x").standard_normal((8, 5))
        plain = sennet.se_loss(model, x, 10.0, 0.9)
        aligned = sennet.se_loss(model, x, 10.0, 0.9,
                                 shift=bias_group_shift(x, np.zeros(8)),
                                 shift_weight=1.0)
        assert aligned.loss == plain.loss
        assert abs(aligned.l_align) < 1e-12
        assert np.allclose(aligned.grad_key_out, plain.grad_key_out, atol=1e-12)
        assert np.allclose(aligned.grad_query_out, plain.grad_query_out, atol=1e-12)

    def test_misaligned_labels(self):
        with pytest.raises(ShapeError):
            bias_group_shift(np.zeros((4, 2)), [0, 1, 0])


class TestCounterfactualInputs:
    def test_swaps_group_offsets_and_keeps_the_signal(self):
        # signal rows come in +-pairs, so each group's signal averages to 0
        half = make_rng(13, "s").standard_normal((6, 5))
        signal = np.concatenate([half, -half])
        b = np.array([0, 0, 0, 1, 1, 1] * 2)
        offsets = np.array([[3.0, 0, 0, 0, 0], [0, -2.0, 0, 0, 1.0]])
        x_cf = counterfactual_inputs(signal + offsets[b], b)
        assert np.abs(x_cf - (signal + offsets[1 - b])).max() < 1e-12

    def test_group_means_rotate_with_three_classes(self):
        x = make_rng(14, "x").standard_normal((12, 4))
        b = np.array([0, 1, 2, 2] * 3)
        x_cf = counterfactual_inputs(x, b, n_classes=3)
        for k in range(3):
            assert np.allclose(x_cf[b == k].mean(axis=0),
                               x[b == (k + 1) % 3].mean(axis=0), atol=1e-12)

    def test_absent_group_leaves_its_neighbours_in_place(self):
        x = make_rng(15, "x").standard_normal((6, 3))
        assert np.array_equal(counterfactual_inputs(x, np.zeros(6, dtype=int)), x)
        b = np.array([0, 0, 1, 1, 0, 1])  # group 2 of 3 is absent
        x_cf = counterfactual_inputs(x, b, n_classes=3)
        assert np.array_equal(x_cf[b == 1], x[b == 1])  # 1 -> 2: no estimate
        shift = x[b == 1].mean(axis=0) - x[b == 0].mean(axis=0)
        assert np.allclose(x_cf[b == 0], x[b == 0] + shift, atol=1e-12)

    def test_misaligned_labels(self):
        with pytest.raises(ShapeError):
            counterfactual_inputs(np.zeros((4, 2)), [0, 1, 0])


class TestInvarianceLoss:
    def test_zero_exactly_when_nothing_moves(self):
        emb = make_rng(16, "e").standard_normal((5, 3))
        assert invariance_loss(emb, emb.copy()) == 0.0
        g, g_cf = invariance_grads(emb, emb.copy())
        assert not g.any() and not g_cf.any()

    def test_hand_computed(self):
        emb = np.array([[1.0, 0.0], [0.0, 0.0]])
        emb_cf = np.array([[0.0, 0.0], [0.0, 2.0]])
        # 0.5 * (1 + 4) / 2
        assert invariance_loss(emb, emb_cf) == pytest.approx(1.25, abs=1e-15)
        g, g_cf = invariance_grads(emb, emb_cf)
        assert np.array_equal(g, [[0.5, 0.0], [0.0, -1.0]])
        assert np.array_equal(g_cf, -g)


class TestGradLogits:
    def test_cross_entropy_grad_matches_probs_minus_onehot(self):
        probs = make_rng(12, "p").dirichlet(np.ones(3), size=6)
        labels = np.array([0, 1, 2, 1, 0, 2])
        g = cross_entropy_grad_logits(probs, labels)
        onehot = np.eye(3)[labels]
        assert np.allclose(g, (probs - onehot) / 6.0, atol=1e-15)

    def test_head_accuracy(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        assert head_accuracy(probs, [0, 1, 1, 1]) == pytest.approx(0.75)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            LossWeights(gamma=-1.0)
        with pytest.raises(ValueError):
            LossWeights(delta=1.5)
        with pytest.raises(ValueError):
            LossWeights(lam=-0.1)
