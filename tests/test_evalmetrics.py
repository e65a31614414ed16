import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from invsen.cluster import ClusterLabels
from invsen.errors import ConfigError, ShapeError
from invsen.evalmetrics import (
    accuracy,
    ari,
    contingency_table,
    discrete_mi,
    evaluate_labels,
    label_entropy,
    nmi,
    optimal_assignment,
    subspace_preserving_rate,
)
from invsen.numkit import make_rng

from oracles import (
    acc_bruteforce,
    ari_paircount,
    assignment_bruteforce,
    entropy_direct,
    mi_direct,
    nmi_direct,
)


class TestOptimalAssignment:
    def test_obvious_optimum(self):
        perm = optimal_assignment(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert np.array_equal(perm, [0, 1])

    def test_row_constant_invariance(self):
        cost = make_rng(0, "c").uniform(0, 10, size=(4, 4))
        base = optimal_assignment(cost)
        shifted = cost.copy()
        shifted[2] += 100.0
        assert np.array_equal(base, optimal_assignment(shifted))

    def test_matches_factorial_bruteforce(self):
        for seed in range(5):
            cost = make_rng(seed, "bf").uniform(0, 1, size=(5, 5))
            perm = optimal_assignment(cost)
            _, best_cost = assignment_bruteforce(cost)
            got = sum(cost[i, perm[i]] for i in range(5))
            assert got == pytest.approx(best_cost, abs=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            optimal_assignment(np.zeros((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            optimal_assignment(np.array([[0.0, np.inf], [1.0, 0.0]]))

    def test_empty(self):
        assert optimal_assignment(np.zeros((0, 0))).shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda k: st.tuples(
        st.just(k), st.one_of(
            # few distinct integers: ties everywhere, zero and negative costs
            st.lists(st.integers(-3, 3), min_size=k * k, max_size=k * k),
            st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=k * k,
                     max_size=k * k)))))
    def test_cost_matches_bruteforce(self, case):
        k, entries = case
        cost = np.array(entries, dtype=float).reshape(k, k)
        perm = optimal_assignment(cost)
        assert sorted(perm.tolist()) == list(range(k))
        _, best_cost = assignment_bruteforce(cost)
        got = cost[np.arange(k), perm].sum()
        assert got == pytest.approx(best_cost, rel=1e-12, abs=1e-6)

    def test_cost_matches_scipy(self):
        rng = make_rng(6, "lsa")
        costs = []
        for trial in range(60):
            k = int(rng.integers(1, 61))
            if trial % 3 == 0:
                costs.append(rng.normal(size=(k, k)))
            elif trial % 3 == 1:
                costs.append(rng.integers(-5, 6, size=(k, k)).astype(float))
            else:  # contingency-like: negated counts, mostly zero
                costs.append(-rng.poisson(0.3, size=(k, k)).astype(float))
        # cost[i, j] = i * j: each new row displaces the matching built so far
        costs.append(np.multiply.outer(np.arange(40), np.arange(40)).astype(float))
        for cost in costs:
            k = cost.shape[0]
            perm = optimal_assignment(cost)
            assert sorted(perm.tolist()) == list(range(k))
            rows, cols = linear_sum_assignment(cost)
            assert cost[np.arange(k), perm].sum() == pytest.approx(
                cost[rows, cols].sum(), rel=1e-12, abs=1e-9)


class TestAccuracy:
    def test_identity(self):
        assert accuracy([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0

    def test_relabeling(self):
        truth = np.array([0, 1, 2, 1, 0])
        assert accuracy((truth + 1) % 3, truth) == 1.0

    def test_spec_example(self):
        # brute force over the 2 bijections gives 3/4
        assert acc_bruteforce([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75
        assert accuracy([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75

    def test_unequal_label_counts_pad(self):
        assert accuracy([0, 1, 2, 3], [0, 0, 1, 1]) == 0.5

    def test_at_least_chance_on_balanced_truth(self):
        # with k balanced true classes the best constant labeling scores
        # exactly 1/k, and the bijection maximum can never fall below it
        rng = make_rng(1, "acc")
        for _ in range(30):
            k = int(rng.integers(2, 4))
            reps = int(rng.integers(1, 5))
            truth = rng.permutation(np.repeat(np.arange(k), reps))
            pred = rng.integers(0, k, size=truth.size)
            const = np.zeros(truth.size, dtype=int)
            assert accuracy(const, truth) == pytest.approx(1.0 / k)
            assert accuracy(pred, truth) >= 1.0 / k - 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            accuracy([0, 1], [0, 1, 1])

    @pytest.mark.parametrize("labels", [
        np.zeros((3, 1), dtype=int), np.int64(0), ClusterLabels(labels=np.zeros(3, dtype=int)),
    ], ids=["2-d", "0-d", "ClusterLabels"])
    def test_labels_not_1d(self, labels):
        # a ClusterLabels is not its label array: callers pass .labels
        with pytest.raises(ShapeError):
            accuracy(labels, [0, 1, 1])

    @pytest.mark.parametrize("pred", [[0.5, 1.7, 1.2], [0.0, np.nan, 1.0], [0.0, np.inf, 1.0],
                                      [0.0, 1e300, 1.0]],
                             ids=["fractional", "nan", "inf", "beyond-int64"])
    def test_non_integral_labels_refused(self, pred):
        # a cast would read [0.5, 1.7, 1.2] as [0, 1, 1], a perfect match
        with pytest.raises(ConfigError, match="integers"):
            accuracy(pred, [0, 1, 1])

    def test_integral_float_labels_read_as_ints(self):
        assert accuracy([0.0, 1.0, 1.0], [1, 0, 0]) == 1.0
        assert accuracy([0.0, 1.0, 2.0], [1, 1, 1]) == pytest.approx(1.0 / 3.0)

    def test_matches_bruteforce_on_ties(self):
        # two or three labels and few samples: many bijections tie
        rng = make_rng(8, "acc-ties")
        for _ in range(200):
            n = int(rng.integers(1, 9))
            pred = rng.integers(0, int(rng.integers(1, 5)), size=n)
            truth = rng.integers(0, int(rng.integers(1, 5)), size=n)
            assert accuracy(pred, truth) == acc_bruteforce(pred, truth)

    def test_sparse_label_values(self):
        # the problem is sized by the values present: 10**9 costs what 4 does
        rng = make_rng(9, "acc-sparse")
        values = np.array([0, 3, 17, 1000, 10**9])
        for _ in range(50):
            pred = values[rng.integers(0, 5, size=12)]
            truth = values[rng.integers(1, 4, size=12)]
            assert accuracy(pred, truth) == acc_bruteforce(pred, truth)


class TestNmi:
    def test_perfect_dependence(self):
        assert nmi([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_exact_independence(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_fixture_value(self):
        # H(truth) = 1.5 ln 2, MI = ln 2, so NMI = sqrt(2/3) exactly
        val = nmi([0, 0, 1, 1], [0, 0, 1, 2])
        assert val == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
        assert val == pytest.approx(nmi_direct([0, 0, 1, 1], [0, 0, 1, 2]), abs=1e-12)

    def test_constant_conventions(self):
        assert nmi([0, 0, 0], [1, 1, 1]) == 1.0  # both constant: same partition
        assert nmi([0, 0, 0], [0, 1, 1]) == 0.0  # one constant only

    def test_self_is_one(self):
        x = [0, 1, 1, 2, 0]
        assert nmi(x, x) == pytest.approx(1.0, abs=1e-12)


class TestAri:
    def test_identical(self):
        assert ari([0, 1, 1, 2], [0, 1, 1, 2]) == pytest.approx(1.0)

    def test_constant_vs_balanced(self):
        assert ari([0, 0, 0, 0], [0, 0, 1, 1]) == pytest.approx(0.0)

    def test_fixture_value(self):
        val = ari([0, 0, 1, 1], [0, 0, 1, 2])
        assert val == pytest.approx(4.0 / 7.0, abs=1e-12)
        assert val == ari_paircount([0, 0, 1, 1], [0, 0, 1, 2])

    def test_self_is_one_even_for_singletons(self):
        assert ari([0, 1, 2, 3], [3, 2, 1, 0]) == 1.0

    def test_random_agreement_near_zero(self):
        rng = make_rng(2, "ari")
        vals = [ari(rng.integers(0, 3, size=60), rng.integers(0, 3, size=60))
                for _ in range(50)]
        assert abs(float(np.mean(vals))) < 0.05


class TestDiscreteMi:
    def test_independent(self):
        assert discrete_mi([0, 0, 1, 1], [0, 1, 0, 1]) == 0.0

    def test_identical_balanced_binary(self):
        assert discrete_mi([0, 1, 0, 1], [0, 1, 0, 1]) == pytest.approx(np.log(2.0))

    def test_joint_table_fixture(self):
        # 3x2 joint counts [[2,1],[0,3],[1,1]]; oracle sums p log p/(pa pb)
        a = [0, 0, 0, 1, 1, 1, 2, 2]
        b = [0, 0, 1, 1, 1, 1, 0, 1]
        assert np.array_equal(contingency_table(a, b), [[2, 1], [0, 3], [1, 1]])
        assert discrete_mi(a, b) == pytest.approx(mi_direct(a, b), abs=1e-12)

    def test_bounded_by_entropies(self):
        rng = make_rng(3, "mi")
        for _ in range(40):
            n = int(rng.integers(2, 30))
            a = rng.integers(0, 4, size=n)
            b = rng.integers(0, 3, size=n)
            v = discrete_mi(a, b)
            assert v >= 0.0
            assert v <= min(label_entropy(a), label_entropy(b)) + 1e-12
            assert label_entropy(a) == pytest.approx(entropy_direct(a), abs=1e-12)


class TestPermutationInvariance:
    def test_all_metrics(self):
        rng = make_rng(4, "perm")
        pred = rng.integers(0, 3, size=40)
        truth = rng.integers(0, 3, size=40)
        perm = rng.permutation(40)
        relabel = np.array([2, 0, 1])
        for fn in (accuracy, nmi, ari, discrete_mi):
            base = fn(pred, truth)
            assert fn(pred[perm], truth[perm]) == pytest.approx(base, abs=1e-12)
            assert fn(relabel[pred], truth) == pytest.approx(base, abs=1e-12)


class TestSubspacePreservingRate:
    def test_ideal(self):
        c = np.array([[0.0, 2.0], [1.0, 0.0]])
        assert subspace_preserving_rate(c, [0, 0]) == 1.0

    def test_worst_case(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert subspace_preserving_rate(c, [0, 1]) == 0.0

    def test_hand_built_mixed(self):
        c = np.array([[0.0, 0.5, 1.0, 0.0],
                      [2.0, 0.0, 0.0, 1.0],
                      [0.0, 1.0, 0.0, 1.0],
                      [1.0, 0.0, 1.0, 0.0]])
        truth = [0, 0, 1, 1]
        # columns: 2/3, 1/3, 1/2, 1/2 -> mean 0.5
        assert subspace_preserving_rate(c, truth) == pytest.approx(0.5)

    def test_empty_columns_skipped(self):
        c = np.array([[0.0, 1.0, 0.0],
                      [1.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0]])
        # column 2 has no mass; mean over the two live columns
        assert subspace_preserving_rate(c, [0, 0, 1]) == 1.0


class TestMetricsReport:
    def test_round_trip_fields(self):
        rep = evaluate_labels([0, 0, 1, 1], [0, 0, 1, 1], [0, 1, 0, 1])
        d = rep.to_dict()
        assert d["acc"] == 1.0 and d["n"] == 4
        assert d["mi_pred_bias"] == pytest.approx(0.0)

    def test_missing_bias_gives_none(self):
        rep = evaluate_labels([0, 1], [0, 1])
        assert rep.mi_pred_bias is None and rep.mi_true_bias is None
