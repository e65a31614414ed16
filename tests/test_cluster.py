import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from invsen import cluster, datagen, trainer
from invsen.cluster import (
    BLOCK,
    SpectralConfig,
    build_affinity,
    kmeans,
    normalized_laplacian,
    smallest_eigenvectors,
    spectral_cluster,
)
from invsen.debias import LossWeights
from invsen.errors import NumericsError, ShapeError
from invsen.evalmetrics import accuracy
from invsen.numkit import make_rng, normalize_rows
from invsen.sennet import coefficient_matrix, init_se_model

from oracles import jacobi_eigh, kmeans_bruteforce


def block_affinity(sizes, rng, lo=0.5, hi=1.0, permute=True):
    """Exactly block-diagonal affinity with positive within-block weights;
    returns (A, labels)."""
    n = sum(sizes)
    a = np.zeros((n, n))
    labels = np.zeros(n, dtype=int)
    start = 0
    for c, size in enumerate(sizes):
        w = rng.uniform(lo, hi, size=(size, size))
        w = 0.5 * (w + w.T)
        np.fill_diagonal(w, 0.0)
        a[start:start + size, start:start + size] = w
        labels[start:start + size] = c
        start += size
    if permute:
        perm = rng.permutation(n)
        a = a[np.ix_(perm, perm)]
        labels = labels[perm]
    a = 0.5 * (a + a.T)
    return a, labels


def assert_null_space_spans_indicators(sizes, rng, permute=True):
    """The smallest eigenvalues of an exactly block-diagonal affinity's
    Laplacian are zero, one per block, and their eigenvectors span the
    degree-scaled block indicators."""
    a, labels = block_affinity(sizes, rng, permute=permute)
    vals, vecs = smallest_eigenvectors(normalized_laplacian(a), len(sizes))
    assert np.abs(vals).max() < 1e-10
    deg = np.sqrt(a.sum(axis=1))
    for c in range(len(sizes)):
        w = np.where(labels == c, deg, 0.0)
        w /= np.linalg.norm(w)
        assert np.linalg.norm(vecs @ (vecs.T @ w) - w) < 1e-8


# Two blocks of n = 2 * BLOCK + 10 samples: three tile rows, the last partial.
TILED_SIZES = [BLOCK + 22, BLOCK - 12]
# One off-diagonal entry in the first tile, in the tile farthest from the
# diagonal and in the last diagonal tile.
TILE_PROBES = [
    pytest.param(lambda n: (0, 1), id="first-tile"),
    pytest.param(lambda n: (0, n - 1), id="far-tile"),
    pytest.param(lambda n: (n - 1, n - 2), id="last-diagonal-tile"),
]


class TestAffinity:
    def test_matches_independent_coefficients(self):
        model = init_se_model(4, hidden=(6,), embed_dim=4, rng=make_rng(0, "m"))
        model.beta_raw = np.array(-3.0)
        x = make_rng(1, "x").standard_normal((8, 4))
        a = build_affinity(model, x)
        c = coefficient_matrix(model, normalize_rows(x))
        assert np.array_equal(a, np.abs(c) + np.abs(c.T))
        assert np.array_equal(a, a.T)
        assert a.min() >= 0.0

    # a negative alpha is what a learnable alpha can reach in training;
    # exchanging the nets transposes the inner products, so both
    # orientations of an asymmetric C go through the tiles
    @pytest.mark.parametrize("alpha", [1.3, -0.7])
    @pytest.mark.parametrize("exchange_nets", [False, True])
    @pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK, BLOCK + 1, 600])
    def test_blocked_matches_plain_expression(self, n, exchange_nets, alpha):
        model = init_se_model(5, hidden=(8,), embed_dim=6, rng=make_rng(30, "m"))
        if exchange_nets:
            model.key_net, model.query_net = model.query_net, model.key_net
        model.alpha[...] = alpha
        model.beta_raw[...] = -0.5  # beta ~ 0.47: live and dead pairs
        x = make_rng(31, "x").standard_normal((n, 5))
        c = coefficient_matrix(model, normalize_rows(x))
        a = build_affinity(model, x)
        if n > 2:
            assert 0.05 < np.count_nonzero(a) / a.size < 0.95
        assert a.tobytes() == (np.abs(c) + np.abs(c.T)).tobytes()

    @pytest.mark.parametrize("shape", [(1, 4), (4,), (5, 3), (5, 4, 1)])
    def test_bad_input_shape_rejected(self, shape):
        model = init_se_model(4, hidden=(6,), embed_dim=4, rng=make_rng(0, "m"))
        with pytest.raises(ShapeError):
            build_affinity(model, np.ones(shape))


class TestNormalizedLaplacian:
    def test_two_node_graph(self):
        lap = normalized_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)
        vals = np.linalg.eigvalsh(lap)
        assert np.allclose(vals, [0.0, 2.0], atol=1e-12)

    def test_block_diagonal_zero_multiplicity(self):
        a, _ = block_affinity([4, 5, 3], make_rng(2, "blk"), permute=False)
        lap = normalized_laplacian(a)
        vals = np.linalg.eigvalsh(lap)
        assert np.sum(np.abs(vals) < 1e-10) == 3

    def test_elementwise_formula(self):
        a, _ = block_affinity([6, 6], make_rng(3, "blk"))
        lap = normalized_laplacian(a)
        deg = a.sum(axis=1)
        expected = np.eye(12) - a / np.sqrt(np.outer(deg, deg))
        assert np.abs(lap - expected).max() < 1e-12
        vals = np.linalg.eigvalsh(lap)
        assert vals.min() > -1e-12 and vals.max() < 2.0 + 1e-12

    def test_isolated_vertex(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        lap = normalized_laplacian(a)
        assert lap[2, 2] == 1.0 and lap[2, 0] == 0.0  # zero-degree row

    def test_asymmetric_rejected(self):
        with pytest.raises(NumericsError):
            normalized_laplacian(np.array([[0.0, 1.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("where", TILE_PROBES)
    def test_asymmetric_entry_in_any_tile_rejected(self, where):
        a, _ = block_affinity(TILED_SIZES, make_rng(23, "blk"))
        i, j = where(a.shape[0])
        a[i, j] += 1e-13
        with pytest.raises(NumericsError, match="not symmetric"):
            normalized_laplacian(a)

    def test_nan_rejected_before_labels(self):
        a, _ = block_affinity([20, 20], make_rng(24, "blk"))
        a[3, 30] = a[30, 3] = np.nan
        with pytest.raises(NumericsError):
            spectral_cluster(a, SpectralConfig(k=2, seed=0))

    def test_affinity_left_intact(self):
        a, _ = block_affinity(TILED_SIZES, make_rng(25, "blk"))
        before = a.copy()
        spectral_cluster(a, SpectralConfig(k=2, seed=0))
        assert a.tobytes() == before.tobytes()


class TestSmallestEigenvectors:
    def test_diagonal_case(self):
        vals, vecs = smallest_eigenvectors(np.diag([0.1, 0.5, 0.9]), 1)
        assert vals[0] == pytest.approx(0.1)
        assert np.allclose(np.abs(vecs[:, 0]), [1.0, 0.0, 0.0], atol=1e-12)

    def test_disconnected_graph_indicator_span(self):
        assert_null_space_spans_indicators([5, 4], make_rng(4, "blk"), permute=False)

    def test_matches_jacobi_oracle(self):
        m = make_rng(5, "sym").standard_normal((8, 8))
        sym = 0.5 * (m + m.T)
        vals, vecs = smallest_eigenvectors(sym, 8)
        ref_vals, _ = jacobi_eigh(sym)
        assert np.abs(vals - ref_vals).max() < 1e-8
        # orthonormality and eigen residuals
        assert np.abs(vecs.T @ vecs - np.eye(8)).max() < 1e-8
        assert np.abs(sym @ vecs - vecs * vals).max() < 1e-8

    def test_k_out_of_range(self):
        with pytest.raises(ShapeError):
            smallest_eigenvectors(np.eye(3), 4)


def dense_smallest(lap, k):
    """Oracle: all eigenpairs by dense eigh, the first k sign-fixed."""
    vals, vecs = np.linalg.eigh(lap)
    vecs = vecs[:, :k].copy()
    for j in range(k):
        if vecs[np.argmax(np.abs(vecs[:, j])), j] < 0:
            vecs[:, j] = -vecs[:, j]
    return vals[:k], vecs


@pytest.fixture(scope="module")
def trained_affinity():
    """Affinity of a short fit over 600 samples on three subspaces."""
    geo = datagen.DataGenConfig(n_per_cluster=200, k_subspaces=3, ambient_dim=30,
                                subspace_rank=4, noise_sigma=0.01,
                                bias_flip_e=0.5, seed=0)
    ds = datagen.generate(geo, "train")
    state = trainer.fit(trainer.TrainConfig(epochs=20, batch_size=128, seed=0,
                                            weights=LossWeights(gamma=50.0, delta=0.9)), ds)
    return build_affinity(state.model, ds.X), ds.s


class TestLanczosSolver:
    def test_matches_dense_on_trained_affinity(self, trained_affinity):
        a, truth = trained_affinity
        lap = normalized_laplacian(a)
        vals, vecs = smallest_eigenvectors(lap, 3)
        ref_vals, ref_vecs = dense_smallest(lap, 3)
        assert np.abs(vals - ref_vals).max() < 1e-8
        assert np.abs(vecs - ref_vecs).max() < 1e-8
        cfg = SpectralConfig(k=3, seed=4)
        labels = spectral_cluster(a, cfg).labels
        assert np.array_equal(labels, kmeans(ref_vecs, 3, seed=4).labels)
        assert accuracy(labels, truth) == 1.0

    def test_large_null_space_indicator_span(self):
        assert_null_space_spans_indicators([200, 200, 200], make_rng(17, "blk"))

    def test_deterministic(self, trained_affinity):
        lap = normalized_laplacian(trained_affinity[0])
        first = smallest_eigenvectors(lap, 3)
        smallest_eigenvectors(normalized_laplacian(block_affinity(
            [20, 20], make_rng(18, "blk"))[0]), 2)
        second = smallest_eigenvectors(lap, 3)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_dense_path_only_for_k_equal_n(self, monkeypatch):
        a, _ = block_affinity([5, 4], make_rng(19, "blk"))

        def no_dense(*args, **kwargs):
            raise AssertionError("dense eigh called for k < n")

        monkeypatch.setattr(np.linalg, "eigh", no_dense)
        vals, _ = smallest_eigenvectors(normalized_laplacian(a), 2)
        assert np.abs(vals).max() < 1e-10

    def test_asymmetric_matrix_rejected(self):
        # off by far less than the residual check would notice
        lap = normalized_laplacian(block_affinity([15, 15], make_rng(21, "blk"))[0])
        lap[0, 1] += 1e-13
        with pytest.raises(NumericsError, match="not symmetric"):
            smallest_eigenvectors(lap, 2)

    @pytest.mark.parametrize("where", TILE_PROBES)
    def test_asymmetric_entry_in_any_tile_rejected(self, where):
        lap = normalized_laplacian(block_affinity(TILED_SIZES, make_rng(26, "blk"))[0])
        i, j = where(lap.shape[0])
        lap[i, j] += 1e-13
        with pytest.raises(NumericsError, match="not symmetric"):
            smallest_eigenvectors(lap, 2)

    def test_no_convergence_is_numerics_error(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence",
                                      np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(cluster, "eigsh", stalled)
        a, _ = block_affinity([10, 10], make_rng(22, "blk"))
        with pytest.raises(NumericsError, match="eigendecomposition failed"):
            smallest_eigenvectors(normalized_laplacian(a), 2)


class TestInPlaceForms:
    """The in-place evaluation path gives the bits of the plain expressions."""

    def test_affinity_is_abs_plus_abs_transpose(self):
        model = init_se_model(5, hidden=(8,), embed_dim=6, alpha=1.3,
                              rng=make_rng(30, "m"))
        model.beta_raw[...] = -0.5  # beta ~ 0.47: live and dead pairs
        x = make_rng(31, "x").standard_normal((300, 5))
        c = coefficient_matrix(model, normalize_rows(x))
        a = build_affinity(model, x)
        assert 0.1 < np.count_nonzero(a) / a.size < 0.9
        assert a.tobytes() == (np.abs(c) + np.abs(c.T)).tobytes()

    @pytest.mark.parametrize("isolated", [False, True])
    def test_laplacian_matches_plain_expression(self, trained_affinity, isolated):
        a = trained_affinity[0].copy()
        if isolated:
            a[7, :] = a[:, 7] = 0.0
        deg = a.sum(axis=1)
        with np.errstate(divide="ignore"):
            dinv = np.where(deg > 0.0, 1.0 / np.sqrt(deg), 0.0)
        expected = -(a * np.outer(dinv, dinv))
        np.fill_diagonal(expected, 1.0 + np.diag(expected))
        lap = normalized_laplacian(a)
        assert lap.tobytes() == expected.tobytes()
        assert max(lap.max(), -lap.min()) == np.abs(lap).max()


class TestKmeans:
    def test_separated_groups(self):
        rng = make_rng(6, "km")
        a = rng.standard_normal((10, 3)) * 0.05 + np.array([5.0, 0.0, 0.0])
        b = rng.standard_normal((12, 3)) * 0.05 + np.array([0.0, 5.0, 0.0])
        rows = np.vstack([a, b])
        truth = np.array([0] * 10 + [1] * 12)
        out = kmeans(rows, 2, seed=0)
        assert accuracy(out.labels, truth) == 1.0

    def test_identical_points(self):
        rows = np.ones((7, 2))
        out = kmeans(rows, 2, seed=0)
        rows_n = normalize_rows(rows)
        centers = np.array([rows_n[out.labels == c].mean(axis=0) if
                            (out.labels == c).any() else np.zeros(2)
                            for c in range(2)])
        wcss = ((rows_n - centers[out.labels]) ** 2).sum()
        assert wcss == pytest.approx(0.0, abs=1e-30)

    def test_matches_bruteforce_partition(self):
        # 12 seeded points, 3 groups; enumeration gives the WCSS optimum
        rng = make_rng(7, "km")
        centers = np.array([[4.0, 0.0], [0.0, 4.0], [-4.0, -4.0]])
        rows = np.vstack([rng.standard_normal((4, 2)) * 0.3 + c for c in centers])
        rows = normalize_rows(rows)
        best_labels, best_wcss = kmeans_bruteforce(rows, 3)
        out = kmeans(rows, 3, restarts=8, seed=1)
        cents = np.array([rows[out.labels == c].mean(axis=0) for c in range(3)])
        wcss = ((rows - cents[out.labels]) ** 2).sum()
        assert wcss == pytest.approx(best_wcss, rel=1e-9)
        assert accuracy(out.labels, best_labels) == 1.0

    def test_k_greater_than_n(self):
        with pytest.raises(ShapeError):
            kmeans(np.ones((2, 2)), 3)

    def test_deterministic(self):
        rows = make_rng(8, "km").standard_normal((20, 4))
        a = kmeans(rows, 3, seed=5).labels
        b = kmeans(rows, 3, seed=5).labels
        assert np.array_equal(a, b)


class TestSpectralCluster:
    def test_perfect_two_block(self):
        a, labels = block_affinity([6, 6], make_rng(9, "blk"), permute=False)
        out = spectral_cluster(a, SpectralConfig(k=2, seed=0))
        assert accuracy(out.labels, labels) == 1.0

    def test_permuted_three_block_recovers_components(self):
        a, labels = block_affinity([7, 5, 6], make_rng(10, "blk"), permute=True)
        out = spectral_cluster(a, SpectralConfig(k=3, seed=0))
        assert accuracy(out.labels, labels) == 1.0

    def test_k_one(self):
        a, _ = block_affinity([5], make_rng(11, "blk"), permute=False)
        out = spectral_cluster(a, SpectralConfig(k=1, seed=0))
        assert np.array_equal(out.labels, np.zeros(5, dtype=int))

    def test_permutation_equivariance(self):
        a, labels = block_affinity([5, 5, 5], make_rng(12, "blk"), permute=False)
        cfg = SpectralConfig(k=3, seed=3)
        base = spectral_cluster(a, cfg).labels
        perm = make_rng(13, "p").permutation(15)
        permuted = spectral_cluster(a[np.ix_(perm, perm)], cfg).labels
        assert accuracy(permuted, base[perm]) == 1.0

