import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from invsen import cluster, datagen, trainer
from invsen.cluster import (
    BLOCK,
    LaplacianOperator,
    SpectralConfig,
    build_affinity,
    kmeans,
    normalized_laplacian,
    smallest_eigenvectors,
    spectral_cluster,
)
from invsen.debias import LossWeights
from invsen.errors import InvsenError, NumericsError, ShapeError
from invsen.evalmetrics import accuracy
from invsen.numkit import make_rng, normalize_rows, softplus_inv
from invsen.sennet import coefficient_matrix, coefficients, init_se_model, soft_threshold

from oracles import jacobi_eigh, kmeans_bruteforce, ref_normalized_laplacian


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

    # scaling the query net's tanh layer scales the inner products and, when
    # negative, flips their signs (tanh is odd), as training may; exchanging
    # the nets transposes them, so both orientations of an asymmetric C go
    # through the tiles
    @pytest.mark.parametrize("query_scale", [1.3, -0.7])
    @pytest.mark.parametrize("exchange_nets", [False, True])
    @pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK, BLOCK + 1, 600])
    def test_blocked_matches_plain_expression(self, n, exchange_nets, query_scale):
        model = init_se_model(5, hidden=(8,), embed_dim=6, rng=make_rng(30, "m"))
        model.query_net.layers[-1].w[...] *= query_scale
        if exchange_nets:
            model.key_net, model.query_net = model.query_net, model.key_net
        x = make_rng(31, "x").standard_normal((n, 5))
        # beta at the 70% quantile of |s|, whatever the scale: about 30% of
        # the pairs live, the rest dead
        s = coefficients(model, normalize_rows(x))[1]["s"]
        model.beta_raw[...] = softplus_inv(np.quantile(np.abs(s), 0.7))
        c, cache = coefficients(model, normalize_rows(x))
        a = build_affinity(model, x)
        if n > 2:
            assert 0.05 < np.count_nonzero(a) / a.size < 0.95
        assert a.tobytes() == (np.abs(c) + np.abs(c.T)).tobytes()
        # soft_threshold gives the same coefficients off the diagonal (a
        # dead entry may be -0.0 there, which compares equal to 0.0)
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(soft_threshold(cache["s"], model.beta)[off], c[off])

    @pytest.mark.parametrize("shape", [(1, 4), (4,), (5, 3), (5, 4, 1)])
    def test_bad_input_shape_rejected(self, shape):
        model = init_se_model(4, hidden=(6,), embed_dim=4, rng=make_rng(0, "m"))
        with pytest.raises(ShapeError):
            build_affinity(model, np.ones(shape))


class TestNormalizedLaplacian:
    def test_two_node_graph(self):
        lap = normalized_laplacian(np.array([[0.0, 1.0], [1.0, 0.0]])).rows(np.eye(2))
        assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)
        vals = np.linalg.eigvalsh(lap)
        assert np.allclose(vals, [0.0, 2.0], atol=1e-12)

    def test_block_diagonal_zero_multiplicity(self):
        a, _ = block_affinity([4, 5, 3], make_rng(2, "blk"), permute=False)
        vals = np.linalg.eigvalsh(normalized_laplacian(a).rows(np.eye(12)))
        assert np.sum(np.abs(vals) < 1e-10) == 3

    def test_elementwise_formula(self):
        a, _ = block_affinity([6, 6], make_rng(3, "blk"))
        lap = normalized_laplacian(a).rows(np.eye(12))
        assert np.abs(lap - ref_normalized_laplacian(a)).max() <= 1e-15
        vals = np.linalg.eigvalsh(lap)
        assert vals.min() > -1e-12 and vals.max() < 2.0 + 1e-12

    def test_isolated_vertex(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 1.0
        lap = normalized_laplacian(a).rows(np.eye(3))
        assert lap[2, 2] == 1.0 and lap[2, 0] == 0.0  # zero-degree row

    @pytest.mark.parametrize("isolated", [False, True])
    def test_matches_plain_expression(self, trained_affinity, isolated):
        a = trained_affinity[0].copy()
        if isolated:
            a[7, :] = a[:, 7] = 0.0
        n = a.shape[0]
        lap = normalized_laplacian(a)
        expected = ref_normalized_laplacian(a)
        # the product with a block of rows ...
        assert np.abs(lap.rows(np.eye(n)) - expected).max() <= 1e-15
        # ... and with a single row
        x = make_rng(32, "x").uniform(-1.0, 1.0, (1, n))
        assert np.abs(lap.rows(x) - x @ expected).max() <= 1e-14
        if isolated:
            row = np.zeros((1, n))
            row[0, 7] = 1.0
            assert np.array_equal(lap.rows(row), row)

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
        # I - diag(0.9, 0.5, 0.1) = diag(0.1, 0.5, 0.9)
        lap = LaplacianOperator(np.diag([0.9, 0.5, 0.1]), np.ones(3))
        vals, vecs = smallest_eigenvectors(lap, 1)
        assert vals[0] == pytest.approx(0.1)
        assert np.allclose(np.abs(vecs[:, 0]), [1.0, 0.0, 0.0], atol=1e-12)

    def test_disconnected_graph_indicator_span(self):
        assert_null_space_spans_indicators([5, 4], make_rng(4, "blk"), permute=False)

    def test_matches_jacobi_oracle(self):
        a, _ = block_affinity([5, 3], make_rng(5, "blk"))
        ref = ref_normalized_laplacian(a)
        vals, vecs = smallest_eigenvectors(normalized_laplacian(a), 8)
        ref_vals, _ = jacobi_eigh(ref)
        assert np.abs(vals - ref_vals).max() < 1e-8
        # orthonormality and eigen residuals
        assert np.abs(vecs.T @ vecs - np.eye(8)).max() < 1e-8
        assert np.abs(ref @ vecs - vecs * vals).max() < 1e-8

    def test_k_out_of_range(self):
        lap = normalized_laplacian(block_affinity([3], make_rng(6, "blk"))[0])
        for k in (0, 4):
            with pytest.raises(ShapeError):
                smallest_eigenvectors(lap, k)

    def test_array_rejected(self):
        # the array itself, or the Laplacian formed from it: only the
        # operator is taken
        a, _ = block_affinity([3, 3], make_rng(7, "blk"))
        for arg in (a, ref_normalized_laplacian(a)):
            with pytest.raises(InvsenError, match="LaplacianOperator"):
                smallest_eigenvectors(arg, 2)

    def test_one_edge_among_isolated_vertices(self):
        # L is the identity but for the edge's 2 x 2 block (eigenvalues 0
        # and 2): the first product leaves the basis almost invariant, and
        # the eigenvalue 0 must still be found below the 98-fold 1
        a = np.zeros((100, 100))
        a[0, 1] = a[1, 0] = 1.0
        vals, vecs = smallest_eigenvectors(normalized_laplacian(a), 3)
        assert np.abs(vals - [0.0, 1.0, 1.0]).max() < 1e-12
        assert np.abs(np.abs(vecs[:2, 0]) - np.sqrt(0.5)).max() < 1e-12

    # n = 9 fills the Krylov basis in two blocks, n = 60 exceeds its cap
    @pytest.mark.parametrize("sizes", [[5, 4], [30, 30]])
    def test_k_equal_n_minus_one(self, sizes):
        a, _ = block_affinity(sizes, make_rng(28, "blk"))
        n = a.shape[0]
        vals, vecs = smallest_eigenvectors(normalized_laplacian(a), n - 1)
        ref = ref_normalized_laplacian(a)
        assert np.abs(vals - np.linalg.eigvalsh(ref)[:n - 1]).max() < 1e-12
        assert np.abs(vecs.T @ vecs - np.eye(n - 1)).max() < 1e-12
        assert np.abs(ref @ vecs - vecs * vals).max() < 1e-10

    def test_operator_with_k_equal_n(self):
        a, _ = block_affinity([4, 3], make_rng(27, "blk"))
        vals, vecs = smallest_eigenvectors(normalized_laplacian(a), 7)
        assert np.all(np.diff(vals) >= 0)  # ascending, as eigh gives them
        ref = ref_normalized_laplacian(a)
        assert np.abs(vals - np.linalg.eigvalsh(ref)).max() < 1e-12
        assert np.abs(ref @ vecs - vecs * vals).max() < 1e-12


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
        vals, vecs = smallest_eigenvectors(normalized_laplacian(a), 3)
        # k-means reads a column at a time; in C order it takes about twice as long
        assert vecs.flags.f_contiguous
        ref_vals, ref_vecs = dense_smallest(ref_normalized_laplacian(a), 3)
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
        # for k < n only the projected matrix of the Krylov basis is
        # decomposed, never an n x n one (n here is above the basis cap)
        a, _ = block_affinity([40, 40], make_rng(19, "blk"))
        n = a.shape[0]
        eigh = np.linalg.eigh
        sizes = []

        def sized_eigh(m, *args, **kwargs):
            sizes.append(m.shape[0])
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", sized_eigh)
        vals, _ = smallest_eigenvectors(normalized_laplacian(a), 2)
        assert np.abs(vals).max() < 1e-10
        assert sizes and max(sizes) <= cluster.KRYLOV_BASIS < n
        smallest_eigenvectors(normalized_laplacian(a), n)
        assert sizes[-1] == n

    # the default basis, and one small enough to restart many times
    @pytest.mark.parametrize("basis", [None, 16])
    def test_thick_restart_matches_dense(self, trained_affinity, monkeypatch, basis):
        if basis is not None:
            monkeypatch.setattr(cluster, "KRYLOV_BASIS", basis)
        a = trained_affinity[0]
        lap = normalized_laplacian(a)
        products = []
        rows = lap.rows

        def counted(x):
            products.append(len(x))
            return rows(x)

        lap.rows = counted
        vals, vecs = smallest_eigenvectors(lap, 3)
        assert np.all(np.diff(vals) >= 0)  # ascending after restarts too
        # the basis was restarted: more rows went through the product than
        # it holds (the last 3 are the residual check's)
        assert sum(products) - 3 > cluster.KRYLOV_BASIS
        ref_vals, ref_vecs = dense_smallest(ref_normalized_laplacian(a), 3)
        assert np.abs(vals - ref_vals).max() < 1e-12
        assert np.abs(vecs - ref_vecs).max() < 1e-8

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_no_n_by_n_array_made(self, trained_affinity, order):
        # a formed Laplacian would be one more n x n array, and a copy of a
        # wrongly ordered affinity one per product
        a = np.asarray(trained_affinity[0], order=order)
        cfg = SpectralConfig(k=3, seed=0)
        tracemalloc.start()
        try:
            spectral_cluster(a, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.nbytes / 4

    def test_layout_does_not_change_labels(self, trained_affinity):
        a = trained_affinity[0]
        strided = np.zeros((a.shape[0], 2 * a.shape[1]))[:, ::2]
        strided[...] = a
        assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
        cfg = SpectralConfig(k=3, seed=0)
        labels = spectral_cluster(a, cfg).labels
        for other in (np.asfortranarray(a), strided):
            assert np.array_equal(spectral_cluster(other, cfg).labels, labels)

    def test_labels_do_not_depend_on_blas_threads(self, trained_affinity, tmp_path):
        # a threaded gemm may sum in another order, so the eigenvectors'
        # last bits can follow the thread count; the labels must not
        path = tmp_path / "affinity.npy"
        np.save(path, trained_affinity[0])
        script = ("import sys, numpy as np\n"
                  "from invsen.cluster import SpectralConfig, spectral_cluster\n"
                  "a = np.load(sys.argv[1])\n"
                  "print(spectral_cluster(a, SpectralConfig(k=3, seed=0)).labels.tolist())\n")
        out = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", script, str(path)], capture_output=True,
                text=True, timeout=120, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout)
        assert out[0] == out[1]

    def test_no_convergence_is_numerics_error(self, monkeypatch):
        # no residual meets a zero tolerance, so the solve stalls until its
        # block limit (n is above the basis cap, which would give exact pairs)
        monkeypatch.setattr(cluster, "KRYLOV_TOL", 0.0)
        monkeypatch.setattr(cluster, "KRYLOV_STEPS", 40)
        a, _ = block_affinity([40, 40], make_rng(22, "blk"))
        with pytest.raises(NumericsError, match="eigendecomposition failed"):
            smallest_eigenvectors(normalized_laplacian(a), 2)


def block_off_basis(seed, n=50, basis=8, rows=4):
    """A random orthonormal basis q (rows) and a block of unit-scale random
    rows, which each test projects off q, as the solver does before it calls
    `_orthonormal_rows`."""
    rng = make_rng(seed, "orth")
    q = np.linalg.qr(rng.standard_normal((n, basis)))[0].T.copy()
    x = rng.standard_normal((rows, n))
    return q, x


def assert_orthonormal_off(f, q):
    assert np.abs(f @ f.T - np.eye(len(f))).max() <= 1e-14
    assert np.abs(f @ q.T).max() <= 1e-14


class TestOrthonormalRows:
    def test_full_rank_block(self):
        q, x = block_off_basis(1)
        cluster._project_out(x, q)
        f = cluster._orthonormal_rows(x.copy(), q, make_rng(0, "t"), cluster.KRYLOV_TOL)
        assert f.shape == x.shape
        assert_orthonormal_off(f, q)
        # the same span: x lies in span(f), and f has as many rows as x
        assert np.abs(x - (x @ f.T) @ f).max() <= 1e-14

    @pytest.mark.parametrize("spoil", ["row-in-span-q", "equal-rows"])
    def test_lost_rows_replaced(self, spoil):
        q, x = block_off_basis(2)
        if spoil == "row-in-span-q":
            x[1] = make_rng(3, "c").standard_normal(len(q)) @ q
        else:
            x[2] = x[1]
        cluster._project_out(x, q)
        given = x.copy()
        f = cluster._orthonormal_rows(x, q, make_rng(0, "t"), cluster.KRYLOV_TOL)
        # the solver reads its product again after this call
        assert np.array_equal(x, given)
        assert f.shape == x.shape  # the block keeps its length
        assert_orthonormal_off(f, q)
        # the rows that had a direction of their own are still spanned
        kept = x[[0, 2, 3]] if spoil == "row-in-span-q" else x[[0, 1, 3]]
        assert np.abs(kept - (kept @ f.T) @ f).max() <= 1e-14

    @pytest.mark.parametrize("gap", [1e-8, 1e-9, 1.5e-10])
    def test_nearly_dependent_row_stays_off_basis(self, gap):
        # a row just above the floor: QR divides its rounding-level part
        # along q by |r_jj|, which the second pass removes
        q, x = block_off_basis(6, n=600, basis=40)
        x[2] = x[1] + gap * make_rng(7, "gap").standard_normal(x.shape[1])
        cluster._project_out(x, q)
        f = cluster._orthonormal_rows(x, q, make_rng(0, "t"), cluster.KRYLOV_TOL)
        assert f.shape == x.shape
        assert_orthonormal_off(f, q)
        assert np.abs(x - (x @ f.T) @ f).max() <= 1e-14

    def test_deterministic(self):
        q, x = block_off_basis(4)
        x[3] = x[0]
        cluster._project_out(x, q)
        first, second = (cluster._orthonormal_rows(x.copy(), q, make_rng(5, "t"),
                                                   cluster.KRYLOV_TOL) for _ in range(2))
        assert first.tobytes() == second.tobytes()


class TestInPlaceForms:
    """The in-place evaluation path gives the bits of the plain expressions."""

    def test_affinity_is_abs_plus_abs_transpose(self):
        model = init_se_model(5, hidden=(8,), embed_dim=6, rng=make_rng(30, "m"))
        model.beta_raw[...] = -0.5  # beta ~ 0.47: live and dead pairs
        x = make_rng(31, "x").standard_normal((300, 5))
        c = coefficient_matrix(model, normalize_rows(x))
        a = build_affinity(model, x)
        assert 0.1 < np.count_nonzero(a) / a.size < 0.9
        assert a.tobytes() == (np.abs(c) + np.abs(c.T)).tobytes()


def kmeans_one_restart_at_a_time(rows, k, restarts, max_iter, seed):
    """Reference: the Lloyd loop run one restart at a time, centers moved by
    per-cluster means, as `kmeans` ran before its restarts were stacked."""
    rows = normalize_rows(np.asarray(rows, dtype=float))
    n = rows.shape[0]
    best_labels, best_wcss = None, np.inf
    for restart in range(restarts):
        centers = cluster._kmeanspp(rows, k, make_rng(seed, "kmeans", restart))
        labels = np.zeros(n, dtype=int)
        for _ in range(max_iter):
            d2 = ((rows[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)
            for c in range(k):
                members = new_labels == c
                if members.any():
                    centers[c] = rows[members].mean(axis=0)
            for c in range(k):
                if not (new_labels == c).any():
                    dist_own = ((rows - centers[new_labels]) ** 2).sum(axis=1)
                    far = int(np.argmax(dist_own))
                    centers[c] = rows[far]
                    new_labels[far] = c
            done = np.array_equal(new_labels, labels)
            labels = new_labels
            if done:
                break
        wcss = float(((rows - centers[labels]) ** 2).sum())
        if wcss < best_wcss:
            best_wcss, best_labels = wcss, labels
    return best_labels


class TestKmeans:
    # C- and Fortran-ordered rows (the spectral embedding comes Fortran-
    # ordered); integer-valued rows repeat points, which empties clusters
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_stacked_restarts_match_one_at_a_time(self, order):
        rng = make_rng(41, "km")
        for case in range(60):
            n = int(rng.integers(3, 120))
            k = int(rng.integers(1, min(n, 10) + 1))
            d = int(rng.integers(1, 11))
            if case % 2:
                x = rng.integers(-1, 2, (n, d)).astype(float)
            else:
                x = rng.standard_normal((n, d))
            x = np.asarray(x, order=order)
            restarts, max_iter = int(rng.integers(1, 12)), int(rng.integers(1, 20))
            got = kmeans(x, k, restarts=restarts, max_iter=max_iter, seed=case).labels
            want = kmeans_one_restart_at_a_time(x, k, restarts, max_iter, case)
            assert np.array_equal(got, want), (case, n, k, d)

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

