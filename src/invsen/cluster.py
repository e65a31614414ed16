"""From a trained model to cluster labels: the affinity |C| + |C^T| of the
full coefficient matrix, symmetric normalized Laplacian, its k smallest
eigenvectors by seeded block Lanczos iteration, and k-means on the
row-normalized spectral embedding.

The affinity is the one n x n array an evaluation makes. It is built in
place in BLOCK-row blocks, through the threshold kernel that training uses
(`sennet.shrink_magnitudes`), and BLOCK x BLOCK tile pairs, by the same
arithmetic as the plain whole-array expressions, so it is the same bits;
its exact symmetry check makes no n x n temporary either. The Laplacian
is never formed: it is an operator over the affinity whose products take
a block of rows at a time, so one matrix product reads A once for several
Krylov vectors. The eigensolver takes only that operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericsError, ShapeError, check_integers
from .numkit import make_rng, mlp_forward, normalize_rows
from .sennet import SEModel, shrink_magnitudes

# Rows per block, and tile side, of the passes over n x n arrays. A tile
# pair is 256 KB. At n = 3000 on a Xeon with 2 MB of L2 per core, 64 and
# 128 time alike for the row passes and 128 is fastest for the tile pairs.
BLOCK = 128

# Bounds on the eigenvectors' orthonormality and on their residuals.
EIG_TOL = 1e-8
EIG_RESID = 1e-6

# The block Lanczos solver: rows per Krylov block (k when k is larger),
# basis vectors held before a thick restart, blocks between Rayleigh-Ritz
# checks, blocks before it gives up, and the residual norm at which a Ritz
# pair counts as converged. With 1 BLAS thread a 4-row product takes about
# twice a 1-row one at n = 600 and n = 3000, and 6- or 8-row blocks did
# not cut the 12-15 blocks a solve takes on the benchmark's affinities.
KRYLOV_BLOCK = 4
KRYLOV_BASIS = 48
KRYLOV_CHECK = 2
KRYLOV_STEPS = 500
KRYLOV_TOL = 1e-10
# QR divides the rounding-level part that a block row keeps along the basis
# by |r_jj|, the norm of the row's own direction, so a row whose own
# direction is less than this fraction of its norm comes out measurably off
# the basis (about 5e-17 / fraction), and the block is projected off the
# basis and factored once more. The smallest fraction on the test and
# benchmark affinities is about 0.02, so none of them takes that pass.
KRYLOV_REORTH = 1e-3


@dataclass
class ClusterLabels:
    labels: np.ndarray


@dataclass
class SpectralConfig:
    k: int
    kmeans_restarts: int = 10
    kmeans_max_iter: int = 100
    seed: int = 0

    def __post_init__(self):
        check_integers(self, ("k", "kmeans_restarts", "kmeans_max_iter", "seed"))
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.kmeans_restarts < 1:
            raise ConfigError("kmeans_restarts must be >= 1")
        if self.kmeans_max_iter < 1:
            raise ConfigError("kmeans_max_iter must be >= 1")


def build_affinity(model: SEModel, x: np.ndarray) -> np.ndarray:
    """Affinity A = |C| + |C^T| of the coefficients over the whole
    (unit-normalized) sample set, with C[i, j] = alpha * soft_threshold(
    v_i . u_j, beta) (u key, v query embeddings) and the self-pairs zero,
    as `sennet.coefficients` defines them. Symmetric, non-negative and
    zero-diagonal by construction.

    One n x n array is made: the inner products, which are turned into |C|
    in place one row block at a time by `shrink_magnitudes` and |alpha|
    (|alpha * copysign(|s| - beta, s)| is |alpha| * max(|s| - beta, 0) bit
    for bit, so no sign is needed) and then into A one tile pair at a time.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != model.in_dim:
        raise ShapeError(f"build_affinity: input of shape {x.shape} does not have "
                         f"(samples, {model.in_dim}) features")
    if x.shape[0] < 2:
        raise ShapeError("build_affinity needs at least two samples")
    x = normalize_rows(x)
    u = mlp_forward(model.key_net, x)[0]
    v = mlp_forward(model.query_net, x)[0]
    # one matmul: a row-blocked product can round the last block differently
    a = np.matmul(v, u.T)  # s[i, j] = v_i . u_j
    # |alpha|: a learnable alpha is not kept positive by its updates
    beta, alpha = model.beta, abs(float(model.alpha))
    n = a.shape[0]
    for i in range(0, n, BLOCK):
        rows = a[i:i + BLOCK]
        shrink_magnitudes(rows, beta, rows)
        rows *= alpha
    np.fill_diagonal(a, 0.0)
    for upper, lower in _tile_pairs(n):
        a[upper] += a[lower].T
        a[lower] = a[upper].T
    return a


def _tile_pairs(n: int):
    """Index pairs (tile, mirror tile) of the BLOCK x BLOCK tiles of an
    n x n array on and above the diagonal; a diagonal tile is its own
    mirror."""
    for i in range(0, n, BLOCK):
        for j in range(i, n, BLOCK):
            yield np.s_[i:i + BLOCK, j:j + BLOCK], np.s_[j:j + BLOCK, i:i + BLOCK]


def _check_affinity(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"affinity must be square, got {a.shape}")
    # exact (a NaN anywhere fails it), one tile pair at a time, so no n x n
    # temporary is made
    if not all(np.array_equal(a[upper], a[lower].T) for upper, lower in _tile_pairs(len(a))):
        raise NumericsError("affinity is not symmetric")
    if a.min() < 0:
        raise NumericsError("affinity has negative entries")
    if np.any(np.diag(a) != 0):
        raise NumericsError("affinity has a nonzero diagonal")


class LaplacianOperator:
    """The symmetric normalized Laplacian L = I - D^(-1/2) A D^(-1/2) over
    an affinity A that it keeps, not copies; `rows` is its one product."""

    def __init__(self, a: np.ndarray, dinv: np.ndarray):
        self.a = a
        self.dinv = dinv
        self.shape = a.shape

    def rows(self, x: np.ndarray) -> np.ndarray:
        """x L for a block of rows x, that is (L x^T)^T: L is symmetric, so
        one matrix product reads A once for every row of x."""
        return x - ((x * self.dinv) @ self.a) * self.dinv


def normalized_laplacian(a: np.ndarray) -> LaplacianOperator:
    """Symmetric normalized Laplacian L = I - D^(-1/2) A D^(-1/2) of a
    symmetric non-negative affinity, eigenvalues in [0, 2], as a float64
    operator; zero-degree vertices get a 0 entry in D^(-1/2) (their row
    reduces to the identity row).

    L is never formed: a product is x - D^(-1/2) A D^(-1/2) x through one
    matmul. The operator keeps the checked affinity, not a copy of it. A
    Fortran-ordered A is used through its transpose, which is the same
    matrix in C order, so every layout gives the same bits; any other
    layout is copied once.
    """
    a = np.asarray(a, dtype=float)
    _check_affinity(a)
    if not a.flags.c_contiguous:
        a = a.T if a.flags.f_contiguous else np.ascontiguousarray(a)
    deg = a.sum(axis=1)
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0.0, 1.0 / np.sqrt(deg), 0.0)
    return LaplacianOperator(a, dinv)


def smallest_eigenvectors(lap: LaplacianOperator, k: int):
    """The k smallest eigenpairs of the operator that `normalized_laplacian`
    returns; anything else, an array included, is refused with a
    ShapeError.

    Returns (values ascending, vectors (n, k)). Block Lanczos iteration
    (`_block_lanczos`) finds them, starting and drawing any replacement
    vector from the fixed stream make_rng(0, "eigsh"). Columns are
    orthonormal within EIG_TOL and sign-fixed (largest-magnitude entry
    positive) so the output is a deterministic function of the input.
    """
    if not isinstance(lap, LaplacianOperator):
        raise ShapeError("smallest_eigenvectors takes the LaplacianOperator of "
                         f"normalized_laplacian, not {type(lap).__name__}")
    n = lap.shape[0]
    if k < 1 or k > n:
        raise ShapeError(f"k={k} out of range for n={n}")
    try:
        vals, vecs = _block_lanczos(lap.rows, n, k, make_rng(0, "eigsh"), KRYLOV_TOL)
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"eigendecomposition failed: {exc}") from exc
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(k)]
    vecs = vecs * np.where(lead < 0, -1.0, 1.0)
    gram_err = np.abs(vecs.T @ vecs - np.eye(k)).max()
    resid = np.abs(lap.rows(vecs.T).T - vecs * vals).max()
    if gram_err > EIG_TOL or resid > EIG_RESID:
        raise NumericsError(
            f"eigenvector residuals too large (orthonormality {gram_err:.2e}, "
            f"residual {resid:.2e})")
    return vals, vecs


def _block_lanczos(apply_rows, n: int, k: int, rng: np.random.Generator, tol: float):
    """The k smallest eigenpairs of the symmetric n x n matrix M whose
    product with a block of rows is `apply_rows(x) = x M`, for k <= n:
    values ascending, as `eigh` returns them, and vectors (n, k) in Fortran
    order, whose columns k-means reads about twice as fast as C order's.

    Block Lanczos (Golub & Underwood 1977) with full reorthogonalisation:
    each block is the product of the one before, projected off the whole
    basis twice and orthonormalized by `_orthonormal_rows`; `h` holds the
    basis's Rayleigh quotient Q M Q^T, whose eigenpairs give the Ritz pairs
    (Rayleigh-Ritz). A Ritz vector's residual is the part of the last
    product that the basis leaves, so it costs no product of its own. When
    the basis is full, a thick restart keeps the best Ritz vectors, and the
    next block goes on from them. A basis that fills the whole space gives
    exact pairs.
    """
    b = min(max(KRYLOV_BLOCK, k), n)
    cap = min(n, max(KRYLOV_BASIS, k + 2 * b))
    q = np.empty((cap, n))  # orthonormal basis, one vector per row
    h = np.zeros((cap, cap))  # Q M Q^T; eigh reads its lower triangle
    m = 0
    block = _orthonormal_rows(rng.uniform(-1.0, 1.0, (b, n)), q[:0], rng, tol)
    for step in range(1, KRYLOV_STEPS + 1):
        width = len(block)
        q[m:m + width] = block
        product = apply_rows(block)
        m += width
        h[m - width:m, :m] = _project_out(product, q[:m])
        if m == n:
            vals, y = np.linalg.eigh(h)
            return vals[:k], (y[:, :k].T @ q).T
        block = _orthonormal_rows(product[:n - m], q[:m], rng, tol)
        full = m + len(block) > cap
        if full or step % KRYLOV_CHECK == 0:
            vals, y = np.linalg.eigh(h[:m, :m])
            resid = np.linalg.norm(y[m - width:m, :k].T @ product, axis=1)
            if resid.max() <= tol:
                return vals[:k], (y[:, :k].T @ q[:m]).T
            if full:
                keep = min(k + (cap - k - b) // 2, cap - b)
                q[:keep] = y[:, :keep].T @ q[:m]
                h[:keep, :keep] = np.diag(vals[:keep])
                m = keep
                _project_out(block, q[:m])
    raise NumericsError(
        f"eigendecomposition failed: no convergence in {KRYLOV_STEPS} Lanczos blocks")


def _project_out(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Remove from the rows of x, in place, their components along the
    orthonormal rows of q, in two passes (one leaves rounding-level
    components behind); returns the coefficients removed, x q^T."""
    coef = x @ q.T
    x -= coef @ q
    again = x @ q.T
    x -= again @ q
    return coef + again


def _orthonormal_rows(x: np.ndarray, q: np.ndarray, rng: np.random.Generator,
                      floor: float):
    """Orthonormal rows spanning those of x, which are orthogonal to the
    rows of q, by Householder QR. A row of x with no more than `floor` of a
    direction of its own is replaced by a random one off q and the block
    factored again, so that it keeps its length and spans the other rows.
    A row with less than KRYLOV_REORTH of its norm as a direction of its
    own has the factor projected off q and factored again."""
    while True:
        f, r = np.linalg.qr(x.T)
        own = np.abs(np.diag(r))
        if not (lost := own <= floor).any():
            break
        x = x.copy()  # the caller's rows stay as given
        x[lost] = rng.uniform(-1.0, 1.0, (int(lost.sum()), x.shape[1]))
        _project_out(x, q)
    if (own < KRYLOV_REORTH * np.linalg.norm(x, axis=1)).any():
        _project_out(f.T, q)
        f = np.linalg.qr(f)[0]
    return f.T.copy()


def kmeans(rows: np.ndarray, k: int, restarts: int = 10, max_iter: int = 100,
           seed: int = 0) -> ClusterLabels:
    """Lloyd's algorithm with k-means++ seeding, best of `restarts` by
    within-cluster sum of squares. Rows are L2-normalized first (the
    spectral embedding convention); all randomness comes from the seed.
    The restarts run together, one stacked Lloyd step at a time, and give
    the bits each would give on its own.
    """
    rows = normalize_rows(np.asarray(rows, dtype=float))
    n = rows.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if k > n:
        raise ShapeError(f"k={k} exceeds number of samples n={n}")

    # a restart leaves the stacked loop when its labels repeat
    centers = np.stack([_kmeanspp(rows, k, make_rng(seed, "kmeans", restart))
                        for restart in range(restarts)])
    labels = np.zeros((restarts, n), dtype=int)
    live = np.arange(restarts)
    for _ in range(max_iter):
        live_centers = centers[live]
        # squared distances to one center of every live restart at a time,
        # summed over features as the per-restart broadcast sums them
        d2 = np.empty((len(live), n, k))
        for c in range(k):
            diff = rows - live_centers[:, None, c]
            np.square(diff, out=diff)
            diff.sum(axis=2, out=d2[:, :, c])
            del diff  # before the next center makes its own
        new_labels = d2.argmin(axis=2)
        counts = _update_centers(rows, new_labels, live_centers)
        for r in np.flatnonzero((counts == 0).any(axis=1)):
            _reseat_empty(rows, new_labels[r], live_centers[r])
        done = (new_labels == labels[live]).all(axis=1)
        labels[live] = new_labels
        centers[live] = live_centers
        live = live[~done]
        if not live.size:
            break
    best_labels = None
    best_wcss = np.inf
    for restart in range(restarts):
        wcss = float(((rows - centers[restart][labels[restart]]) ** 2).sum())
        if wcss < best_wcss:
            best_wcss = wcss
            best_labels = labels[restart]
    return ClusterLabels(labels=best_labels)


def _update_centers(rows: np.ndarray, labels: np.ndarray, centers: np.ndarray):
    """Move each center of each restart (centers (restarts, k, d), labels
    (restarts, n)) to the mean of its members, in place; an empty cluster
    keeps its center. One bincount per feature sums every restart's
    clusters in sample order, as the per-cluster mean does. Returns the
    member counts (restarts, k)."""
    runs, k, _ = centers.shape
    bins = (labels + k * np.arange(runs)[:, None]).ravel()
    counts = np.bincount(bins, minlength=runs * k).reshape(runs, k)
    sums = np.stack([np.bincount(bins, weights=np.tile(col, runs), minlength=runs * k)
                     for col in rows.T], axis=1).reshape(centers.shape)
    filled = counts > 0
    centers[filled] = sums[filled] / counts[filled][:, None]
    return counts


def _reseat_empty(rows: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> None:
    """Re-seat each empty cluster of one restart, in place, at the point
    then farthest from its own center."""
    for c in range(len(centers)):
        if not (labels == c).any():
            dist_own = ((rows - centers[labels]) ** 2).sum(axis=1)
            far = int(np.argmax(dist_own))
            centers[c] = rows[far]
            labels[far] = c


def _kmeanspp(rows: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = rows.shape[0]
    centers = np.empty((k, rows.shape[1]))
    first = int(rng.integers(n))
    centers[0] = rows[first]
    chosen = [first]
    d2 = ((rows - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            # all remaining distances are zero: the lowest unused (k <= n)
            idx = next(i for i in range(n) if i not in chosen)
        centers[c] = rows[idx]
        chosen.append(idx)
        d2 = np.minimum(d2, ((rows - centers[c]) ** 2).sum(axis=1))
    return centers


def spectral_cluster(a: np.ndarray, cfg: SpectralConfig) -> ClusterLabels:
    """Normalized spectral clustering of an affinity matrix."""
    lap = normalized_laplacian(a)
    _, vecs = smallest_eigenvectors(lap, cfg.k)
    return kmeans(vecs, cfg.k, restarts=cfg.kmeans_restarts,
                  max_iter=cfg.kmeans_max_iter, seed=cfg.seed)

