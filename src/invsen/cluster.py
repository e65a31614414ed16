"""From a trained model to cluster labels: the affinity |C| + |C^T| of the
full coefficient matrix, symmetric normalized Laplacian, its k smallest
eigenvectors by seeded Lanczos iteration (ARPACK's `eigsh`; a dense `eigh`
only for k = n), and k-means on the row-normalized spectral embedding.

The affinity is the one n x n array an evaluation makes. It is built in
place in BLOCK-row blocks and BLOCK x BLOCK tile pairs, by the same
arithmetic as the plain whole-array expressions, so it is the same bits;
its exact symmetry check makes no n x n temporary either. The Laplacian
is never formed: it is an operator over the affinity whose Lanczos
mat-vecs read only one triangle of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymv
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import ConfigError, NumericsError, ShapeError
from .numkit import make_rng, mlp_forward, normalize_rows
from .sennet import SEModel

# Rows per block, and tile side, of the passes over n x n arrays. A tile
# pair is 256 KB. At n = 3000 on a Xeon with 2 MB of L2 per core, 64 and
# 128 time alike for the row passes and 128 is fastest for the tile pairs.
BLOCK = 128

# Orthonormality bound of the eigenvectors, and the floor of their
# residual bound.
EIG_TOL = 1e-8


@dataclass
class ClusterLabels:
    labels: np.ndarray
    k: int


@dataclass
class SpectralConfig:
    k: int
    kmeans_restarts: int = 10
    kmeans_max_iter: int = 100
    seed: int = 0

    def __post_init__(self):
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
    in place one row block at a time (|alpha * copysign(|s| - beta, s)| is
    |alpha| * max(|s| - beta, 0) bit for bit, so no sign is needed) and
    then into A one tile pair at a time.
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
        np.abs(rows, out=rows)
        rows -= beta
        np.maximum(rows, 0.0, out=rows)
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


def _is_symmetric(m: np.ndarray) -> bool:
    """Exact symmetry of a square matrix (a NaN anywhere fails it), checked
    one tile pair at a time, so no n x n temporary is made."""
    return all(np.array_equal(m[upper], m[lower].T)
               for upper, lower in _tile_pairs(m.shape[0]))


def _check_affinity(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"affinity must be square, got {a.shape}")
    if not _is_symmetric(a):
        raise NumericsError("affinity is not symmetric")
    if a.min() < 0:
        raise NumericsError("affinity has negative entries")
    if np.any(np.diag(a) != 0):
        raise NumericsError("affinity has a nonzero diagonal")


def normalized_laplacian(a: np.ndarray) -> LinearOperator:
    """Symmetric normalized Laplacian L = I - D^(-1/2) A D^(-1/2) of a
    symmetric non-negative affinity, eigenvalues in [0, 2], as a float64
    operator; zero-degree vertices get a 0 entry in D^(-1/2) (their row
    reduces to the identity row).

    L is never formed. A product with a vector is
    x - D^(-1/2) A D^(-1/2) x, where BLAS `dsymv` reads only one triangle
    of A; a product with a matrix is the same expression through a full
    matmul. The operator keeps the checked affinity, not a copy of it: a
    C- or Fortran-ordered A is used as it is, any other layout is copied
    once.
    """
    a = np.asarray(a, dtype=float)
    _check_affinity(a)
    deg = a.sum(axis=1)
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0.0, 1.0 / np.sqrt(deg), 0.0)
    # A = A^T exactly, so any Fortran-ordered form of it serves; a
    # C-ordered A's transpose is one, which f2py passes without a copy
    af = a.T if a.flags.c_contiguous else np.asfortranarray(a)

    def matvec(x):
        x = x.reshape(-1)  # a one-column matrix comes as (n, 1)
        return x - dinv * dsymv(1.0, af, dinv * x, lower=1)

    def matmat(x):
        return x - dinv[:, None] * (af @ (dinv[:, None] * x))

    return LinearOperator(a.shape, matvec=matvec, matmat=matmat, dtype=float)


def smallest_eigenvectors(lap: np.ndarray | LinearOperator, k: int):
    """The k smallest eigenpairs of a symmetric matrix: an exactly
    symmetric array, or an operator whose entries lie in [-1, 1], such as
    `normalized_laplacian` returns.

    Returns (values ascending, vectors (n, k)). ARPACK's Lanczos solver
    (`eigsh`, which="SA", tol=0) finds them, starting and restarting from
    the fixed stream make_rng(0, "eigsh"); a dense `eigh` runs only for
    k = n, where ARPACK cannot (of `lap @ I` for an operator). Columns are
    orthonormal within EIG_TOL and sign-fixed (largest-magnitude entry
    positive) so the output is a deterministic function of the input.
    """
    dense = not isinstance(lap, LinearOperator)
    if dense:
        lap = np.asarray(lap, dtype=float)
    if len(lap.shape) != 2 or lap.shape[0] != lap.shape[1]:
        raise ShapeError(f"matrix must be square, got {lap.shape}")
    n = lap.shape[0]
    if k < 1 or k > n:
        raise ShapeError(f"k={k} out of range for n={n}")
    if dense and not _is_symmetric(lap):
        raise NumericsError("matrix is not symmetric")
    rng = make_rng(0, "eigsh")
    try:
        if k == n:
            vals, vecs = np.linalg.eigh(lap if dense else lap @ np.eye(n))
        else:
            vals, vecs = eigsh(lap, k, which="SA", tol=0,
                               v0=rng.uniform(-1.0, 1.0, n), rng=rng)
    except (np.linalg.LinAlgError, ArpackError) as exc:
        raise NumericsError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(k)]
    vecs = vecs * np.where(lead < 0, -1.0, 1.0)
    gram_err = np.abs(vecs.T @ vecs - np.eye(k)).max()
    resid = np.abs(lap @ vecs - vecs * vals).max()
    # max |entry| (a normalized Laplacian's is 1), no n x n temporary
    scale = max(lap.max(), -lap.min()) if dense else 1.0
    if gram_err > EIG_TOL or resid > max(EIG_TOL, 1e-6 * max(1.0, scale)):
        raise NumericsError(
            f"eigenvector residuals too large (orthonormality {gram_err:.2e}, "
            f"residual {resid:.2e})")
    return vals, vecs


def kmeans(rows: np.ndarray, k: int, restarts: int = 10, max_iter: int = 100,
           seed: int = 0) -> ClusterLabels:
    """Lloyd's algorithm with k-means++ seeding, best of `restarts` by
    within-cluster sum of squares. Rows are L2-normalized first (the
    spectral embedding convention); all randomness comes from the seed.
    """
    rows = normalize_rows(np.asarray(rows, dtype=float))
    n = rows.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if k > n:
        raise ShapeError(f"k={k} exceeds number of samples n={n}")

    best_labels = None
    best_wcss = np.inf
    for restart in range(restarts):
        rng = make_rng(seed, "kmeans", restart)
        centers = _kmeanspp(rows, k, rng)
        labels = np.zeros(n, dtype=int)
        for _ in range(max_iter):
            d2 = ((rows[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)
            for c in range(k):
                members = new_labels == c
                if members.any():
                    centers[c] = rows[members].mean(axis=0)
            # re-seat empty clusters at the current worst-fit points
            for c in range(k):
                if not (new_labels == c).any():
                    dist_own = ((rows - centers[new_labels]) ** 2).sum(axis=1)
                    far = int(np.argmax(dist_own))
                    centers[c] = rows[far]
                    new_labels[far] = c
            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
        wcss = float(((rows - centers[labels]) ** 2).sum())
        if wcss < best_wcss:
            best_wcss = wcss
            best_labels = labels
    return ClusterLabels(labels=best_labels, k=k)


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
            # all remaining distances are zero: take the lowest unused index
            unused = [i for i in range(n) if i not in chosen]
            idx = unused[0] if unused else 0
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

