"""From a trained model to cluster labels: the affinity |C| + |C^T| of the
full coefficient matrix, symmetric normalized Laplacian, its k smallest
eigenvectors by seeded Lanczos iteration (ARPACK's `eigsh`; a dense `eigh`
only for k = n), and k-means on the row-normalized spectral embedding.

The n x n passes run in BLOCK-row blocks or BLOCK x BLOCK tile pairs, in
place where they can: the affinity is one n x n array and the Laplacian
one more, and the exact symmetry checks make no n x n temporary. Every
entry is computed by the same arithmetic as the plain whole-array
expressions, so the results are the same bits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackError, eigsh

from .errors import NumericsError, ShapeError
from .numkit import make_rng, mlp_forward, normalize_rows
from .sennet import SEModel

LAPLACIAN_VARIANTS = ("symmetric", "unnormalized")
# Rows per block, and tile side, of the passes over n x n arrays. A tile
# pair is 256 KB. At n = 3000 on a Xeon with 2 MB of L2 per core, 64 and
# 128 time alike for the row passes and 128 is fastest for the tile pairs.
BLOCK = 128


@dataclass
class ClusterLabels:
    labels: np.ndarray
    k: int


@dataclass
class SpectralConfig:
    k: int
    kmeans_restarts: int = 10
    kmeans_max_iter: int = 100
    eig_tol: float = 1e-8
    seed: int = 0
    laplacian: str = "symmetric"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.kmeans_restarts < 1:
            raise ValueError("kmeans_restarts must be >= 1")
        if self.laplacian not in LAPLACIAN_VARIANTS:
            raise ValueError(f"laplacian must be one of {LAPLACIAN_VARIANTS}")


def build_affinity(model: SEModel, x: np.ndarray) -> np.ndarray:
    """Affinity A = |C| + |C^T| of the eval-mode coefficients over the whole
    (unit-normalized) sample set, with C[i, j] = alpha * soft_threshold(
    v_i . u_j, beta) and the self-pairs zero, as `sennet.coefficients`
    defines them. Symmetric, non-negative and zero-diagonal by construction.

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
    target_net, contrib_net = model.role_nets
    u = mlp_forward(target_net, x, "eval")[0]
    v = mlp_forward(contrib_net, x, "eval")[0]
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


def normalized_laplacian(a: np.ndarray, variant: str = "symmetric") -> np.ndarray:
    """Graph Laplacian of a symmetric non-negative affinity.

    "symmetric": L = I - D^(-1/2) A D^(-1/2), eigenvalues in [0, 2];
    zero-degree vertices get a 0 entry in D^(-1/2) (their row reduces to
    the identity row). "unnormalized": L = D - A.
    """
    a = np.asarray(a, dtype=float)
    _check_affinity(a)
    deg = a.sum(axis=1)
    if variant == "unnormalized":
        return np.diag(deg) - a
    if variant != "symmetric":
        raise ValueError(f"unknown laplacian variant {variant!r}")
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0.0, 1.0 / np.sqrt(deg), 0.0)
    # -(D^-1/2 A D^-1/2), one row block at a time; exactly symmetric, as
    # outer is
    lap = np.empty_like(a)
    for i in range(0, a.shape[0], BLOCK):
        rows = lap[i:i + BLOCK]
        np.multiply.outer(dinv[i:i + BLOCK], dinv, out=rows)
        rows *= a[i:i + BLOCK]
        np.negative(rows, out=rows)
    np.fill_diagonal(lap, 1.0 + np.diag(lap))
    return lap


def smallest_eigenvectors(lap: np.ndarray, k: int, tol: float = 1e-8):
    """The k smallest eigenpairs of an exactly symmetric matrix.

    Returns (values ascending, vectors (n, k)). ARPACK's Lanczos solver
    (`eigsh`, which="SA", tol=0) finds them, starting and restarting from
    the fixed stream make_rng(0, "eigsh"); a dense `eigh` runs only for
    k = n, where ARPACK cannot. Columns are orthonormal within tol and
    sign-fixed (largest-magnitude entry positive) so the output is a
    deterministic function of the input.
    """
    lap = np.asarray(lap, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
        raise ShapeError(f"matrix must be square, got {lap.shape}")
    n = lap.shape[0]
    if k < 1 or k > n:
        raise ShapeError(f"k={k} out of range for n={n}")
    if not _is_symmetric(lap):
        raise NumericsError("matrix is not symmetric")
    rng = make_rng(0, "eigsh")
    try:
        vals, vecs = np.linalg.eigh(lap) if k == n else eigsh(
            lap, k, which="SA", tol=0, v0=rng.uniform(-1.0, 1.0, n), rng=rng)
    except (np.linalg.LinAlgError, ArpackError) as exc:
        raise NumericsError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(k)]
    vecs = vecs * np.where(lead < 0, -1.0, 1.0)
    gram_err = np.abs(vecs.T @ vecs - np.eye(k)).max()
    resid = np.abs(lap @ vecs - vecs * vals).max()
    scale = max(lap.max(), -lap.min())  # max |lap| without an n x n temporary
    if gram_err > tol or resid > max(tol, 1e-6 * max(1.0, scale)):
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
    lap = normalized_laplacian(a, cfg.laplacian)
    _, vecs = smallest_eigenvectors(lap, cfg.k, cfg.eig_tol)
    return kmeans(vecs, cfg.k, restarts=cfg.kmeans_restarts,
                  max_iter=cfg.kmeans_max_iter, seed=cfg.seed)


def export_affinity_csv(a: np.ndarray, path: str) -> None:
    """Row-major CSV dump with an `n=<n>` header line."""
    a = np.asarray(a, dtype=float)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"n={a.shape[0]}\n")
        for row in a:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")
    os.replace(tmp, path)
