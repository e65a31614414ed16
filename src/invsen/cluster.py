"""From a trained model to cluster labels: full coefficient matrix, affinity
|C| + |C^T|, symmetric normalized Laplacian, its k smallest eigenvectors by
seeded Lanczos iteration (ARPACK's `eigsh`; a dense `eigh` only for k = n),
and k-means on the row-normalized spectral embedding.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackError, eigsh

from .errors import NumericsError, ShapeError
from .numkit import make_rng, normalize_rows
from .sennet import SEModel, coefficients

LAPLACIAN_VARIANTS = ("symmetric", "unnormalized")


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


def affinity_from_coefficients(c: np.ndarray) -> np.ndarray:
    """A = |C| + |C^T| for a square, zero-diagonal coefficient matrix; A is
    symmetric and non-negative by construction."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ShapeError(f"coefficient matrix must be square, got {c.shape}")
    if np.any(np.diag(c) != 0):
        raise NumericsError("coefficient matrix has a nonzero diagonal")
    return np.abs(c) + np.abs(c.T)


def build_affinity(model: SEModel, x: np.ndarray) -> np.ndarray:
    """Affinity A = |C| + |C^T| from eval-mode coefficients over the whole
    (unit-normalized) sample set. Symmetric, non-negative and zero-diagonal
    by construction."""
    x = normalize_rows(np.asarray(x, dtype=float))
    if x.shape[0] < 2:
        raise ShapeError("build_affinity needs at least two samples")
    c, _ = coefficients(model, x, x, mode="eval")
    return affinity_from_coefficients(c)


def _check_affinity(a: np.ndarray) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"affinity must be square, got {a.shape}")
    if not np.array_equal(a, a.T):
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
    scaled = a * np.outer(dinv, dinv)  # exactly symmetric: outer is symmetric
    lap = -scaled
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
    if not np.array_equal(lap, lap.T):
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
    if gram_err > tol or resid > max(tol, 1e-6 * max(1.0, np.abs(lap).max())):
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
