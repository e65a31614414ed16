"""Clustering metrics (ACC / NMI / ARI), optimal label assignment, and
plug-in discrete mutual information diagnostics.

Conventions, spelled out because variants abound:

* ACC maximizes the matched fraction over label bijections, computed by
  solving the assignment problem on the negated contingency table (padded
  with zeros to square when the label counts differ). The assignment is
  solved in this module by shortest augmenting paths (Jonker-Volgenant
  form of the Hungarian method, O(k^3)), not by scipy.optimize, whose
  import adds about a third to every process's start-up. On tied costs
  the permutation may differ from scipy's linear_sum_assignment; the
  matched count, hence ACC, cannot.
* NMI uses natural logs and the geometric-mean normalization
  I / sqrt(H(pred) * H(truth)). If either labeling has zero entropy the
  value is 0, except that two constant labelings (identical partitions)
  score 1 by convention.
* ARI follows the pair-counting adjusted form; when the adjustment is
  degenerate (max index equals expected index, e.g. both partitions
  trivial) identical partitions score 1.
* discrete_mi is the plug-in estimate in nats, no bias correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

METRIC_FIELDS = ("acc", "nmi", "ari", "mi_pred_bias", "mi_true_bias", "n")


def _as_labels(labels) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-d, got shape {labels.shape}")
    if labels.size and labels.min() < 0:
        raise ValueError("labels must be non-negative integers")
    return labels.astype(int)


def _check_pair(a, b):
    a, b = _as_labels(a), _as_labels(b)
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"label lengths differ: {a.shape[0]} vs {b.shape[0]}")
    return a, b


def contingency_table(pred, truth) -> np.ndarray:
    """Count matrix [k_pred x k_truth]; total equals the sample count."""
    pred, truth = _check_pair(pred, truth)
    kp = int(pred.max()) + 1 if pred.size else 0
    kt = int(truth.max()) + 1 if truth.size else 0
    table = np.zeros((kp, kt), dtype=np.int64)
    np.add.at(table, (pred, truth), 1)
    return table


def optimal_assignment(cost: np.ndarray) -> np.ndarray:
    """Permutation perm minimizing sum_i cost[i, perm[i]] for a square,
    finite cost matrix.

    Shortest augmenting paths with row and column potentials (the
    Hungarian method of Kuhn 1955 in the form of Jonker & Volgenant 1987):
    k augmentations, each a Dijkstra search over at most k columns scanned
    as numpy vectors, so O(k^3) work in O(k^2) vector operations. The
    minimum cost is exact; when several permutations attain it, the one
    returned may differ from scipy.optimize.linear_sum_assignment's, which
    cannot change the ACC computed from it."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ShapeError(f"cost matrix must be square, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix must be finite")
    k = cost.shape[0]
    u = np.zeros(k)  # row potentials
    v = np.zeros(k)  # column potentials
    col_of_row = np.full(k, -1)
    row_of_col = np.full(k, -1)
    for start in range(k):
        # Dijkstra from row `start` over reduced costs cost[i, j] - u[i] - v[j],
        # which the potentials keep non-negative, until a free column is reached
        dist = np.full(k, np.inf)
        via = np.zeros(k, dtype=int)  # row before each column on its path
        rows_seen = np.zeros(k, dtype=bool)
        cols_seen = np.zeros(k, dtype=bool)
        i, reach = start, 0.0
        while True:
            rows_seen[i] = True
            through_i = reach + cost[i] - u[i] - v
            closer = ~cols_seen & (through_i < dist)
            dist[closer] = through_i[closer]
            via[closer] = i
            open_dist = np.where(cols_seen, np.inf, dist)
            reach = open_dist.min()
            nearest = open_dist == reach
            # among equally near columns a free one ends the search now
            free = nearest & (row_of_col < 0)
            j = int(np.argmax(free if free.any() else nearest))
            cols_seen[j] = True
            if row_of_col[j] < 0:
                break
            i = row_of_col[j]
        # update the potentials so that the path's edges have reduced cost 0
        u[start] += reach
        rows_seen[start] = False
        u[rows_seen] += reach - dist[col_of_row[rows_seen]]
        v[cols_seen] -= reach - dist[cols_seen]
        # flip the path's matched and unmatched edges, from its end back to `start`
        while True:
            i = via[j]
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == start:
                break
    return col_of_row


def accuracy(pred, truth) -> float:
    """Clustering accuracy: best label bijection via optimal assignment on
    the negated (zero-padded square) contingency table of the label values
    present, so that a large label value does not enlarge the problem."""
    pred, truth = _check_pair(pred, truth)
    n = pred.shape[0]
    if n == 0:
        raise ShapeError("accuracy needs at least one sample")
    table = contingency_table(np.unique(pred, return_inverse=True)[1],
                              np.unique(truth, return_inverse=True)[1])
    size = max(table.shape)
    padded = np.zeros((size, size), dtype=np.int64)
    padded[:table.shape[0], :table.shape[1]] = table
    perm = optimal_assignment(-padded.astype(float))
    matched = int(padded[np.arange(size), perm].sum())
    return matched / n


def _entropy_from_counts(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def _mi_from_table(table: np.ndarray) -> float:
    n = int(table.sum())
    if n == 0:
        return 0.0
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)
    mi = 0.0
    nz = np.nonzero(table)
    for i, j in zip(*nz):
        nij = table[i, j]
        mi += (nij / n) * np.log(nij * n / (rows[i] * cols[j]))
    return float(max(mi, 0.0))


def nmi(pred, truth) -> float:
    """Normalized mutual information, geometric-mean form, natural logs."""
    pred, truth = _check_pair(pred, truth)
    if pred.shape[0] == 0:
        raise ShapeError("nmi needs at least one sample")
    table = contingency_table(pred, truth)
    n = pred.shape[0]
    h_pred = _entropy_from_counts(table.sum(axis=1), n)
    h_truth = _entropy_from_counts(table.sum(axis=0), n)
    if h_pred == 0.0 and h_truth == 0.0:
        return 1.0  # two constant labelings are the same partition
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    value = _mi_from_table(table) / np.sqrt(h_pred * h_truth)
    return float(min(max(value, 0.0), 1.0))


def _comb2(x):
    return x * (x - 1) / 2.0


def ari(pred, truth) -> float:
    """Adjusted Rand index by pair counting."""
    pred, truth = _check_pair(pred, truth)
    n = pred.shape[0]
    if n < 2:
        raise ShapeError("ari needs at least two samples")
    table = contingency_table(pred, truth)
    sum_cells = float(_comb2(table.astype(float)).sum())
    sum_rows = float(_comb2(table.sum(axis=1).astype(float)).sum())
    sum_cols = float(_comb2(table.sum(axis=0).astype(float)).sum())
    n_pairs = _comb2(float(n))
    expected = sum_rows * sum_cols / n_pairs
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        # degenerate adjustment: happens only when both partitions are
        # all-singletons or both are a single cluster, i.e. identical
        return 1.0
    return float((sum_cells - expected) / (max_index - expected))


def discrete_mi(a, b) -> float:
    """Plug-in mutual information (nats) of two label sequences."""
    a, b = _check_pair(a, b)
    if a.shape[0] == 0:
        raise ShapeError("discrete_mi needs at least one sample")
    return _mi_from_table(contingency_table(a, b))


def label_entropy(a) -> float:
    """Plug-in entropy (nats) of one label sequence."""
    a = _as_labels(a)
    counts = np.bincount(a)
    return _entropy_from_counts(counts, a.shape[0])


def subspace_preserving_rate(coeffs: np.ndarray, truth) -> float:
    """Mean over columns j of the fraction of |C[:, j]| mass that sits on
    samples from the same cluster as j. Columns with no coefficient mass
    are skipped (the mean runs over the remaining columns); 0.0 if every
    column is empty."""
    c = np.asarray(coeffs, dtype=float)
    truth = _as_labels(truth)
    if c.ndim != 2 or c.shape[0] != c.shape[1] or c.shape[0] != truth.shape[0]:
        raise ShapeError(
            f"coefficients {c.shape} and labels {truth.shape} are misaligned")
    mass = np.abs(c)
    totals = mass.sum(axis=0)
    same = truth[:, None] == truth[None, :]
    own = (mass * same).sum(axis=0)
    nonempty = totals > 0.0
    if not nonempty.any():
        return 0.0
    return float((own[nonempty] / totals[nonempty]).mean())


@dataclass
class MetricsReport:
    """ACC / NMI / ARI plus the two mutual-information diagnostics:
    mi_pred_bias = I(predicted labels, bias) and mi_true_bias =
    I(true labels, bias). MI fields are None when no bias labels exist."""

    acc: float
    nmi: float
    ari: float
    mi_pred_bias: float | None
    mi_true_bias: float | None
    n: int

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in METRIC_FIELDS}


def evaluate_labels(pred, truth, bias=None) -> MetricsReport:
    """Bundle all metrics for one split."""
    pred, truth = _check_pair(pred, truth)
    mi_pred = discrete_mi(pred, bias) if bias is not None else None
    mi_true = discrete_mi(truth, bias) if bias is not None else None
    return MetricsReport(acc=accuracy(pred, truth), nmi=nmi(pred, truth),
                         ari=ari(pred, truth), mi_pred_bias=mi_pred,
                         mi_true_bias=mi_true, n=int(pred.shape[0]))
