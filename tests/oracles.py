"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the defining equations with
plain Python arithmetic (or brute-force enumeration), sharing no code with
the library paths it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# ---------------------------------------------------------------------------
# forward pass, straight from the layer equations
# ---------------------------------------------------------------------------

def ref_mlp_forward(net, x):
    """Pure-Python re-implementation of the dense forward pass (fsum dot
    products, per-element activations, batchnorm over the batch's own
    statistics)."""
    h = [list(map(float, row)) for row in np.asarray(x)]
    for lay in net.layers:
        w = lay.w.tolist()
        b = lay.b.tolist()
        d_in, d_out = len(w), len(w[0])
        z = [[math.fsum(row[i] * w[i][j] for i in range(d_in)) + b[j]
              for j in range(d_out)] for row in h]
        if lay.batchnorm is not None:
            bn = lay.batchnorm
            nb = len(z)
            mean = [math.fsum(z[r][j] for r in range(nb)) / nb for j in range(d_out)]
            var = [math.fsum((z[r][j] - mean[j]) ** 2 for r in range(nb)) / nb
                   for j in range(d_out)]
            z = [[float(bn.scale[j]) * (z[r][j] - mean[j]) / math.sqrt(var[j] + bn.eps)
                  + float(bn.shift[j]) for j in range(d_out)] for r in range(nb)]
        if lay.activation == "relu":
            z = [[v if v > 0 else 0.0 for v in row] for row in z]
        elif lay.activation == "tanh":
            z = [[math.tanh(v) for v in row] for row in z]
        h = z
    return np.array(h)


# ---------------------------------------------------------------------------
# Adam, hand-rolled on python floats
# ---------------------------------------------------------------------------

def ref_adam_trajectory(p0, grad_fn, steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Scalar Adam trajectory [p1, p2, ...] from the textbook recurrence."""
    p, m, v = float(p0), 0.0, 0.0
    out = []
    for t in range(1, steps + 1):
        g = float(grad_fn(p))
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        p = p - lr * mhat / (math.sqrt(vhat) + eps)
        out.append(p)
    return out


def ref_adam_arrays_step(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam update per array, in place, as numpy expressions: the form
    the library used before its moments went flat, kept as the bit-exact
    reference of the fused update."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for p, g, mm, vv in zip(params, grads, m, v):
        mm *= beta1
        mm += (1.0 - beta1) * g
        vv *= beta2
        vv += (1.0 - beta2) * g * g
        p -= lr * (mm / c1) / (np.sqrt(vv / c2) + eps)


# ---------------------------------------------------------------------------
# dense symmetric eigensolver: cyclic Jacobi rotations
# ---------------------------------------------------------------------------

def jacobi_eigh(a, tol=1e-12, max_sweeps=100):
    """Eigenvalues (ascending) and eigenvectors of a symmetric matrix by
    cyclic Jacobi rotations."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = math.sqrt(max(0.0, (a * a).sum() - (np.diag(a) ** 2).sum()))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) < 1e-30:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = (1.0 if theta >= 0 else -1.0) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    order = np.argsort(np.diag(a))
    return np.diag(a)[order], v[:, order]


# ---------------------------------------------------------------------------
# metric oracles
# ---------------------------------------------------------------------------

def acc_bruteforce(pred, truth):
    """Max matched fraction over all injections of truth labels into pred
    labels, by exhaustive permutation."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    n = len(pred)
    pred_vals = sorted(set(pred.tolist()))
    truth_vals = sorted(set(truth.tolist()))
    wide, narrow = (pred_vals, truth_vals) if len(pred_vals) >= len(truth_vals) else (truth_vals, pred_vals)
    best = 0
    for perm in itertools.permutations(wide, len(narrow)):
        mapping = dict(zip(narrow, perm))
        if len(pred_vals) >= len(truth_vals):
            score = sum(1 for p, t in zip(pred, truth) if p == mapping[t])
        else:
            score = sum(1 for p, t in zip(pred, truth) if mapping[p] == t)
        best = max(best, score)
    return best / n


def ari_paircount(pred, truth):
    """ARI from explicit O(n^2) pair counting."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    n = len(pred)
    same_pred = 0
    same_truth = 0
    same_both = 0
    for i in range(n):
        for j in range(i + 1, n):
            sp = pred[i] == pred[j]
            st = truth[i] == truth[j]
            same_pred += sp
            same_truth += st
            same_both += sp and st
    n_pairs = n * (n - 1) / 2.0
    expected = same_pred * same_truth / n_pairs
    max_index = 0.5 * (same_pred + same_truth)
    if max_index == expected:
        return 1.0
    return float((same_both - expected) / (max_index - expected))


def nmi_direct(pred, truth):
    """NMI recomputed from dictionaries of counts with math.log."""
    pred = list(pred)
    truth = list(truth)
    n = len(pred)
    joint = {}
    pa, pb = {}, {}
    for p, t in zip(pred, truth):
        joint[(p, t)] = joint.get((p, t), 0) + 1
        pa[p] = pa.get(p, 0) + 1
        pb[t] = pb.get(t, 0) + 1
    h_a = -sum((c / n) * math.log(c / n) for c in pa.values())
    h_b = -sum((c / n) * math.log(c / n) for c in pb.values())
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    mi = sum((c / n) * math.log((c / n) / ((pa[p] / n) * (pb[t] / n)))
             for (p, t), c in joint.items())
    return mi / math.sqrt(h_a * h_b)


def mi_direct(a, b):
    """Plug-in mutual information, direct sum over the joint table."""
    a = list(a)
    b = list(b)
    n = len(a)
    joint, pa, pb = {}, {}, {}
    for x, y in zip(a, b):
        joint[(x, y)] = joint.get((x, y), 0) + 1
        pa[x] = pa.get(x, 0) + 1
        pb[y] = pb.get(y, 0) + 1
    return sum((c / n) * math.log((c / n) / ((pa[x] / n) * (pb[y] / n)))
               for (x, y), c in joint.items())


def entropy_direct(a):
    a = list(a)
    n = len(a)
    counts = {}
    for x in a:
        counts[x] = counts.get(x, 0) + 1
    return -sum((c / n) * math.log(c / n) for c in counts.values())


def assignment_bruteforce(cost):
    """Minimum-cost permutation by exhausting all of them."""
    cost = np.asarray(cost, dtype=float)
    k = cost.shape[0]
    best_perm, best_cost = None, math.inf
    for perm in itertools.permutations(range(k)):
        c = sum(cost[i, perm[i]] for i in range(k))
        if c < best_cost:
            best_cost = c
            best_perm = perm
    return np.array(best_perm), best_cost


def kmeans_bruteforce(rows, k):
    """Globally WCSS-optimal assignment by enumerating all k^n labelings.

    Vectorized over the enumeration via sum ||x - mean||^2 =
    sum ||x||^2 - ||sum x||^2 / count per cluster; fine for n around a
    dozen."""
    rows = np.asarray(rows, dtype=float)
    n, _ = rows.shape
    grids = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.int8)
    r2 = (rows * rows).sum(axis=1)
    wcss = np.zeros(len(grids))
    for c in range(k):
        mask = grids == c
        counts = mask.sum(axis=1)
        sums = mask @ rows
        own_r2 = mask @ r2
        with np.errstate(invalid="ignore", divide="ignore"):
            centered = own_r2 - (sums * sums).sum(axis=1) / counts
        wcss += np.where(counts > 0, centered, 0.0)
    best = int(np.argmin(wcss))
    return grids[best].astype(int), float(wcss[best])


def enumerate_contingency_tables(n, kp, kt):
    """All kp x kt count tables with a given total: every equivalence class
    of label pairs (the metrics are functions of the table alone)."""
    cells = kp * kt
    def rec(remaining, cells_left):
        if cells_left == 1:
            yield (remaining,)
            return
        for v in range(remaining + 1):
            for rest in rec(remaining - v, cells_left - 1):
                yield (v,) + rest
    for flat in rec(n, cells):
        yield np.array(flat, dtype=np.int64).reshape(kp, kt)


def labels_from_table(table):
    """A canonical (pred, truth) pair realizing a contingency table."""
    pred, truth = [], []
    kp, kt = table.shape
    for i in range(kp):
        for j in range(kt):
            pred.extend([i] * int(table[i, j]))
            truth.extend([j] * int(table[i, j]))
    return np.array(pred, dtype=int), np.array(truth, dtype=int)
