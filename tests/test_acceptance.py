"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The bias-mitigation
experiments (criteria 5-7) train real models; the whole module takes
roughly ten minutes of CPU.

Calibration notes (all runs use the k=3 / d=30 / rank-4 / 200-per-cluster
/ sigma=0.01 geometry and the 64-64-64 + embed-64 key/query nets):

* mitigation fixture (criteria 5 and 6): bias_strength 2.5, train flip
  rate 0.25, OOD test flip rate 0.5, batch 64, gamma 50, 1200 epochs,
  head lr 1e-3, no head batchnorm, 100 warmup epochs. At this point the
  plain model's OOD accuracy collapses while the adversarial model
  recovers it.
* dynamics fixture (criterion 7): same data but batch 128 and head lr
  5e-4 without warmup, 800 epochs. The heads first learn the bias from
  the early embeddings, then lose it as the mitigation removes it: the
  bias-head accuracy shows the early-peak-then-collapse signature. It
  ends near 0.75: on the training split the bias follows the clusters
  for three samples in four, so a head reaches that accuracy from any
  embeddings that keep the clusters, however little bias they carry
  beyond them. On the mitigation fixture the heads saturate during the
  warmup and end at the same level (the collapse gap there is also
  printed for reference). Head accuracy on the training split is
  therefore no measure of how much bias is left where it does not
  follow the clusters; criterion 6 measures that on the decorrelated
  split.
"""

import time

import numpy as np
import pytest

from invsen import numkit
from invsen.cluster import SpectralConfig, build_affinity, spectral_cluster
from invsen.datagen import DataGenConfig, generate, load_dataset, make_ood_split, save_dataset
from invsen.debias import (
    LossWeights,
    bias_group_offsets,
    bias_posterior,
    cross_entropy_loss,
    entropy_confusion_loss,
    init_bias_heads,
    invariance_loss,
)
from invsen.evalmetrics import accuracy, ari, discrete_mi, nmi, subspace_preserving_rate
from invsen.numkit import make_rng, mlp_backward, mlp_forward, normalize_rows
from invsen.sennet import coefficient_matrix, init_se_model, se_loss
from invsen.trainer import TrainConfig, fit, load_checkpoint, save_checkpoint

from gradcheck import clone_mlp, finite_diff_check, set_param_arrays
from oracles import (
    acc_bruteforce,
    ari_paircount,
    enumerate_contingency_tables,
    labels_from_table,
    nmi_direct,
)

pytestmark = pytest.mark.acceptance

SEEDS = (0, 1, 2, 3, 4)

GEOMETRY = dict(k_subspaces=3, ambient_dim=30, subspace_rank=4,
                n_per_cluster=200, noise_sigma=0.01)


def announce(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {num}: {status} — {detail}")
    return ok


def median(values):
    return float(np.median(np.asarray(values, dtype=float)))


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness
# ---------------------------------------------------------------------------

class TestCriterion1:
    def test_gradients(self):
        t0 = time.time()
        tol = 1e-4
        reports = {}

        # each layer type in isolation, params and inputs together
        x = make_rng(1, "c1").standard_normal((6, 3))
        layer_cases = [
            ("linear", ["none"], False),
            ("relu", ["relu"], False),
            ("tanh", ["tanh"], False),
            ("batchnorm-train", ["none"], True),
        ]
        for name, acts, bn in layer_cases:
            net = numkit.init_mlp([3, 4], acts, batchnorm=bn,
                                  rng=make_rng(2, name))

            def loss_and_grad(arrays, net=net):
                clone = clone_mlp(net)
                set_param_arrays(clone, [a.copy() for a in arrays[:-1]])
                out, cache = mlp_forward(clone, arrays[-1])
                grads, gin = mlp_backward(clone, cache, out)
                return 0.5 * float((out ** 2).sum()), grads + [gin]

            params = numkit.mlp_param_arrays(net) + [x.copy()]
            reports[name] = finite_diff_check(loss_and_grad, params,
                                              tolerance=tol, max_coords=None)

        # se_loss w.r.t. key net, query net and beta (reparameterized)
        xb = make_rng(3, "c1").standard_normal((6, 5))

        def se_param_grads(m, res):
            # key net, query net, beta: the main optimizer's order
            return (mlp_backward(m.key_net, res.key_cache, res.grad_key_out)[0]
                    + mlp_backward(m.query_net, res.query_cache, res.grad_query_out)[0]
                    + [np.array(res.grad_beta_raw)])

        def se_lg(arrays):
            m = init_se_model(5, hidden=(8, 6), embed_dim=4, rng=make_rng(4, "c1"))
            nk = len(numkit.mlp_param_arrays(m.key_net))
            set_param_arrays(m.key_net, [a.copy() for a in arrays[:nk]])
            set_param_arrays(m.query_net, [a.copy() for a in arrays[nk:2 * nk]])
            m.beta_raw = np.asarray(arrays[2 * nk]).reshape(()).copy()
            res = se_loss(m, xb, gamma=10.0, delta=0.9)
            return res.loss, se_param_grads(m, res)

        model0 = init_se_model(5, hidden=(8, 6), embed_dim=4, rng=make_rng(4, "c1"))
        reports["se_loss"] = finite_diff_check(
            se_lg, numkit.mlp_param_arrays(model0.key_net)
            + numkit.mlp_param_arrays(model0.query_net) + [model0.beta_raw],
            tolerance=tol, max_coords=None)

        # the same with the aligned reconstruction term weighted in: every
        # contributor moved into the bias group of the sample it rebuilds
        shift = bias_group_offsets(xb, make_rng(11, "c1").integers(0, 2, size=6))[0]

        def se_aligned_lg(arrays):
            m = init_se_model(5, hidden=(8, 6), embed_dim=4, rng=make_rng(4, "c1"))
            nk = len(numkit.mlp_param_arrays(m.key_net))
            set_param_arrays(m.key_net, [a.copy() for a in arrays[:nk]])
            set_param_arrays(m.query_net, [a.copy() for a in arrays[nk:2 * nk]])
            m.beta_raw = np.asarray(arrays[2 * nk]).reshape(()).copy()
            res = se_loss(m, xb, gamma=10.0, delta=0.9, shift=shift, shift_weight=0.7)
            return res.loss + 0.7 * res.l_align, se_param_grads(m, res)

        reports["se_loss-aligned"] = finite_diff_check(
            se_aligned_lg, numkit.mlp_param_arrays(model0.key_net)
            + numkit.mlp_param_arrays(model0.query_net) + [model0.beta_raw],
            tolerance=tol, max_coords=None)

        # bias losses through head parameters and through the embeddings
        emb = make_rng(5, "c1").standard_normal((8, 4))
        labels = make_rng(6, "c1").integers(0, 2, size=8)
        heads0 = init_bias_heads(4, hidden=(6, 5), rng=make_rng(7, "c1"))

        def make_head_lg(kind, through):
            def lg(arrays):
                heads = init_bias_heads(4, hidden=(6, 5), rng=make_rng(7, "c1"))
                if through == "params":
                    set_param_arrays(heads.g, [a.copy() for a in arrays])
                    e = emb
                else:
                    e = arrays[0]
                probs, cache = bias_posterior(heads.g, e)
                if kind == "ce":
                    loss, gz = cross_entropy_loss(probs, labels)
                else:
                    loss, gz = entropy_confusion_loss(probs)
                grads, gin = mlp_backward(heads.g, cache, gz)
                if through == "params":
                    return loss, grads
                return loss, [gin]
            return lg

        for kind in ("ce", "conf"):
            reports[f"{kind}-params"] = finite_diff_check(
                make_head_lg(kind, "params"), numkit.mlp_param_arrays(heads0.g),
                tolerance=tol, max_coords=None)
            reports[f"{kind}-embed"] = finite_diff_check(
                make_head_lg(kind, "embed"), [emb.copy()],
                tolerance=tol, max_coords=None)

        # invariance loss through both embeddings and through the net that
        # embeds the batch and its bias-swapped counterfactual
        emb_cf = make_rng(8, "c1").standard_normal((8, 4))

        def inv_embed_lg(arrays):
            loss, *grads = invariance_loss(*arrays)
            return loss, grads

        reports["inv-embed"] = finite_diff_check(
            inv_embed_lg, [emb.copy(), emb_cf], tolerance=tol, max_coords=None)

        xi = make_rng(9, "c1").standard_normal((8, 5))
        xi_cf = bias_group_offsets(xi, labels)[1]
        net0 = numkit.init_mlp([5, 6, 4], ["relu", "tanh"], batchnorm=False,
                               rng=make_rng(10, "c1"))

        def inv_params_lg(arrays):
            net = set_param_arrays(clone_mlp(net0),
                                   [a.copy() for a in arrays])
            e, cache = mlp_forward(net, xi)
            e_cf, cache_cf = mlp_forward(net, xi_cf)
            loss, g, g_cf = invariance_loss(e, e_cf)
            grads, _ = mlp_backward(net, cache, g)
            grads_cf, _ = mlp_backward(net, cache_cf, g_cf)
            return loss, [a + c for a, c in zip(grads, grads_cf)]

        reports["inv-params"] = finite_diff_check(
            inv_params_lg, numkit.mlp_param_arrays(net0), tolerance=tol,
            max_coords=None)

        elapsed = time.time() - t0
        worst = max(r.max_rel_err for r in reports.values())
        ok = all(r.passed for r in reports.values()) and elapsed < 30.0
        announce(1, ok, f"max rel err {worst:.2e} over {len(reports)} checks, "
                        f"{elapsed:.1f}s (< 30s)")
        assert ok, {k: r.max_rel_err for k, r in reports.items()}


# ---------------------------------------------------------------------------
# criterion 2: metric oracle equivalence
# ---------------------------------------------------------------------------

class TestCriterion2:
    def test_metric_oracles(self):
        """All label pairs with n <= 10, k <= 3, enumerated by contingency
        table (the metrics are functions of the table, so the tables are
        the equivalence classes of label pairs; each class is checked on a
        canonical representative). n <= 4 is additionally checked over the
        raw cross product of labelings."""
        t0 = time.time()
        checked = 0
        for n in range(1, 11):
            for table in enumerate_contingency_tables(n, 3, 3):
                pred, truth = labels_from_table(table)
                if accuracy(pred, truth) != acc_bruteforce(pred, truth):
                    raise AssertionError(f"ACC mismatch at table {table.tolist()}")
                if n >= 2 and ari(pred, truth) != ari_paircount(pred, truth):
                    raise AssertionError(f"ARI mismatch at table {table.tolist()}")
                if abs(nmi(pred, truth) - nmi_direct(pred, truth)) > 1e-12:
                    raise AssertionError(f"NMI mismatch at table {table.tolist()}")
                checked += 1

        rng = make_rng(8, "c2")
        cross_checked = 0
        for n in range(1, 5):
            for pid in range(3 ** n):
                for tid in range(3 ** n):
                    pred = np.array([(pid // 3 ** i) % 3 for i in range(n)])
                    truth = np.array([(tid // 3 ** i) % 3 for i in range(n)])
                    assert accuracy(pred, truth) == acc_bruteforce(pred, truth)
                    cross_checked += 1
        elapsed = time.time() - t0
        ok = elapsed < 60.0
        announce(2, ok, f"{checked} contingency classes + {cross_checked} raw "
                        f"pairs exact, {elapsed:.1f}s (< 60s)")
        assert ok


# ---------------------------------------------------------------------------
# criterion 3: spectral recovery on block-diagonal affinities
# ---------------------------------------------------------------------------

class TestCriterion3:
    def test_block_recovery(self):
        t0 = time.time()
        results = []
        for k in (2, 3, 4):
            for draw in range(3):
                rng = make_rng(9, "c3", k, draw)
                sizes = [int(rng.integers(20, 51)) for _ in range(k)]
                n = sum(sizes)
                a = np.zeros((n, n))
                labels = np.zeros(n, dtype=int)
                start = 0
                for c, size in enumerate(sizes):
                    w = rng.uniform(0.2, 1.0, size=(size, size))
                    w = 0.5 * (w + w.T)
                    np.fill_diagonal(w, 0.0)
                    a[start:start + size, start:start + size] = w
                    labels[start:start + size] = c
                    start += size
                perm = rng.permutation(n)
                a = 0.5 * (a + a.T)
                a = a[np.ix_(perm, perm)]
                labels = labels[perm]
                pred = spectral_cluster(a, SpectralConfig(k=k, seed=draw))
                results.append(accuracy(pred.labels, labels))
        elapsed = time.time() - t0
        ok = all(r == 1.0 for r in results) and elapsed < 30.0
        announce(3, ok, f"ACC {sorted(set(results))} over {len(results)} permuted "
                        f"block-diagonal cases, {elapsed:.1f}s (< 30s)")
        assert ok


# ---------------------------------------------------------------------------
# criteria 4-7: trained-model experiments
# ---------------------------------------------------------------------------

def clean_config(seed):
    return TrainConfig(epochs=150, batch_size=128, seed=seed,
                       weights=LossWeights(gamma=50.0, delta=0.9, lam=0.0, mu=1.0))


def mitigation_config(seed, lam):
    return TrainConfig(epochs=1200, batch_size=64, seed=seed, lr_bias=1e-3,
                       bias_batchnorm=False, bias_warmup_epochs=100,
                       weights=LossWeights(gamma=50.0, delta=0.9, lam=lam, mu=1.0))


def dynamics_config(seed):
    return TrainConfig(epochs=800, batch_size=128, seed=seed, lr_bias=5e-4,
                       bias_batchnorm=False, bias_warmup_epochs=0,
                       weights=LossWeights(gamma=50.0, delta=0.9, lam=1.0, mu=1.0))


def ood_split(seed, bias_strength=2.5, train_e=0.25):
    cfg = DataGenConfig(seed=seed, bias_strength=bias_strength,
                        bias_flip_e=train_e, **GEOMETRY)
    return make_ood_split(cfg, train_e=train_e, test_e=0.5)


def evaluate_ood(state, split, seed):
    out = {}
    for name, ds in split.items():
        affinity = build_affinity(state.model, ds.X)
        pred = spectral_cluster(affinity, SpectralConfig(k=3, seed=seed))
        out[f"{name}_acc"] = accuracy(pred.labels, ds.s)
        out[f"{name}_mi_pred"] = discrete_mi(pred.labels, ds.b)
        out[f"{name}_mi_true"] = discrete_mi(ds.s, ds.b)
    return out


def head_curve_stats(history):
    accs = [rec["bias_head_acc"] for rec in history]
    n20 = max(1, len(accs) // 5)
    return max(accs[:n20]), float(np.mean(accs[-n20:]))


@pytest.fixture(scope="module")
def bias_suite():
    """The mitigation fixture: per seed, a plain (lam=0) and an adversarial
    (lam=1, mu=1) model on the same biased OOD split."""
    runs = []
    for seed in SEEDS:
        split = ood_split(seed)
        entry = {"seed": seed}
        for tag, lam in (("base", 0.0), ("inv", 1.0)):
            state = fit(mitigation_config(seed, lam), split["train"])
            entry[tag] = evaluate_ood(state, split, seed)
            peak, final = head_curve_stats(state.history)
            entry[tag]["head_peak"] = peak
            entry[tag]["head_final"] = final
        runs.append(entry)
    return runs


@pytest.fixture(scope="module")
def dynamics_suite():
    """The dynamics fixture: adversarial runs at the calibration point
    where the bias heads collapse (see module docstring)."""
    runs = []
    for seed in SEEDS:
        split = ood_split(seed)
        state = fit(dynamics_config(seed), split["train"])
        peak, final = head_curve_stats(state.history)
        runs.append({"seed": seed, "peak": peak, "final": final})
    return runs


class TestCriterion4:
    def test_clean_senet_sanity(self):
        t0 = time.time()
        accs, sprs = [], []
        for seed in SEEDS:
            cfg = DataGenConfig(seed=seed, bias_strength=0.0, bias_flip_e=0.0,
                                **GEOMETRY)
            ds = generate(cfg)
            state = fit(clean_config(seed), ds)
            affinity = build_affinity(state.model, ds.X)
            pred = spectral_cluster(affinity, SpectralConfig(k=3, seed=seed))
            accs.append(accuracy(pred.labels, ds.s))
            coeffs = coefficient_matrix(state.model, normalize_rows(ds.X))
            sprs.append(subspace_preserving_rate(coeffs, ds.s))
        elapsed = time.time() - t0
        ok = (median(accs) >= 0.95 and median(sprs) >= 0.90 and elapsed < 300.0)
        announce(4, ok, f"clean data: ACC median {median(accs):.3f} (>= 0.95), "
                        f"subspace-preserving rate median {median(sprs):.3f} "
                        f"(>= 0.90), {elapsed:.0f}s (< 300s)")
        assert ok, (accs, sprs)


class TestCriterion5:
    def test_bias_mitigation_effect(self, bias_suite):
        base = [r["base"]["test_acc"] for r in bias_suite]
        inv = [r["inv"]["test_acc"] for r in bias_suite]
        gaps = [i - b for i, b in zip(inv, base)]
        base_med, inv_med = median(base), median(inv)
        ok = base_med < 0.70 and inv_med >= base_med + 0.10
        announce(5, ok,
                 f"OOD ACC baseline median {base_med:.3f} (< 0.70), "
                 f"adversarial median {inv_med:.3f} "
                 f"(>= baseline + 0.10; per-seed gap median {median(gaps):+.3f})")
        print(f"    baseline per seed: {[round(v, 3) for v in base]}")
        print(f"    adversarial per seed: {[round(v, 3) for v in inv]}")
        assert ok


class TestCriterion6:
    def test_mi_inequality_diagnostic(self, bias_suite):
        base_mi = [r["base"]["test_mi_pred"] for r in bias_suite]
        inv_mi = [r["inv"]["test_mi_pred"] for r in bias_suite]
        true_mi = [r["inv"]["test_mi_true"] for r in bias_suite]
        ratio_ok = median(base_mi) >= 2.0 * median(inv_mi)
        within_ok = median(inv_mi) <= 3.0 * median(true_mi)
        ok = ratio_ok and within_ok
        announce(6, ok,
                 f"I(pred,b) on the OOD split: baseline {median(base_mi):.4f} vs "
                 f"adversarial {median(inv_mi):.4f} "
                 f"({median(base_mi) / max(median(inv_mi), 1e-12):.1f}x, need >= 2x: "
                 f"{'ok' if ratio_ok else 'FAIL'}); adversarial vs I(s,b) "
                 f"{median(true_mi):.4f} "
                 f"({median(inv_mi) / max(median(true_mi), 1e-12):.1f}x, need <= 3x: "
                 f"{'ok' if within_ok else 'FAIL'})")
        assert ok


class TestCriterion7:
    def test_adversarial_dynamics(self, dynamics_suite, bias_suite):
        collapses = [r["peak"] - r["final"] for r in dynamics_suite]
        fixture_collapses = [r["inv"]["head_peak"] - r["inv"]["head_final"]
                             for r in bias_suite]
        ok = median(collapses) >= 0.15
        announce(7, ok,
                 f"bias-head accuracy early peak minus final mean: median "
                 f"{median(collapses):.3f} (>= 0.15) on the dynamics fixture "
                 f"(mitigation fixture for reference: {median(fixture_collapses):.3f})")
        print(f"    per seed (dynamics): {[round(c, 3) for c in collapses]}")
        assert ok, collapses


# ---------------------------------------------------------------------------
# criterion 8: determinism and round trips
# ---------------------------------------------------------------------------

class TestCriterion8:
    def test_determinism_and_round_trips(self, tmp_path):
        t0 = time.time()
        cfg = DataGenConfig(seed=3, bias_strength=1.5, bias_flip_e=0.2,
                            k_subspaces=2, ambient_dim=15, subspace_rank=3,
                            n_per_cluster=40, noise_sigma=0.01)
        ds = generate(cfg)

        # dataset file round trip is exact
        data_path = str(tmp_path / "d.csv")
        save_dataset(ds, data_path)
        back = load_dataset(data_path)
        dataset_ok = (np.array_equal(back.X, ds.X)
                      and np.array_equal(back.s, ds.s)
                      and np.array_equal(back.b, ds.b))

        # repeated seeded runs are identical (params, history, metrics)
        def one(seed=5):
            tc = TrainConfig(epochs=4, batch_size=16, seed=seed,
                             weights=LossWeights(gamma=20.0, delta=0.9,
                                                 lam=0.5, mu=1.0))
            state = fit(tc, ds)
            affinity = build_affinity(state.model, ds.X)
            pred = spectral_cluster(affinity, SpectralConfig(k=2, seed=seed))
            return state, pred

        s1, p1 = one()
        s2, p2 = one()
        run_ok = (np.array_equal(s1.opt_main.params, s2.opt_main.params)
                  and np.array_equal(s1.opt_bias.params, s2.opt_bias.params)
                  and s1.history == s2.history
                  and np.array_equal(p1.labels, p2.labels))

        # checkpoint round trip is bitwise
        ck1 = str(tmp_path / "a.invsen")
        ck2 = str(tmp_path / "b.invsen")
        save_checkpoint(s1, ck1)
        save_checkpoint(load_checkpoint(ck1), ck2)
        ckpt_ok = ((tmp_path / "a.invsen").read_bytes()
                   == (tmp_path / "b.invsen").read_bytes())

        elapsed = time.time() - t0
        ok = dataset_ok and run_ok and ckpt_ok and elapsed < 120.0
        announce(8, ok, f"dataset round trip exact: {dataset_ok}; "
                        f"seeded reruns identical: {run_ok}; checkpoint round "
                        f"trip bitwise: {ckpt_ok}; {elapsed:.0f}s (< 120s)")
        assert ok
