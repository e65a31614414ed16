"""Train the self-expressive network on clean (bias-free) data and cluster.

End to end: generate a union of three rank-4 subspaces, train with the
adversarial terms switched off, build the affinity |C| + |C^T|, run
normalized spectral clustering, and score the result. Takes a few seconds.
"""

import numpy as np

from invsen.cluster import SpectralConfig, build_affinity, spectral_cluster
from invsen.datagen import DataGenConfig, generate
from invsen.debias import LossWeights
from invsen.evalmetrics import evaluate_labels, subspace_preserving_rate
from invsen.numkit import normalize_rows
from invsen.sennet import coefficient_matrix
from invsen.trainer import TrainConfig, fit

data = generate(DataGenConfig(k_subspaces=3, ambient_dim=30, subspace_rank=4,
                              n_per_cluster=200, noise_sigma=0.01,
                              bias_strength=0.0, bias_flip_e=0.0, seed=0))

config = TrainConfig(epochs=150, batch_size=128, seed=0,
                     weights=LossWeights(gamma=50.0, delta=0.9, lam=0.0))
state = fit(config, data)

first, last = state.history[0], state.history[-1]
print(f"se loss: {first['l_se']:.3f} (epoch 1) -> {last['l_se']:.3f} "
      f"(epoch {last['epoch']}), learned beta = {last['beta']:.4f}")

affinity = build_affinity(state.model, data.X)
pred = spectral_cluster(affinity, SpectralConfig(k=3, seed=0))

report = evaluate_labels(pred.labels, data.s, data.b)
coeffs = coefficient_matrix(state.model, normalize_rows(data.X))
spr = subspace_preserving_rate(coeffs, data.s)

print(f"ACC {report.acc:.3f}  NMI {report.nmi:.3f}  ARI {report.ari:.3f}")
print(f"subspace-preserving rate {spr:.3f} "
      f"(fraction of coefficient mass on same-cluster samples)")
print(f"coefficient sparsity {float(np.mean(coeffs == 0)):.2%}")
