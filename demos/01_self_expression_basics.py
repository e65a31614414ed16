"""Tour of the self-expression building blocks.

Every sample in a batch gets rebuilt as a weighted combination of the
other samples; the weights come from soft-thresholded inner products of
key and query embeddings. This script walks the pieces on data small
enough to read by eye.
"""

import numpy as np

from invsen.numkit import make_rng, mlp_backward, normalize_rows
from invsen.sennet import (
    coefficient_matrix,
    elastic_net_reg,
    init_se_model,
    se_loss,
    soft_threshold,
)

# --- the soft threshold ----------------------------------------------------
# sign(t) * max(0, |t| - beta): everything inside [-beta, beta] becomes an
# exact zero, everything outside shrinks toward zero by beta.
ts = np.linspace(-2, 2, 9)
print("t        :", np.round(ts, 2))
print("T_0.5(t) :", np.round(soft_threshold(ts, 0.5), 2))

# --- the elastic-net penalty ------------------------------------------------
# r(c) = delta*|c| + ((1-delta)/2) c^2 keeps coefficients small but, unlike
# a pure L1 penalty, still rewards spreading weight over several samples.
# One call gives the penalty and its subgradient, which is 0 at c = 0.
cs = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
r, r_grad = elastic_net_reg(cs, 0.9)
print("\nc        :", cs)
print("r(c), d=0.9 :", np.round(r, 3))
print("r'(c), d=0.9:", np.round(r_grad, 3))

# --- coefficients on a tiny union of two lines ------------------------------
rng = make_rng(0, "demo1")
line_a = np.outer(rng.standard_normal(6), [1.0, 0.0, 0.0])
line_b = np.outer(rng.standard_normal(6), [0.0, 1.0, 0.0])
x = normalize_rows(np.vstack([line_a, line_b]) + 0.01 * rng.standard_normal((12, 3)))

model = init_se_model(3, hidden=(16, 16), embed_dim=8, rng=rng)
c = coefficient_matrix(model, x)
print("\nuntrained coefficient matrix: shape", c.shape,
      "zero diagonal:", bool(np.all(np.diag(c) == 0)),
      "sparsity:", round(float(np.mean(c == 0)), 2))

res = se_loss(model, x, gamma=50.0, delta=0.9)
print(f"se loss {res.loss:.3f} = reconstruction {res.recon:.3f} "
      f"+ regularizer {res.reg:.3f}")

# The loss comes with exact gradients at both embeddings and for beta;
# backpropagating the embedding gradients through the nets gives the rest
# of what the trainer feeds to Adam.
grad_key, _ = mlp_backward(model.key_net, res.key_cache, res.grad_key_out)
print("gradient arrays (key net, weights and biases):", len(grad_key))
print("beta gradient:", round(res.grad_beta_raw, 6))
