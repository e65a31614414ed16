"""Test helpers for gradient checks: a central finite-difference checker
over lists of arrays, and the two MLP helpers its loss closures use to
copy a net and load a list of arrays into it.

The library keeps each optimizer's trainable values in one flat vector;
these helpers work on separate arrays (numkit.mlp_param_arrays order), the
form a finite-difference check perturbs one coordinate at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from invsen.errors import NumericsError, ShapeError
from invsen.numkit import BatchNorm, DenseLayer, MlpParams, make_rng, mlp_param_arrays


def clone_mlp(params: MlpParams) -> MlpParams:
    """Deep copy (weights, biases, batchnorm scale and shift)."""
    layers = []
    for lay in params.layers:
        bn = None
        if lay.batchnorm is not None:
            o = lay.batchnorm
            bn = BatchNorm(o.scale.copy(), o.shift.copy())
        layers.append(DenseLayer(lay.w.copy(), lay.b.copy(), lay.activation, bn))
    return MlpParams(layers=layers)


def set_param_arrays(params: MlpParams, arrays) -> MlpParams:
    """Replace trainable arrays, in the mlp_param_arrays order."""
    arrays = list(arrays)
    expected = len(mlp_param_arrays(params))
    if len(arrays) != expected:
        raise ShapeError(f"expected {expected} arrays, got {len(arrays)}")
    it = iter(arrays)
    for lay in params.layers:
        lay.w = np.asarray(next(it), dtype=float)
        lay.b = np.asarray(next(it), dtype=float)
        if lay.batchnorm is not None:
            lay.batchnorm.scale = np.asarray(next(it), dtype=float)
            lay.batchnorm.shift = np.asarray(next(it), dtype=float)
    return params


@dataclass
class FiniteDiffReport:
    max_rel_err: float
    passed: bool
    n_coords: int
    worst: tuple  # (array index, flat coordinate)

    def __bool__(self) -> bool:
        return self.passed


def finite_diff_check(loss_and_grad, params, tolerance: float = 1e-4,
                      h_scale: float = 1e-5, max_coords: int | None = 256,
                      seed: int = 0) -> FiniteDiffReport:
    """Compare analytic gradients against central finite differences.

    loss_and_grad takes a list of arrays and returns (loss, grads) with
    grads shaped like the inputs; it must be deterministic and must not
    mutate its arguments. Each checked coordinate is perturbed by
    h = h_scale * max(1, |p|). The relative error uses
    |a - n| / max(|a|, |n|, 1e-3), so coordinates with near-zero gradients
    are effectively held to an absolute tolerance.

    If the parameter count exceeds max_coords, a seeded subset of
    coordinates is checked; pass max_coords=None to check all of them.
    """
    params = [np.array(p, dtype=float) for p in params]
    loss0, grads = loss_and_grad([p.copy() for p in params])
    if not np.isfinite(loss0):
        raise NumericsError("finite_diff_check: loss is non-finite")
    grads = [np.asarray(g, dtype=float) for g in grads]
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeError("finite_diff_check: gradient shape mismatch")

    coords = [(i, j) for i, p in enumerate(params) for j in range(p.size)]
    if max_coords is not None and len(coords) > max_coords:
        rng = make_rng(seed, "finite-diff")
        picks = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[int(k)] for k in sorted(picks)]

    max_rel = 0.0
    worst = (-1, -1)
    for (i, j) in coords:
        h = h_scale * max(1.0, abs(params[i].flat[j]))
        plus = [p.copy() for p in params]
        plus[i].flat[j] += h
        minus = [p.copy() for p in params]
        minus[i].flat[j] -= h
        lp, _ = loss_and_grad(plus)
        lm, _ = loss_and_grad(minus)
        if not (np.isfinite(lp) and np.isfinite(lm)):
            raise NumericsError("finite_diff_check: perturbed loss is non-finite")
        numeric = (lp - lm) / (2.0 * h)
        analytic = grads[i].flat[j]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-3)
        if rel > max_rel:
            max_rel = rel
            worst = (i, j)
    return FiniteDiffReport(max_rel_err=float(max_rel),
                            passed=bool(max_rel < tolerance),
                            n_coords=len(coords), worst=worst)
