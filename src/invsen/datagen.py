"""Synthetic biased union-of-subspaces data, domain splits, and dataset I/O.

Samples live on k random low-dimensional subspaces of R^d. A binary bias
label is derived from a parity rule over the cluster index (clusters split
into two groups), optionally decorrelated by flipping with probability e,
and each sample is displaced by bias_strength along one of two fixed unit
vectors chosen by its bias label. The two displacement directions are
orthogonal to every subspace basis, so the bias is a genuine confound: it
rewards reconstructing from same-bias neighbors without changing true
subspace membership.

Datasets carry raw geometry; training and clustering unit-normalize each
sample on entry. Saved CSV files therefore round-trip exactly.
"""

from __future__ import annotations

import os
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, DataFormatError
from .numkit import make_rng

_HEADER_RE = re.compile(
    r"^# invsen-dataset v1 n=(\d+) d=(\d+) has_s=([01]) has_b=([01])$")


@dataclass
class Dataset:
    """Feature matrix (n, d) with optional true cluster labels s and bias
    labels b. provenance records how the data came to be (generator config
    and shared structure, or the source file)."""

    X: np.ndarray
    s: np.ndarray | None = None
    b: np.ndarray | None = None
    name: str = ""
    provenance: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass
class DataGenConfig:
    k_subspaces: int
    ambient_dim: int
    subspace_rank: int
    n_per_cluster: int
    noise_sigma: float = 0.01
    bias_strength: float = 0.0
    bias_flip_e: float = 0.0
    label_flip: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.k_subspaces < 1:
            raise ConfigError("k_subspaces must be >= 1")
        if self.subspace_rank < 1 or self.subspace_rank >= self.ambient_dim:
            raise ConfigError("subspace_rank must satisfy 1 <= rank < ambient_dim")
        if self.n_per_cluster < 1:
            raise ConfigError("n_per_cluster must be >= 1")
        if self.noise_sigma < 0 or self.bias_strength < 0:
            raise ConfigError("noise_sigma and bias_strength must be >= 0")
        if not 0.0 <= self.bias_flip_e <= 0.5:
            raise ConfigError("bias_flip_e must lie in [0, 0.5]")
        if not 0.0 <= self.label_flip <= 0.5:
            raise ConfigError("label_flip must lie in [0, 0.5]")


def _draw_structure(config: DataGenConfig):
    """Orthonormal bases for every subspace plus two bias directions, all
    mutually orthogonal (QR of one Gaussian draw, signs fixed)."""
    k, d, r = config.k_subspaces, config.ambient_dim, config.subspace_rank
    needed = k * r + 2
    if needed > d:
        raise ConfigError(
            f"cannot draw {k} rank-{r} subspaces plus 2 orthogonal bias "
            f"directions in dimension {d} (need {needed})")
    rng = make_rng(config.seed, "structure")
    g = rng.standard_normal((d, needed))
    q, rr = np.linalg.qr(g)
    q = q * np.sign(np.diag(rr))  # deterministic sign convention
    bases = [q[:, c * r:(c + 1) * r] for c in range(k)]
    bias_dirs = q[:, k * r:k * r + 2].T  # rows: direction for b = 0, b = 1
    return bases, bias_dirs


def _draw_samples(config: DataGenConfig, bases, bias_dirs, flip_e: float, tag: str,
                  n_per_cluster: int | None = None) -> Dataset:
    k, d, r = config.k_subspaces, config.ambient_dim, config.subspace_rank
    n_per = config.n_per_cluster if n_per_cluster is None else n_per_cluster
    rng = make_rng(config.seed, "samples", tag)
    xs, ss = [], []
    for c in range(k):
        w = rng.standard_normal((n_per, r))
        x = w @ bases[c].T
        if config.noise_sigma > 0:
            x = x + config.noise_sigma * rng.standard_normal((n_per, d))
        xs.append(x)
        ss.append(np.full(n_per, c, dtype=int))
    x = np.concatenate(xs, axis=0)
    s = np.concatenate(ss)
    n = x.shape[0]

    # bias chain: group rule over the cluster index, an optional label
    # flip, then a color-style flip with probability e
    y = s % 2
    if config.label_flip > 0:
        y = np.where(rng.random(n) < config.label_flip, 1 - y, y)
    else:
        rng.random(n)  # keep the stream position independent of the knob
    b = np.where(rng.random(n) < flip_e, 1 - y, y)
    if config.bias_strength > 0:
        x = x + config.bias_strength * bias_dirs[b]

    provenance = {
        "config": asdict(config), "flip_e": flip_e, "tag": tag,
        "bases": [u.copy() for u in bases], "bias_dirs": bias_dirs.copy(),
    }
    return Dataset(X=x, s=s, b=b.astype(int), name=tag, provenance=provenance)


def generate(config: DataGenConfig, name: str = "data") -> Dataset:
    """One dataset drawn per the config (flip rate = config.bias_flip_e)."""
    bases, bias_dirs = _draw_structure(config)
    return _draw_samples(config, bases, bias_dirs, config.bias_flip_e, name)


def make_ood_split(config: DataGenConfig, train_e: float, test_e: float = 0.5):
    """Train/test pair sharing subspace bases and bias directions; only the
    bias flip rate (and the sample draw) differs. train_e small keeps the
    bias strongly correlated with the clusters; test_e = 0.5 removes the
    correlation entirely."""
    for e in (train_e, test_e):
        if not 0.0 <= e <= 0.5:
            raise ConfigError("flip rates must lie in [0, 0.5]")
    bases, bias_dirs = _draw_structure(config)
    train = _draw_samples(config, bases, bias_dirs, train_e, "train")
    test = _draw_samples(config, bases, bias_dirs, test_e, "test")
    return {"train": train, "test": test}


def make_mixed_domain(config: DataGenConfig, e_biased: float,
                      n_ratio: float = 0.5) -> Dataset:
    """A single shuffled set mixing a biased draw (flip rate e_biased) with
    a decorrelated draw (flip rate 0.5). n_ratio is the biased fraction;
    provenance["origin"] marks each sample 0 = biased split, 1 = unbiased."""
    if not 0.0 < n_ratio <= 1.0:
        raise ConfigError("n_ratio must lie in (0, 1]")
    if not 0.0 <= e_biased <= 0.5:
        raise ConfigError("e_biased must lie in [0, 0.5]")
    bases, bias_dirs = _draw_structure(config)
    n_biased = int(round(n_ratio * config.n_per_cluster))
    n_clean = config.n_per_cluster - n_biased
    parts = []
    origins = []
    if n_biased > 0:
        biased = _draw_samples(config, bases, bias_dirs, e_biased,
                               "mixed-biased", n_per_cluster=n_biased)
        parts.append(biased)
        origins.append(np.zeros(biased.n, dtype=int))
    if n_clean > 0:
        clean = _draw_samples(config, bases, bias_dirs, 0.5,
                              "mixed-clean", n_per_cluster=n_clean)
        parts.append(clean)
        origins.append(np.ones(clean.n, dtype=int))
    x = np.concatenate([p.X for p in parts], axis=0)
    s = np.concatenate([p.s for p in parts])
    b = np.concatenate([p.b for p in parts])
    origin = np.concatenate(origins)
    perm = make_rng(config.seed, "mixed-shuffle").permutation(x.shape[0])
    provenance = {
        "config": asdict(config), "e_biased": e_biased, "n_ratio": n_ratio,
        "bases": [u.copy() for u in bases], "bias_dirs": bias_dirs.copy(),
        "origin": origin[perm],
    }
    return Dataset(X=x[perm], s=s[perm], b=b[perm], name="mixed",
                   provenance=provenance)


# ---------------------------------------------------------------------------
# Dataset files: UTF-8 CSV with a one-line header
# ---------------------------------------------------------------------------

def save_dataset(dataset: Dataset, path: str) -> None:
    """Write `# invsen-dataset v1 n=<n> d=<d> has_s=<0|1> has_b=<0|1>` then
    one row per sample: d features (shortest exact decimal), then s, then
    b when present. Written to a temp file and renamed, so a failed write
    never leaves a partial file."""
    x = np.asarray(dataset.X, dtype=float)
    n, d = x.shape
    has_s = dataset.s is not None
    has_b = dataset.b is not None
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# invsen-dataset v1 n={n} d={d} "
                 f"has_s={int(has_s)} has_b={int(has_b)}\n")
        for i in range(n):
            cells = [repr(float(v)) for v in x[i]]
            if has_s:
                cells.append(str(int(dataset.s[i])))
            if has_b:
                cells.append(str(int(dataset.b[i])))
            fh.write(",".join(cells))
            fh.write("\n")
    os.replace(tmp, path)


def load_dataset(path: str) -> Dataset:
    """Read a dataset file; malformed headers, ragged rows, or count
    mismatches raise DataFormatError with the offending line number."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        m = _HEADER_RE.match(header.rstrip("\n"))
        if m is None:
            raise DataFormatError("bad or missing invsen-dataset header",
                                  path=path, line=1)
        n, d, has_s, has_b = (int(g) for g in m.groups())
        width = d + has_s + has_b
        # each field takes at least one character and a comma or newline
        if 2 * n * width - 1 > os.fstat(fh.fileno()).st_size - len(header.encode("utf-8")):
            raise DataFormatError(
                f"header says n={n} rows of {width} fields, more than the file holds",
                path=path, line=1)
        x = np.empty((n, d), dtype=float)
        s = np.empty(n, dtype=int) if has_s else None
        b = np.empty(n, dtype=int) if has_b else None
        row = 0
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            if row >= n:
                raise DataFormatError(f"more rows than header n={n}",
                                      path=path, line=lineno)
            cells = line.split(",")
            if len(cells) != width:
                raise DataFormatError(
                    f"expected {width} fields, found {len(cells)}",
                    path=path, line=lineno)
            try:
                x[row] = [float(c) for c in cells[:d]]
                pos = d
                if has_s:
                    s[row] = int(cells[pos])
                    pos += 1
                if has_b:
                    b[row] = int(cells[pos])
            except ValueError as exc:
                raise DataFormatError(f"unparsable value ({exc})",
                                      path=path, line=lineno) from exc
            if not np.all(np.isfinite(x[row])):
                raise DataFormatError("non-finite feature value",
                                      path=path, line=lineno)
            row += 1
        if row != n:
            raise DataFormatError(
                f"header says n={n} but file has {row} data rows",
                path=path, line=row + 1)
    name = os.path.splitext(os.path.basename(path))[0]
    return Dataset(X=x, s=s, b=b, name=name, provenance={"source": path})


def bias_group(s: np.ndarray) -> np.ndarray:
    """The noise-free bias rule: parity of the cluster index."""
    return np.asarray(s, dtype=int) % 2
