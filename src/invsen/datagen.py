"""Synthetic biased union-of-subspaces data, domain splits, and dataset I/O.

Samples live on k random low-dimensional subspaces of R^d. A binary bias
label is derived from a parity rule over the cluster index (clusters split
into two groups, bias_group), decorrelated by flipping it with probability
e (bias_flip_e), and each sample is displaced by bias_strength along one of
two fixed unit vectors chosen by its bias label. The two displacement
directions are orthogonal to every subspace basis, so the bias is a
genuine confound: it rewards reconstructing from same-bias neighbors
without changing true subspace membership.

`generate` is the one sampler: each part of the OOD and mixed-domain
splits is a `generate` call on the config with its own flip rate and size.

Datasets carry raw geometry; training and clustering unit-normalize each
sample on entry. Saved CSV files therefore round-trip exactly.
"""

from __future__ import annotations

import os
import re
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataFormatError, check_integers
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
    seed: int = 0

    def __post_init__(self):
        check_integers(self, ("k_subspaces", "ambient_dim", "subspace_rank",
                              "n_per_cluster", "seed"))
        if self.k_subspaces < 1:
            raise ConfigError("k_subspaces must be >= 1")
        if self.subspace_rank < 1 or self.subspace_rank >= self.ambient_dim:
            raise ConfigError("subspace_rank must satisfy 1 <= rank < ambient_dim")
        if self.n_per_cluster < 1:
            raise ConfigError("n_per_cluster must be >= 1")
        if not (0.0 <= self.noise_sigma < np.inf and 0.0 <= self.bias_strength < np.inf):
            raise ConfigError("noise_sigma and bias_strength must be >= 0 and finite")
        if not 0.0 <= self.bias_flip_e <= 0.5:
            raise ConfigError("bias_flip_e must lie in [0, 0.5]")


def generate(config: DataGenConfig, name: str = "data") -> Dataset:
    """One dataset drawn per the config, with flip rate config.bias_flip_e.
    The subspace bases and bias directions depend on the seed and the
    geometry (k, d, rank) only, not on n_per_cluster or the flip rate; the
    samples are drawn from the stream named by name."""
    k, d, r, n_per = (config.k_subspaces, config.ambient_dim, config.subspace_rank,
                      config.n_per_cluster)
    needed = k * r + 2
    if needed > d:
        raise ConfigError(
            f"cannot draw {k} rank-{r} subspaces plus 2 orthogonal bias "
            f"directions in dimension {d} (need {needed})")
    # orthonormal bases for every subspace plus two bias directions, all
    # mutually orthogonal (QR of one Gaussian draw, signs fixed)
    q, rr = np.linalg.qr(make_rng(config.seed, "structure").standard_normal((d, needed)))
    q = q * np.sign(np.diag(rr))
    bases = [q[:, c * r:(c + 1) * r] for c in range(k)]
    bias_dirs = q[:, k * r:k * r + 2].T  # rows: direction for b = 0, b = 1

    rng = make_rng(config.seed, "samples", name)
    xs = []
    for c in range(k):
        x = rng.standard_normal((n_per, r)) @ bases[c].T
        if config.noise_sigma > 0:
            x = x + config.noise_sigma * rng.standard_normal((n_per, d))
        xs.append(x)
    x = np.concatenate(xs, axis=0)
    s = np.repeat(np.arange(k), n_per)
    n = s.size

    # bias labels: the group rule over the cluster index, flipped with
    # probability e. One draw is discarded first, where a removed second flip
    # drew, so that every dataset keeps its bytes.
    y = bias_group(s)
    rng.random(n)
    b = np.where(rng.random(n) < config.bias_flip_e, 1 - y, y)
    if config.bias_strength > 0:
        x = x + config.bias_strength * bias_dirs[b]

    provenance = {"config": asdict(config), "bases": bases, "bias_dirs": bias_dirs}
    return Dataset(X=x, s=s, b=b, name=name, provenance=provenance)


def make_ood_split(config: DataGenConfig, train_e: float, test_e: float = 0.5):
    """Train/test pair sharing subspace bases and bias directions; only the
    bias flip rate (and the sample draw) differs. train_e small keeps the
    bias strongly correlated with the clusters; test_e = 0.5 removes the
    correlation entirely."""
    return {name: generate(replace(config, bias_flip_e=e), name)
            for name, e in (("train", train_e), ("test", test_e))}


def make_mixed_domain(config: DataGenConfig, e_biased: float,
                      n_ratio: float = 0.5) -> Dataset:
    """A single shuffled set mixing a biased draw (flip rate e_biased) with
    a decorrelated draw (flip rate 0.5). n_ratio is the biased fraction;
    provenance["origin"] marks each sample 0 = biased split, 1 = unbiased."""
    if not 0.0 < n_ratio <= 1.0:
        raise ConfigError("n_ratio must lie in (0, 1]")
    n_biased = int(round(n_ratio * config.n_per_cluster))
    # both configs are built (and so checked) even when one part is empty
    halves = ((replace(config, bias_flip_e=e_biased), n_biased, "mixed-biased"),
              (replace(config, bias_flip_e=0.5), config.n_per_cluster - n_biased,
               "mixed-clean"))
    parts, origins = [], []
    for origin, (half, n_per, name) in enumerate(halves):
        if n_per > 0:
            parts.append(generate(replace(half, n_per_cluster=n_per), name))
            origins.append(np.full(parts[-1].n, origin))
    perm = make_rng(config.seed, "mixed-shuffle").permutation(sum(p.n for p in parts))
    provenance = {
        "config": asdict(config), "e_biased": e_biased, "n_ratio": n_ratio,
        "bases": parts[0].provenance["bases"], "bias_dirs": parts[0].provenance["bias_dirs"],
        "origin": np.concatenate(origins)[perm],
    }
    return Dataset(X=np.concatenate([p.X for p in parts])[perm],
                   s=np.concatenate([p.s for p in parts])[perm],
                   b=np.concatenate([p.b for p in parts])[perm],
                   name="mixed", provenance=provenance)


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
    """Read a dataset file; malformed headers, ragged rows, bytes that are
    not UTF-8, negative labels, or count mismatches raise DataFormatError
    with the offending line number."""
    with open(path, "rb") as fh:
        header = fh.readline()
        m = _HEADER_RE.match(_decode(header, path, 1).rstrip("\r\n"))
        if m is None:
            raise DataFormatError("bad or missing invsen-dataset header",
                                  path=path, line=1)
        n, d, has_s, has_b = (int(g) for g in m.groups())
        width = d + has_s + has_b
        # each field takes at least one character and a comma or newline
        if 2 * n * width - 1 > os.fstat(fh.fileno()).st_size - len(header):
            raise DataFormatError(
                f"header says n={n} rows of {width} fields, more than the file holds",
                path=path, line=1)
        try:
            x = np.empty((n, d), dtype=float)
        except ValueError as exc:  # a width past numpy's limit, with n = 0
            raise DataFormatError(f"header says d={d} ({exc})", path=path, line=1) from exc
        s = np.empty(n, dtype=int) if has_s else None
        b = np.empty(n, dtype=int) if has_b else None
        row = 0
        for lineno, line in enumerate(fh, start=2):
            line = _decode(line, path, lineno).strip()
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
                labels = [int(c) for c in cells[d:]]
                if has_s:
                    s[row] = labels[0]
                if has_b:
                    b[row] = labels[-1]
            except (ValueError, OverflowError) as exc:
                raise DataFormatError(f"unparsable value ({exc})",
                                      path=path, line=lineno) from exc
            if not np.all(np.isfinite(x[row])):
                raise DataFormatError("non-finite feature value",
                                      path=path, line=lineno)
            if min(labels, default=0) < 0:
                raise DataFormatError("negative label", path=path, line=lineno)
            row += 1
        if row != n:
            raise DataFormatError(
                f"header says n={n} but file has {row} data rows",
                path=path, line=row + 1)
    name = os.path.splitext(os.path.basename(path))[0]
    return Dataset(X=x, s=s, b=b, name=name, provenance={"source": path})


def _decode(raw: bytes, path: str, lineno: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"not UTF-8 ({exc.reason} at byte {exc.start})",
                              path=path, line=lineno) from exc


def bias_group(s: np.ndarray) -> np.ndarray:
    """The noise-free bias rule: parity of the cluster index."""
    return np.asarray(s, dtype=int) % 2
