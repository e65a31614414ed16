"""Bias-invariant self-expressive subspace clustering.

A key/query network learns self-expression coefficients while adversarial
bias heads strip a known confound out of the embeddings; spectral
clustering on the resulting affinity yields the labels. Includes a
synthetic biased-data generator, clustering metrics, and a CLI.
"""

from . import cluster, datagen, debias, evalmetrics, numkit, sennet, trainer
from .cluster import ClusterLabels, SpectralConfig, build_affinity, spectral_cluster
from .datagen import DataGenConfig, Dataset, generate, load_dataset, make_mixed_domain, make_ood_split, save_dataset
from .debias import BiasHeads, LossWeights, init_bias_heads
from .errors import (
    CheckpointError,
    ConfigError,
    DataFormatError,
    InvsenError,
    NumericsError,
    ShapeError,
    TrainingDiverged,
)
from .evalmetrics import MetricsReport, accuracy, ari, discrete_mi, evaluate_labels, nmi, subspace_preserving_rate
from .sennet import SEModel, coefficient_matrix, init_se_model, se_loss, soft_threshold
from .trainer import TrainConfig, TrainState, fit, load_checkpoint, resume, save_checkpoint, train_step

__version__ = "0.1.0"
