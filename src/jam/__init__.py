"""Post-hoc alignment of frozen embedding spaces.

Two halves: a statistical alignment suite (CKA, CKNNA, CCA with linear or
RBF kernel PCA, SVCCA) for measuring how compatible two embedding sets
already are, and a joint-autoencoder trainer that induces alignment with
reconstruction plus contrastive objectives (con / negcon / spread),
evaluated by binary and 5-way image-to-text Recall@1.
"""

from .embed_io import (
    PairedDataset,
    SynthConfig,
    load_paired_dataset,
    read_embeddings,
    split_dataset,
    synth_generate,
    write_embeddings,
)
from .errors import (
    ConfigError,
    DegenerateInput,
    FormatError,
    InvalidInput,
    JamError,
    ManifestError,
    NonFiniteGradient,
    NonFiniteLoss,
    UsageError,
)
from .evalkit import RetrievalResult, aggregate_seeds, recall_5way, recall_binary
from .losses import LossConfig, SimilarityConfig
from .metrics import MetricConfig, alignment_report, cca, cka, cknna, svcca
from .nnet import AutoencoderConfig
from .numkit import RngStream
from .trainer import TrainConfig, TrainedJAM, sweep_alpha, train, validate

__version__ = "0.1.0"

__all__ = [
    "AutoencoderConfig",
    "ConfigError",
    "DegenerateInput",
    "FormatError",
    "InvalidInput",
    "JamError",
    "LossConfig",
    "ManifestError",
    "MetricConfig",
    "NonFiniteGradient",
    "NonFiniteLoss",
    "PairedDataset",
    "RetrievalResult",
    "RngStream",
    "SimilarityConfig",
    "SynthConfig",
    "TrainConfig",
    "TrainedJAM",
    "UsageError",
    "aggregate_seeds",
    "alignment_report",
    "cca",
    "cka",
    "cknna",
    "load_paired_dataset",
    "read_embeddings",
    "recall_5way",
    "recall_binary",
    "split_dataset",
    "svcca",
    "sweep_alpha",
    "synth_generate",
    "train",
    "validate",
    "write_embeddings",
]
