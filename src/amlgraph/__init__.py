"""Bipartite transaction-graph anomaly scoring toolkit."""

__version__ = "0.1.0"

from .errors import (AmlGraphError, ConfigError, DimensionError, IngestError,
                     MetricError, NumericalError, SamplingError)
from .graph import (EXTERNAL, INCOMING, OUTGOING, BipartiteGraph,
                    CustomerProfile, RawTransaction, build_graph, load_graph,
                    sample_negatives, sample_neighborhood, save_graph,
                    split_edges)
from .model import (anomaly_score, decode, encode, init_params, load_model,
                    save_model)
from .training import (AnomalyResult, TrainingConfig, fit, link_loss,
                       score_transactions, train_step)
from .evaluation import average_precision, roc_auc, roc_curve
from .analytics import cosine_similarity, divergence_report, export_embeddings
from .datagen import SyntheticConfig, generate, holdout_split

__all__ = [
    "AmlGraphError", "ConfigError", "DimensionError", "IngestError",
    "MetricError", "NumericalError", "SamplingError",
    "EXTERNAL", "INCOMING", "OUTGOING", "BipartiteGraph", "CustomerProfile",
    "RawTransaction", "build_graph", "load_graph",
    "sample_negatives", "sample_neighborhood", "save_graph", "split_edges",
    "anomaly_score", "decode", "encode", "init_params", "load_model",
    "save_model",
    "AnomalyResult", "TrainingConfig", "fit", "link_loss",
    "score_transactions", "train_step",
    "average_precision", "roc_auc", "roc_curve",
    "cosine_similarity", "divergence_report", "export_embeddings",
    "SyntheticConfig", "generate", "holdout_split",
    "__version__",
]
