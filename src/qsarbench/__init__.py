"""Benchmark toolkit comparing a minimal classical MLP against a
parameterized-quantum-circuit classifier on molecular activity data.

The pipeline: SMILES -> circular fingerprints (or precomputed image
embeddings) -> PCA feature selection -> paired training of both
classifiers under shared batch schedules -> aggregated accuracy reports.
"""

from ._version import __version__
from .classical import init_mlp_params, mlp_forward, mlp_gradient, mlp_predict, train_mlp
from .clustering import Clustering, butina_cluster, cluster_training_plan
from .data import (
    Dataset,
    DatasetSchema,
    SplitPlan,
    load_dataset,
    load_embeddings,
    make_split,
    subsample_fraction,
    undersample,
)
from .fingerprint import Fingerprint, from_hex, morgan_fingerprint, tanimoto, to_hex
from .harness import (
    CellSummary,
    ExperimentConfig,
    ExperimentReport,
    TrialResult,
    load_report,
    run_cluster_protocol,
    run_fraction_sweep,
    run_protocol,
    write_report_files,
)
from .pca import PcaModel, fit_pca, transform
from .quantum import (
    QuantumModelParams,
    init_quantum_params,
    q_forward,
    q_gradient,
    q_predict,
    train_quantum,
)
from .simulator import amplitude_embed, parameter_shift_gradient, run_ansatz, z_expectations
from .smiles import Atom, Bond, BondOrder, MolecularGraph, parse_smiles
from .training import OptimizerConfig, SupervisedSplit, TrainingResult, batch_schedule

__all__ = [
    "__version__",
    "Atom", "Bond", "BondOrder", "MolecularGraph", "parse_smiles",
    "Fingerprint", "morgan_fingerprint", "tanimoto", "to_hex", "from_hex",
    "Dataset", "DatasetSchema", "SplitPlan", "load_dataset", "load_embeddings",
    "undersample", "make_split", "subsample_fraction",
    "PcaModel", "fit_pca", "transform",
    "OptimizerConfig", "SupervisedSplit", "TrainingResult", "batch_schedule",
    "init_mlp_params", "mlp_forward", "mlp_predict", "mlp_gradient", "train_mlp",
    "amplitude_embed", "run_ansatz", "z_expectations", "parameter_shift_gradient",
    "QuantumModelParams", "init_quantum_params", "q_forward", "q_predict",
    "q_gradient", "train_quantum",
    "Clustering", "butina_cluster", "cluster_training_plan",
    "ExperimentConfig", "TrialResult", "CellSummary", "ExperimentReport",
    "run_protocol", "run_fraction_sweep", "run_cluster_protocol",
    "write_report_files", "load_report",
]
