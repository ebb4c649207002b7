"""Survival regression on irregularly sampled time series via cumulative stay-time features."""

from .errors import (
    ConfigurationError,
    ContractError,
    DivergenceError,
    OutOfRangeError,
    StayTimeError,
    UndefinedResultError,
    ValidationError,
    WorkerError,
)
from .sequences import ObservationSequence, SurvivalDataset, SurvivalLabel, as_dataset
from .states import (
    DiscreteStateFunction,
    KernelBasisSet,
    KernelStateFunction,
    NeuralStateFunction,
    SegmentGrid,
    StateFunction,
    build_grid,
    sample_bases,
)
from .representation import (
    DecayParameter,
    compute_ctr,
    compute_ctr_batch,
    decay_exponents,
    stay_times,
)
from .nn import AdamState, Mlp, adam_step, grad_check, softmax
from .training import (
    Standardizer,
    TrainConfig,
    TrainedModel,
    combined_loss,
    squared_loss,
    static_features,
    train_model,
)
from .evaluation import (
    FoldReport,
    PeriodBucketReport,
    c_index,
    cross_validate,
    kfold_cv,
    period_stratified_improvement,
)
from .synthgen import SynthConfig, SynthDataset, generate, reference_grids
from .training import gradient_check_model
from .data_io import read_dataset, read_history, read_truth, write_dataset, write_history, write_truth
from .checkpoint import load_checkpoint, save_checkpoint
from .estimators import CtrFeaturizer, StayTimeRegressor

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "ConfigurationError",
    "ContractError",
    "CtrFeaturizer",
    "DecayParameter",
    "DiscreteStateFunction",
    "DivergenceError",
    "FoldReport",
    "KernelBasisSet",
    "KernelStateFunction",
    "Mlp",
    "NeuralStateFunction",
    "ObservationSequence",
    "OutOfRangeError",
    "PeriodBucketReport",
    "SegmentGrid",
    "Standardizer",
    "StateFunction",
    "StayTimeError",
    "StayTimeRegressor",
    "SurvivalDataset",
    "SurvivalLabel",
    "SynthConfig",
    "SynthDataset",
    "TrainConfig",
    "TrainedModel",
    "UndefinedResultError",
    "ValidationError",
    "WorkerError",
    "adam_step",
    "as_dataset",
    "build_grid",
    "c_index",
    "combined_loss",
    "compute_ctr",
    "compute_ctr_batch",
    "cross_validate",
    "decay_exponents",
    "generate",
    "grad_check",
    "gradient_check_model",
    "kfold_cv",
    "load_checkpoint",
    "period_stratified_improvement",
    "read_dataset",
    "read_history",
    "read_truth",
    "reference_grids",
    "sample_bases",
    "save_checkpoint",
    "softmax",
    "squared_loss",
    "static_features",
    "stay_times",
    "train_model",
    "write_dataset",
    "write_history",
    "write_truth",
]
