"""Native classifier suite for the "retrieval needed" prediction task."""

from .base import DegenerateData, EmptyGrid, InvalidHyperparameter, TabularDataset
from .boosting import GradientBoostingModel, logistic_loss
from .forest import RandomForestModel
from .grids import (
    FAMILY_CLASSES,
    FAMILY_ORDER,
    canonical_key,
    expand_grid,
    expanded_family_grids,
    load_grids,
    load_raw_grids,
)
from .linear import LogisticRegressionModel
from .mlp import MLPModel, mlp_loss_and_grad
from .neighbors import KNNModel
from .protocol import (
    EvalSplit,
    GateModel,
    GridSearchResult,
    end_to_end_train,
    gate_from_dict,
    gate_to_dict,
    grid_search,
    load_gate,
    save_gate,
    selection_in_accuracy,
    train,
    write_training_files,
)
from .scaler import Scaler, fit_scaler, transform
from .trees import DecisionTreeModel, grow_tree, tree_predict
from .voting import VotingModel

__all__ = [
    "FAMILY_ORDER",
    "FAMILY_CLASSES",
    "DegenerateData",
    "EmptyGrid",
    "InvalidHyperparameter",
    "TabularDataset",
    "Scaler",
    "fit_scaler",
    "transform",
    "LogisticRegressionModel",
    "KNNModel",
    "MLPModel",
    "mlp_loss_and_grad",
    "DecisionTreeModel",
    "GradientBoostingModel",
    "RandomForestModel",
    "logistic_loss",
    "grow_tree",
    "tree_predict",
    "VotingModel",
    "canonical_key",
    "expand_grid",
    "expanded_family_grids",
    "load_grids",
    "load_raw_grids",
    "EvalSplit",
    "GateModel",
    "GridSearchResult",
    "train",
    "grid_search",
    "end_to_end_train",
    "selection_in_accuracy",
    "gate_to_dict",
    "gate_from_dict",
    "save_gate",
    "load_gate",
    "write_training_files",
]
