"""Branch prediction: TAGE, BTB, RAS, and prediction-window construction."""

from .btb import BranchTargetBuffer, BtbOutcome, BtbRecord, ReturnAddressStack
from .predictor import (NOT_A_BRANCH, BranchPredictionUnit,
                        PredictionOutcome, outcome_column)
from .tage import TagePredictor
from .window import (
    PredictionWindow,
    PredictionWindowBuilder,
    PwTermination,
)

__all__ = [
    "BranchPredictionUnit",
    "BranchTargetBuffer",
    "BtbOutcome",
    "BtbRecord",
    "NOT_A_BRANCH",
    "PredictionOutcome",
    "PredictionWindow",
    "PredictionWindowBuilder",
    "PwTermination",
    "ReturnAddressStack",
    "TagePredictor",
    "outcome_column",
]
