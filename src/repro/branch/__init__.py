"""Branch prediction: TAGE, BTB, RAS, and prediction-window construction."""

from .btb import BranchTargetBuffer, BtbOutcome, BtbRecord, ReturnAddressStack
from .predictor import BranchPredictionUnit, PredictionOutcome
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
    "PredictionOutcome",
    "PredictionWindow",
    "PredictionWindowBuilder",
    "PwTermination",
    "ReturnAddressStack",
    "TagePredictor",
]
