"""Evaluation harness: metrics, cross-validation, experiment drivers."""

from repro.eval.metrics import evaluate_parser
from repro.eval.crossval import LearningCurvePoint, kfold, learning_curve

__all__ = [
    "LearningCurvePoint",
    "evaluate_parser",
    "kfold",
    "learning_curve",
]
