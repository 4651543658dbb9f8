"""Pairwise scoring: classifier, scorer wrappers, Gibbs normalization."""

from .classifier import LogisticRegression
from .gibbs import default_temperature, gibbs_probabilities, log_odds_to_probability
from .pairwise import (
    CachedScorer,
    PairwiseScorer,
    TrainedScorer,
    WeightedScorer,
    train_scorer,
)

__all__ = [
    "CachedScorer",
    "LogisticRegression",
    "PairwiseScorer",
    "TrainedScorer",
    "WeightedScorer",
    "default_temperature",
    "gibbs_probabilities",
    "log_odds_to_probability",
    "train_scorer",
]
