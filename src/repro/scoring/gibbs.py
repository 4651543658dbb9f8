"""Score-to-probability normalization.

Section 5: "These scores can be converted to probabilities through
appropriate normalization, for example by constructing a Gibbs
distribution from the scores."  Given the scores of the R returned
answers, the Gibbs weights ``exp(score / temperature)`` normalized over
the answer set give the relative probability of each answer.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def gibbs_probabilities(
    scores: Sequence[float], temperature: float = 1.0
) -> list[float]:
    """Return the Gibbs distribution over *scores*.

    Computed with the log-sum-exp shift for numerical stability;
    *temperature* > 1 flattens the distribution, < 1 sharpens it.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    if len(scores) == 0:
        return []
    z = np.asarray(scores, dtype=float) / temperature
    z -= z.max()
    weights = np.exp(z)
    return list(weights / weights.sum())


def default_temperature(scores: Sequence[float]) -> float:
    """Gibbs temperature for a set of answer (or world) scores: a
    quarter of their spread, floored at 1 — the probabilities stay
    informative however large aggregate scaling makes the raw scores."""
    if not scores:
        return 1.0
    spread = max(scores) - min(scores)
    return max(spread / 4.0, 1.0)


def log_odds_to_probability(score: float) -> float:
    """Map a signed log-odds pair score to P(duplicate)."""
    if score >= 0:
        return 1.0 / (1.0 + float(np.exp(-score)))
    e = float(np.exp(score))
    return e / (1.0 + e)
