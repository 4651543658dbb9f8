"""Uncertainty-aware answer semantics over imprecise duplicates.

Turns the R-best segmentation enumerator into a possible-worlds model
and answers Top-K queries with per-entity count intervals and
membership probabilities instead of a single ranked list.
"""

from ..core.topk import world_model
from ..scoring.gibbs import default_temperature
from .intervals import EntityAggregate, aggregate_worlds
from .query import (
    EntityInterval,
    IntervalQueryResult,
    interval_from_pruning,
    interval_over_groups,
    membership_probabilities,
    topk_interval_query,
)
from .worlds import (
    World,
    enumerate_worlds,
    world_from_partition,
    world_from_segmentation,
    world_masses,
)

__all__ = [
    "EntityAggregate",
    "EntityInterval",
    "IntervalQueryResult",
    "World",
    "aggregate_worlds",
    "default_temperature",
    "enumerate_worlds",
    "interval_from_pruning",
    "interval_over_groups",
    "membership_probabilities",
    "topk_interval_query",
    "world_from_partition",
    "world_from_segmentation",
    "world_masses",
    "world_model",
]
