"""Core pipeline: records, PrunedDedup stages, and query engines."""

from .collapse import collapse, collapse_records
from .health import (
    HealthCheck,
    HealthMonitor,
    HealthSnapshot,
)
from .incremental import DeadLetter, EngineSnapshot, IncrementalTopK
from .persistence import (
    CheckpointError,
    CheckpointWriteError,
    DurabilityPolicy,
    DurableStateStore,
    PersistenceError,
    RecoveryInfo,
    StateAuditError,
    WalCorruptionError,
    has_state,
)
from .retry import (
    BREAKERS,
    BreakerOpen,
    BreakerRegistry,
    CircuitBreaker,
    RetryExhausted,
    RetryPolicy,
    fire_fault,
    install_fault_hook,
)
from .lower_bound import (
    LowerBoundEstimate,
    estimate_lower_bound,
    estimate_lower_bound_naive,
)
from .prune import PruneResult, prune
from .pruned_dedup import (
    LevelStats,
    PrunedDedupResult,
    pruned_dedup,
    run_level_pipeline,
)
from .rank_query import (
    RankQueryResult,
    RankedGroup,
    thresholded_rank_query,
    topk_rank_query,
)
from .records import (
    Group,
    GroupSet,
    Record,
    RecordStore,
    group_fingerprint,
    merge_groups,
)
from .resilience import (
    ExecutionPolicy,
    ExecutionState,
    GuardedPredicate,
    GuardedScorer,
    ResilienceExhausted,
    StageRecord,
    StageRunner,
    guard_levels,
)
from .verification import PipelineCounters, VerificationContext
from .topk import (
    EntityGroup,
    RankedAnswer,
    TopKQueryResult,
    group_score_matrix,
    topk_count_query,
)

__all__ = [
    "BREAKERS",
    "BreakerOpen",
    "BreakerRegistry",
    "CheckpointError",
    "CheckpointWriteError",
    "CircuitBreaker",
    "DeadLetter",
    "DurabilityPolicy",
    "DurableStateStore",
    "EngineSnapshot",
    "EntityGroup",
    "HealthCheck",
    "HealthMonitor",
    "HealthSnapshot",
    "ExecutionPolicy",
    "ExecutionState",
    "GuardedPredicate",
    "GuardedScorer",
    "IncrementalTopK",
    "Group",
    "GroupSet",
    "LevelStats",
    "LowerBoundEstimate",
    "PersistenceError",
    "PipelineCounters",
    "PruneResult",
    "PrunedDedupResult",
    "RankQueryResult",
    "RecoveryInfo",
    "RankedAnswer",
    "RankedGroup",
    "Record",
    "RecordStore",
    "ResilienceExhausted",
    "RetryExhausted",
    "RetryPolicy",
    "StageRecord",
    "StageRunner",
    "StateAuditError",
    "TopKQueryResult",
    "VerificationContext",
    "WalCorruptionError",
    "collapse",
    "collapse_records",
    "estimate_lower_bound",
    "estimate_lower_bound_naive",
    "fire_fault",
    "group_fingerprint",
    "group_score_matrix",
    "guard_levels",
    "has_state",
    "install_fault_hook",
    "merge_groups",
    "prune",
    "pruned_dedup",
    "run_level_pipeline",
    "thresholded_rank_query",
    "topk_count_query",
    "topk_rank_query",
]
