"""Test-support utilities shipped with the library.

:mod:`repro.testing.chaos` is the seeded fault-injection harness used by
the chaos test suite and the x8 benchmark to exercise the resilience
layer (:mod:`repro.core.resilience`) under deterministic failures.

:mod:`repro.testing.crashpoints` is the crash-point injection harness
used by the crash-recovery suite and the x9 benchmark to exercise the
durability layer (:mod:`repro.core.persistence`): it truncates the
write-ahead log at every entry boundary (and inside entries), crashes
checkpoint writes mid-rename, and checks recovery restores exactly the
surviving prefix.

:mod:`repro.testing.checkpoints` writes an engine checkpoint in the
inline-JSON layout that predates the array sidecar, so the restore path
for such state directories stays tested, or in either layout by name.

:mod:`repro.testing.faultplane` is the unified fault plane: one seeded
:class:`FaultPlane` hooks every ``fire_fault`` site of the storage layer
(WAL appends, fsyncs, checkpoint writes) and bridges to the older chaos
plans, so a single seed drives a whole-system fault schedule.
"""

from .chaos import (
    ChaosError,
    ChaosPredicate,
    ChaosScorer,
    FaultPlan,
    chaos_levels,
)
from .checkpoints import checkpoint_as, write_json_checkpoint
from .crashpoints import (
    CheckpointCrashPoint,
    CheckpointCrashResult,
    CrashPoint,
    CrashPointResult,
    enumerate_crash_points,
    reference_fingerprints,
    run_checkpoint_crash_sweep,
    run_crash_sweep,
    simulate_checkpoint_crash,
    simulate_crash,
    stream_fingerprint,
    write_stream,
)
from .faultplane import FaultPlane

__all__ = [
    "ChaosError",
    "ChaosPredicate",
    "ChaosScorer",
    "CheckpointCrashPoint",
    "CheckpointCrashResult",
    "CrashPoint",
    "CrashPointResult",
    "FaultPlan",
    "FaultPlane",
    "chaos_levels",
    "checkpoint_as",
    "enumerate_crash_points",
    "reference_fingerprints",
    "run_checkpoint_crash_sweep",
    "run_crash_sweep",
    "simulate_checkpoint_crash",
    "simulate_crash",
    "stream_fingerprint",
    "write_json_checkpoint",
    "write_stream",
]
