"""Test-support utilities shipped with the library.

:mod:`repro.testing.faultplane` is the fault plane: one seeded
:class:`FaultPlane` injects both fault families the engine must
survive — storage faults at every ``fire_fault`` site of the storage
layer (WAL appends, fsyncs, checkpoint writes), and predicate faults
through :meth:`FaultPlane.wrap_levels`, which wraps a level list in
fault-injecting :class:`ChaosPredicate` wrappers to exercise the
resilience layer (:mod:`repro.core.resilience`).  One seed drives a
whole-system fault schedule.

:mod:`repro.testing.crashpoints` is the crash-point injection harness
used by the crash-recovery suite and the x9 benchmark to exercise the
durability layer (:mod:`repro.core.persistence`): it truncates the
write-ahead log at every entry boundary (and inside entries), crashes
checkpoint writes mid-rename, and checks recovery restores exactly the
surviving prefix.

:mod:`repro.testing.checkpoints` writes an engine checkpoint in the
inline-JSON layout that predates the array sidecar, so the restore path
for such state directories stays tested, or in either layout by name.
"""

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
from .faultplane import ChaosError, ChaosPredicate, FaultPlane

__all__ = [
    "ChaosError",
    "ChaosPredicate",
    "CheckpointCrashPoint",
    "CheckpointCrashResult",
    "CrashPoint",
    "CrashPointResult",
    "FaultPlane",
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
