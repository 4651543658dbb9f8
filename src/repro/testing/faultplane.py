"""The unified fault plane: seeded infrastructure faults for every layer.

PRs 2 and 3 each grew their own injection harness — predicate chaos
(:mod:`repro.testing.chaos`) sabotages *user code*, crash points
(:mod:`repro.testing.crashpoints`) truncate the *on-disk log* — but the
faults a deployment actually throws at the engine live between those
two: the WAL write that returns ``EIO``, the disk that fills mid-
stream, the fsync that fails, the checkpoint write that breaks off.
:class:`FaultPlane` injects exactly those, through the
:func:`repro.core.retry.fire_fault` hook the hardened production paths
call at each fault site.

Determinism follows the chaos harness discipline: every potential
fault is an independent :func:`hashlib.blake2b` draw of
``(seed, site, sorted ids)``, so a pinned seed reproduces the same
fault schedule forever, regardless of evaluation order.  The ids
include the **attempt number**, so a transient fault injected on
attempt 0 deterministically clears (or not) on the retry — unless the
plane is built with ``persistent=True``, in which case the draw
ignores the attempt and the fault site fails every time it is asked.

The plane also *subsumes* the older harnesses as entry points:
:meth:`FaultPlane.chaos_plan` derives a predicate-level
:class:`~repro.testing.chaos.FaultPlan` from the same seed and
:meth:`FaultPlane.wrap_levels` applies it, so one seed can drive
user-code faults and storage faults in a single run.
"""

from __future__ import annotations

import errno
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..core.retry import (
    BREAKERS,
    SITE_CHECKPOINT_WRITE,
    SITE_WAL_APPEND,
    SITE_WAL_FSYNC,
    install_fault_hook,
)
from .chaos import FaultPlan, chaos_levels

#: Denominator turning a 64-bit hash prefix into a uniform draw in [0, 1).
_DRAW_SPACE = float(2**64)


@dataclass
class FaultPlane:
    """Deterministic infrastructure-fault schedule for one run.

    Rates are probabilities in ``[0, 1]`` drawn independently per
    (site, ids) — see the module docstring for the determinism and
    retry semantics.

    Attributes:
        seed: Root of every fault draw; change it to reshuffle faults.
        wal_append_rate: Fraction of WAL entry writes that fail with a
            transient ``EIO`` (the retry layer's bread and butter).
        wal_enospc_rate: Fraction of WAL entry writes that fail with
            ``ENOSPC`` — *not* retryable; the store suspends journaling
            and flags ``durability_degraded`` instead of crashing.
        wal_fsync_rate: Fraction of per-append fsyncs that fail with
            ``EIO``.
        checkpoint_rate: Fraction of checkpoint writes that fail with
            ``EIO`` mid-write (the tmp file may be left behind; the
            prior checkpoint must survive untouched).  A checkpoint's
            array sidecar and its checkpoint file draw separately.
        persistent: Ignore the attempt number in fault draws, so a
            faulted site keeps failing across retries — the
            "infrastructure is actually down" scenario that must end in
            a degraded answer, not a wrong one.
    """

    seed: int = 0
    wal_append_rate: float = 0.0
    wal_enospc_rate: float = 0.0
    wal_fsync_rate: float = 0.0
    checkpoint_rate: float = 0.0
    persistent: bool = False
    injected: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    _RATES = {
        SITE_WAL_APPEND: "wal_append_rate",
        SITE_WAL_FSYNC: "wal_fsync_rate",
        SITE_CHECKPOINT_WRITE: "checkpoint_rate",
    }

    def __post_init__(self) -> None:
        for rate_name in self._RATES.values():
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_name} must be in [0, 1], got {rate}")
        if not 0.0 <= self.wal_enospc_rate <= 1.0:
            raise ValueError(
                f"wal_enospc_rate must be in [0, 1], got {self.wal_enospc_rate}"
            )
        self._metrics = None

    # -- draws --------------------------------------------------------

    def draw(self, salt: str, ids: dict) -> float:
        """Uniform [0, 1) draw, a pure function of (seed, salt, ids)."""
        if self.persistent:
            ids = {k: v for k, v in ids.items() if k != "attempt"}
        ids_key = ",".join(f"{k}={ids[k]}" for k in sorted(ids))
        digest = hashlib.blake2b(
            f"{self.seed}|{salt}|{ids_key}".encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "big") / _DRAW_SPACE

    # -- the hook -----------------------------------------------------

    def hook(self, site: str, ids: dict) -> None:
        """Fault-hook body: maybe inject at *site* (see fire_fault)."""
        if site == SITE_WAL_APPEND:
            # ENOSPC and EIO are independent draws; ENOSPC wins ties
            # because it is the fault retries cannot paper over.
            if (
                self.wal_enospc_rate
                and self.draw("wal.enospc", ids) < self.wal_enospc_rate
            ):
                self._record(site, ids, kind="enospc")
                raise OSError(errno.ENOSPC, "injected: no space left on device")
            if (
                self.wal_append_rate
                and self.draw(site, ids) < self.wal_append_rate
            ):
                self._record(site, ids, kind="eio")
                raise OSError(errno.EIO, "injected: WAL write I/O error")
            return
        rate_name = self._RATES.get(site)
        rate = getattr(self, rate_name) if rate_name else 0.0
        if not rate or self.draw(site, ids) >= rate:
            return
        self._record(site, ids, kind="eio")
        if site == SITE_WAL_FSYNC:
            raise OSError(errno.EIO, "injected: fsync I/O error")
        if site == SITE_CHECKPOINT_WRITE:
            raise OSError(errno.EIO, "injected: checkpoint write I/O error")

    def _record(self, site: str, ids: dict, kind: str) -> None:
        self.injected[site] = self.injected.get(site, 0) + 1
        metrics = self._metrics
        if metrics is not None and metrics.enabled:
            metrics.counter(
                "repro_faults_injected_total", site=site, kind=kind
            ).inc()

    @property
    def total_injected(self) -> int:
        """Injection count across all sites."""
        return sum(self.injected.values())

    # -- lifecycle ----------------------------------------------------

    @contextmanager
    def active(self, metrics=None):
        """Install this plane as the process fault hook for the block.

        Restores the previous hook on exit and resets the process-wide
        circuit breakers (:data:`repro.core.retry.BREAKERS`) both ways,
        so one armed test cannot leak tripped breakers into the next.
        Optionally attaches a metrics registry so injections surface as
        ``repro_faults_injected_total{site,kind}``.
        """
        self._metrics = metrics
        BREAKERS.reset()
        previous = install_fault_hook(self.hook)
        try:
            yield self
        finally:
            install_fault_hook(previous)
            BREAKERS.reset()
            self._metrics = None

    # -- bridges to the older harnesses -------------------------------

    def chaos_plan(self, **rates) -> FaultPlan:
        """A predicate-level :class:`~repro.testing.chaos.FaultPlan`
        rooted at this plane's seed (``error_rate=``, ``stall_rate=``,
        ... keywords pass through)."""
        return FaultPlan(seed=self.seed, **rates)

    def wrap_levels(self, levels, roles: str = "both", **rates):
        """Sabotage *levels* with a same-seed chaos plan — the PR 2
        harness entry point, driven from the unified plane."""
        return chaos_levels(levels, self.chaos_plan(**rates), roles=roles)
