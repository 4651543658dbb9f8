"""The fault plane: one seeded fault schedule for storage and predicates.

:class:`FaultPlane` injects both fault families the engine must survive
from one seed:

* **Storage faults** — the WAL write that returns ``EIO``, the disk
  that fills mid-stream, the fsync that fails, the checkpoint write
  that breaks off — through the :func:`repro.core.retry.fire_fault`
  hook the hardened production paths call at each fault site
  (:meth:`FaultPlane.active`).
* **Predicate faults** — user code that raises or stalls — through
  :meth:`FaultPlane.wrap_levels`, which wraps a level list's predicates
  in :class:`ChaosPredicate`.  The resilience layer
  (:mod:`repro.core.resilience`) must contain them role-safely: a
  failing sufficient predicate reads False, a failing necessary one
  True, so a fault can merge less but never prune the true answer.

Every potential fault is an independent
:func:`~repro.core.retry.seeded_draw` of ``(seed, salt, key)``, so a
pinned seed reproduces the same fault schedule forever, regardless of
evaluation order, caching, or how many times a site is asked:

* a storage draw keys on the site's sorted ``k=v`` ids, which include
  the **attempt number**, so a transient fault injected on attempt 0
  deterministically clears (or not) on the retry — unless the plane is
  built with ``persistent=True``, in which case the draw ignores the
  attempt and the fault site fails every time it is asked;
* a predicate draw keys on the sorted record ids, salted by role and
  level, so the same pair faults identically whichever way round it is
  evaluated, and can fault under the sufficient predicate but not the
  necessary one.
"""

from __future__ import annotations

import errno
import time
from collections.abc import Hashable, Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..core.records import Record
from ..core.retry import (
    BREAKERS,
    SITE_CHECKPOINT_WRITE,
    SITE_WAL_APPEND,
    SITE_WAL_FSYNC,
    install_fault_hook,
    seeded_draw,
)
from ..predicates.base import Predicate, PredicateLevel


def _check_rates(**rates: float) -> None:
    """Refuse any fault rate outside ``[0, 1]``, naming it."""
    for name, rate in rates.items():
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {rate}")


class ChaosError(RuntimeError):
    """The exception a :class:`ChaosPredicate` injects."""


class ChaosPredicate(Predicate):
    """Wrap *inner* and inject predicate faults drawn from *plane*.

    Built by :meth:`FaultPlane.wrap_levels`, which validates the rates.
    The *salt* (``S{i}`` / ``N{i}`` there, *inner*'s name by default)
    keeps the schedules of different wrappers independent.
    """

    #: Chaos verdicts are schedule artifacts — keep them out of the
    #: shared pair-verdict cache.
    symmetric = False

    def __init__(
        self,
        inner: Predicate,
        plane: FaultPlane,
        salt: str = "",
        *,
        error_rate: float,
        keying_error_rate: float,
        stall_pair: tuple[int, int] | None,
        stall_seconds: float,
    ):
        self._inner = inner
        self.plane = plane
        self.salt = salt or inner.name
        self.name = f"chaos[{inner.name}]"
        self.cost = inner.cost
        # Force every in-block pair through evaluate() so faults fire.
        self.key_implies_match = False
        self.error_rate = error_rate
        self.keying_error_rate = keying_error_rate
        self.stall_pair = stall_pair
        self.stall_seconds = stall_seconds

    @property
    def inner(self) -> Predicate:
        """The wrapped well-behaved predicate."""
        return self._inner

    def is_stall_pair(self, a: int, b: int) -> bool:
        """Whether (a, b), in either order, is the always-stalling pair."""
        return self.stall_pair is not None and {a, b} == set(self.stall_pair)

    def evaluate(self, a: Record, b: Record) -> bool:
        i, j = a.record_id, b.record_id
        if self.is_stall_pair(i, j):
            time.sleep(self.stall_seconds)
        if (
            self.error_rate
            and self.plane.record_draw(f"{self.salt}:raise", i, j)
            < self.error_rate
        ):
            raise ChaosError(f"{self.name} injected failure on pair ({i}, {j})")
        return self._inner.evaluate(a, b)

    def blocking_keys(self, record: Record) -> Iterable[Hashable]:
        # The draw covers the fields as well as the id: a stream gives a
        # quarantined insert's id to the next record, which must draw
        # afresh rather than inherit the poison.
        if (
            self.keying_error_rate
            and self.plane.record_draw(
                f"{self.salt}:keying:{sorted(record.fields.items())!r}",
                record.record_id,
            )
            < self.keying_error_rate
        ):
            raise ChaosError(
                f"{self.name} injected keying failure on record {record.record_id}"
            )
        return self._inner.blocking_keys(record)


@dataclass
class FaultPlane:
    """Deterministic fault schedule for one run.

    Rates are probabilities in ``[0, 1]`` drawn independently per
    (site, ids) — see the module docstring for the determinism and
    retry semantics.  Predicate fault rates are not fields: they are
    given to :meth:`wrap_levels`, the one way to inject them.

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
        _check_rates(
            **{
                name: getattr(self, name)
                for name in (*self._RATES.values(), "wal_enospc_rate")
            }
        )
        self._metrics = None

    # -- draws --------------------------------------------------------

    def draw(self, salt: str, ids: dict) -> float:
        """Uniform [0, 1) storage-site draw, a pure function of
        (seed, salt, ids)."""
        if self.persistent:
            ids = {k: v for k, v in ids.items() if k != "attempt"}
        return seeded_draw(
            self.seed, salt, ",".join(f"{k}={ids[k]}" for k in sorted(ids))
        )

    def record_draw(self, salt: str, *record_ids: int) -> float:
        """Uniform [0, 1) predicate draw, a pure function of
        (seed, salt, record ids) whatever their order."""
        return seeded_draw(
            self.seed, salt, ",".join(str(i) for i in sorted(record_ids))
        )

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

    # -- predicate faults ---------------------------------------------

    def wrap_levels(
        self,
        levels: list[PredicateLevel],
        roles: str = "both",
        *,
        error_rate: float = 0.0,
        keying_error_rate: float = 0.0,
        stall_pair: tuple[int, int] | None = None,
        stall_seconds: float = 0.05,
    ) -> list[PredicateLevel]:
        """Wrap every level's predicates in :class:`ChaosPredicate`.

        Args:
            levels: The well-behaved levels to sabotage.
            roles: Which role to inject into: ``"sufficient"``,
                ``"necessary"``, or ``"both"``.
            error_rate: Fraction of ``evaluate`` calls that raise
                :class:`ChaosError`, drawn per record pair.
            keying_error_rate: Fraction of ``blocking_keys`` calls that
                raise, drawn per record.
            stall_pair: Optional ``(record_id, record_id)`` pair whose
                evaluation always sleeps *stall_seconds* — the "one
                pathological slow pair" scenario.
            stall_seconds: Sleep duration for the stall pair.

        Each wrapper is salted with its role and level index (``S0``,
        ``N0``, ``S1``, ...), so faults are independent across roles
        and levels.
        """
        _check_rates(error_rate=error_rate, keying_error_rate=keying_error_rate)
        if stall_seconds < 0:
            raise ValueError("stall_seconds must be >= 0")
        if roles not in ("sufficient", "necessary", "both"):
            raise ValueError(
                f"roles must be 'sufficient', 'necessary' or 'both', got {roles!r}"
            )
        faults = dict(
            error_rate=error_rate,
            keying_error_rate=keying_error_rate,
            stall_pair=stall_pair,
            stall_seconds=stall_seconds,
        )
        wrapped = []
        for index, level in enumerate(levels):
            sufficient = level.sufficient
            necessary = level.necessary
            if roles in ("sufficient", "both"):
                sufficient = ChaosPredicate(sufficient, self, f"S{index}", **faults)
            if roles in ("necessary", "both"):
                necessary = ChaosPredicate(necessary, self, f"N{index}", **faults)
            wrapped.append(
                PredicateLevel(
                    sufficient=sufficient, necessary=necessary, name=level.name
                )
            )
        return wrapped
