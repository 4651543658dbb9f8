"""Resilient execution: fault containment, deadlines, anytime degradation.

The paper's guarantees (Sections 4-5) hold only when the user-supplied
sufficient/necessary predicates and the final scorer honour their roles
and terminate.  Over open-ended, constantly evolving sources — the
system's stated regime — predicates are hand-tuned and inputs hostile,
so a single raising predicate or pathological slow pair must not crash
or corrupt a whole query.  This module contains such failures:

* :class:`ExecutionPolicy` declares the resilience contract of one query
  run: a wall-clock deadline, a per-stage evaluation budget, a per-call
  timeout for user code, and what to do on user-code exceptions
  (``raise`` or ``degrade``).
* :class:`GuardedPredicate` / :class:`GuardedScorer` wrap user code and
  substitute *role-safe* fallback verdicts on failure: a failing
  **sufficient** predicate answers False (never over-merge), a failing
  **necessary** predicate answers True (never over-prune), a failing
  scorer answers the neutral score 0.0.  Every containment is counted
  in the run's :class:`~repro.core.verification.PipelineCounters`.
* :class:`StageRunner` gives the query pipelines one place to execute a
  stage under the policy; on deadline/budget exhaustion the stage is
  abandoned, the pipeline keeps its last consistent state, and the
  result is returned flagged ``degraded`` with a per-stage
  :class:`StageRecord` trail instead of hanging or raising.

Vectorized verification keeps the same contract at a coarser grain:
the guard forwards the inner predicate's batch count rule and verifier
wrapped so each *candidate block* is one guarded call.  The block ticks
the budget by its pair count (the budget unit stays "pair verdicts"),
the deadline is checked before it, the per-call timeout scales with its
size, and a raising block is replaced wholesale by role-safe fallback
verdicts, each counted.  The batch engine's symmetric sweep, which
decides a chunk of member probes' pairs in one call and shares each
verdict between both ends, runs under a guard too: each chunk's call is
one guarded block, and a chunk that falls back shares nothing — its
probes are decided again one block each, so a fallback verdict only
reaches the list of the probe whose own block fell back.  The scorer is
guarded at its own grain: a scorer that implements only ``score(a, b)``
is contained pair by pair, and a block-native one in guarded calls of
at most ``PAIR_CHUNK`` pairs.

Timeouts are **cooperative**: pure-Python code cannot preempt a call
that never returns.  The per-call timeout marks calls that exceeded the
budget after the fact (their verdict is replaced by the role-safe
fallback), and the deadline is checked before every guarded call or
block, so a *bounded* stall delays the query by at most one stall
before the deadline fires.  A truly infinite loop inside a predicate is
out of scope for in-process containment (run under ``pytest-timeout``
or an external supervisor for that).

With no policy installed, none of this machinery engages and pipeline
results are bit-identical to the unguarded ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as _dc_replace
from typing import TYPE_CHECKING, Callable, TypeVar

import numpy as np

from ..predicates.base import Predicate, PredicateLevel
from ..scoring.pairwise import PairwiseScorer
from ..similarity.vectorize import PAIR_CHUNK

if TYPE_CHECKING:
    from ..core.records import Record
    from .verification import PipelineCounters, VerificationContext

T = TypeVar("T")

#: Reasons a run can degrade (``ResilienceExhausted.reason`` /
#: ``PrunedDedupResult.degraded_reason`` values).
REASON_DEADLINE = "deadline"
REASON_STAGE_BUDGET = "stage_budget"


class ResilienceExhausted(Exception):
    """Internal control-flow signal: the policy's deadline or budget is
    spent and the current stage must be abandoned.

    Never escapes the query pipelines — they catch it and return a
    degraded result.  Carries the machine-readable :attr:`reason`.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class ExecutionPolicy:
    """Resilience contract for one query run.

    Attributes:
        deadline_seconds: Wall-clock budget for the whole query, counted
            from :meth:`start`.  When it expires the pipeline stops
            descending predicate levels and returns the best answer
            derivable from the current collapsed state, flagged
            ``degraded``.  None = no deadline.
        max_stage_evaluations: Cap on guarded pair verdicts and scored
            pairs per pipeline stage (a vectorized candidate block or a
            scored block counts its pairs); exhaustion degrades exactly
            like a deadline.  None = unlimited.
        call_timeout_seconds: Per-call wall budget for user predicates
            and scorers (a vectorized or scored block gets this times
            its pair count).  A call that returns but took longer is
            deemed unreliable and its verdict replaced with the
            role-safe fallback (cooperative — see the module docstring).
            None = no per-call timeout.
        on_error: ``"degrade"`` substitutes role-safe fallbacks for
            exceptions raised by user predicates/scorers (counted in the
            pipeline counters); ``"raise"`` propagates them unchanged.
    """

    deadline_seconds: float | None = None
    max_stage_evaluations: int | None = None
    call_timeout_seconds: float | None = None
    on_error: str = "degrade"

    def __post_init__(self) -> None:
        if self.on_error not in ("raise", "degrade"):
            raise ValueError(
                f"on_error must be 'raise' or 'degrade', got {self.on_error!r}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds < 0:
            raise ValueError("deadline_seconds must be >= 0")
        if self.max_stage_evaluations is not None and self.max_stage_evaluations < 0:
            raise ValueError("max_stage_evaluations must be >= 0")
        if self.call_timeout_seconds is not None and self.call_timeout_seconds < 0:
            raise ValueError("call_timeout_seconds must be >= 0")

    def start(self, counters: "PipelineCounters") -> "ExecutionState":
        """Arm the policy: start the deadline clock now."""
        return ExecutionState(self, counters)

    def with_deadline(self, deadline_seconds: float | None) -> "ExecutionPolicy":
        """This policy with its deadline replaced (a new frozen instance).

        The query service keeps one base policy (error containment,
        stage budgets) and stamps each admitted request's *remaining*
        deadline onto it — the time a request spent queued counts
        against its budget, so an admitted-but-slow query degrades
        instead of overstaying.
        """
        return _dc_replace(self, deadline_seconds=deadline_seconds)


class ExecutionState:
    """Armed, mutable runtime of an :class:`ExecutionPolicy`.

    One state spans one query run (for ``topk_count_query`` it covers
    both the pruning pipeline and the scoring stage, so the deadline is
    global).  Guarded wrappers call :meth:`tick` once per user-code
    call (with the pair count for a vectorized or scored block); stage
    boundaries call :meth:`begin_stage`/:meth:`check`.
    """

    def __init__(self, policy: ExecutionPolicy, counters: "PipelineCounters"):
        self.policy = policy
        self.counters = counters
        self._deadline_at = (
            None
            if policy.deadline_seconds is None
            else time.perf_counter() + policy.deadline_seconds
        )
        self._stage_calls = 0
        self.exhausted_reason: str | None = None

    def begin_stage(self) -> None:
        """Reset the per-stage evaluation budget."""
        self._stage_calls = 0

    def tick(self, count: int = 1) -> None:
        """Account *count* guarded pair verdicts (or scored pairs);
        raise when the policy is exhausted."""
        self._stage_calls += count
        budget = self.policy.max_stage_evaluations
        if budget is not None and self._stage_calls > budget:
            self._exhaust(REASON_STAGE_BUDGET)
        self._check_deadline()

    def check(self) -> None:
        """Raise :class:`ResilienceExhausted` if the policy is spent."""
        if self.exhausted_reason is not None:
            raise ResilienceExhausted(self.exhausted_reason)
        self._check_deadline()

    def _check_deadline(self) -> None:
        if self._deadline_at is not None and time.perf_counter() > self._deadline_at:
            self._exhaust(REASON_DEADLINE)

    def _exhaust(self, reason: str) -> None:
        self.exhausted_reason = reason
        raise ResilienceExhausted(reason)


class GuardedPredicate(Predicate):
    """Role-aware fault-containment wrapper around a user predicate.

    Exceptions from ``evaluate`` are replaced (under ``on_error:
    degrade``) with the role-safe fallback: False for a sufficient
    predicate, True for a necessary one.  Exceptions from
    ``blocking_keys`` yield no keys — safe for the sufficient role (the
    record simply collapses with nobody) but *compromising* for the
    necessary role (missing N-edges could over-prune), so the wrapper
    counts :attr:`keying_failures` and the pipelines stand pruning down
    for any level whose necessary guard reports one.

    The vectorized hooks (:meth:`batch_count_rule`,
    :meth:`batch_verifier`) are forwarded with each candidate-block call
    contained as one unit (:meth:`contain_block`); a failure while
    building the inner rule or verifier, or while encoding a probe,
    yields None so that index or probe falls back to the contained
    :meth:`evaluate`, the one scalar path.

    ``symmetric`` is forced False so fallback verdicts are never written
    into the cross-stage pair-verdict cache or a neighbor index's
    probed-set store (they are policy artifacts, not pure functions of
    the records).  The forwarded blocks state the inner predicate's
    symmetry instead, so over a symmetric inner predicate the batch
    engine still runs its symmetric sweep, each pair decided once within
    one call: each sweep chunk's decision is one guarded block
    (:meth:`attempt_block`), and a chunk that fell back shares none of
    its verdicts — its probes are decided again one block each.
    """

    symmetric = False

    def __init__(self, inner: Predicate, role: str, state: ExecutionState):
        if role not in ("sufficient", "necessary"):
            raise ValueError(f"role must be 'sufficient' or 'necessary', got {role!r}")
        self._inner = inner
        self._state = state
        self.role = role
        self.fallback_verdict = role == "necessary"
        self.name = f"guarded[{inner.name}]"
        self.cost = inner.cost
        self.key_implies_match = inner.key_implies_match
        self.keying_failures = 0

    @property
    def inner(self) -> Predicate:
        """The wrapped user predicate."""
        return self._inner

    def evaluate(self, a: "Record", b: "Record") -> bool:
        state = self._state
        state.tick()
        timeout = state.policy.call_timeout_seconds
        started = time.perf_counter() if timeout is not None else 0.0
        try:
            verdict = bool(self._inner.evaluate(a, b))
        except Exception:
            if state.policy.on_error == "raise":
                raise
            state.counters.predicate_errors_contained += 1
            return self.fallback_verdict
        if timeout is not None and time.perf_counter() - started > timeout:
            state.counters.predicate_timeouts_contained += 1
            return self.fallback_verdict
        return verdict

    def blocking_keys(self, record: "Record"):
        state = self._state
        try:
            return list(self._inner.blocking_keys(record))
        except Exception:
            if state.policy.on_error == "raise":
                raise
            state.counters.keying_errors_contained += 1
            self.keying_failures += 1
            return []

    @property
    def supports_batch(self) -> bool:
        return self._inner.supports_batch

    def batch_count_rule(self, records):
        rule = _build_quietly(self._inner.batch_count_rule, records)
        return None if rule is None else _GuardedBlocks(rule, self)

    def batch_verifier(self, records):
        verifier = _build_quietly(self._inner.batch_verifier, records)
        return None if verifier is None else _GuardedBlocks(verifier, self)

    def contain_block(
        self, n_pairs: int, decide: Callable[[], np.ndarray]
    ) -> np.ndarray:
        """Run one vectorized block decision of *n_pairs* verdicts under
        the policy, exactly as :meth:`evaluate` runs one pair: tick and
        deadline check first, then the role-safe fallback for the whole
        block on an exception or when the block overran the per-call
        timeout scaled by *n_pairs*."""
        verdicts = self.attempt_block(n_pairs, decide)
        if verdicts is None:
            return np.full(n_pairs, self.fallback_verdict)
        return verdicts

    def attempt_block(
        self, n_pairs: int, decide: Callable[[], np.ndarray]
    ) -> np.ndarray | None:
        """:meth:`contain_block` without the substitution: the block's
        verdicts, or None when it fell back (raised, or overran its
        scaled timeout).  A block that fell back counts each of its
        *n_pairs* as contained, whatever the caller does next."""
        state = self._state
        state.tick(n_pairs)
        timeout = state.policy.call_timeout_seconds
        started = time.perf_counter() if timeout is not None else 0.0
        try:
            verdicts = decide()
        except Exception:
            if state.policy.on_error == "raise":
                raise
            state.counters.predicate_errors_contained += n_pairs
            return None
        if (
            timeout is not None
            and time.perf_counter() - started > timeout * n_pairs
        ):
            state.counters.predicate_timeouts_contained += n_pairs
            return None
        return verdicts


def _build_quietly(hook: Callable, *args):
    """Call a rule/verifier/probe encoder; None when it raises (the
    caller then takes the guarded scalar path, which owns the error)."""
    try:
        return hook(*args)
    except Exception:
        return None


class _GuardedBlocks:
    """A batch count rule or pairwise verifier (see
    :mod:`repro.predicates.batch`) whose block decisions each run as one
    guarded call; probe states pass through, and a probe that fails to
    encode yields None (scalar fallback for that probe).

    ``symmetric`` is the inner predicate's, so the engine may sweep; the
    sweep's per-chunk call (the inner rule's ``accepts`` or the inner
    verifier's ``verify_pairs``) goes through :meth:`contain_chunk`.
    """

    def __init__(self, inner, guard: GuardedPredicate):
        self._inner = inner
        self._guard = guard
        self.symmetric = guard.inner.symmetric

    def member_state(self, position: int):
        return self._inner.member_state(position)

    def encode_probe(self, record: "Record"):
        return _build_quietly(self._inner.encode_probe, record)

    def accepts(
        self, shared, n_probe_keys, candidate_key_counts, probe_mask, candidates
    ):
        return self._guard.contain_block(
            len(candidates),
            lambda: self._inner.accepts(
                shared, n_probe_keys, candidate_key_counts, probe_mask, candidates
            ),
        )

    def verify_block(self, probe_state, candidates):
        return self._guard.contain_block(
            len(candidates),
            lambda: self._inner.verify_block(probe_state, candidates),
        )

    def verify_member_block(self, position: int, candidates):
        return self._guard.contain_block(
            len(candidates),
            lambda: self._inner.verify_member_block(position, candidates),
        )

    def contain_chunk(
        self, n_pairs: int, decide: Callable[[object], np.ndarray]
    ) -> np.ndarray | None:
        """One sweep chunk's decision, ``decide(inner)`` over *n_pairs*
        pairs, as one guarded block: its verdicts, or None when it fell
        back.  The engine then discards the chunk and decides its probes
        again one block each, so no fallback verdict is shared."""
        return self._guard.attempt_block(n_pairs, lambda: decide(self._inner))


class GuardedScorer(PairwiseScorer):
    """Fault-containment wrapper around the final pairwise criterion P.

    A guarded call ticks the budget by its pair count and checks the
    deadline first; a raising call, or one that overran the per-call
    timeout scaled by its pair count, scores the neutral *fallback*
    (default 0.0: no attraction, no repulsion) for each of its pairs,
    each counted in ``scorer_errors_contained``.  One bad pair cannot
    crash the scoring stage or skew a segmentation with a garbage
    magnitude.

    A guarded call is one pair when the inner scorer implements only
    ``score(a, b)`` (a raising pair zeroes only its own score, and the
    deadline is checked between pairs), and at most :data:`PAIR_CHUNK`
    pairs of a :meth:`score_pairs` block when the inner scorer is
    block-native, as :meth:`GuardedPredicate.contain_block` does for
    predicates.
    """

    def __init__(
        self,
        inner: PairwiseScorer,
        state: ExecutionState,
        fallback: float = 0.0,
    ):
        self._inner = inner
        self._state = state
        self._fallback = fallback

    def score_pairs(self, records, left, right) -> np.ndarray:
        inner = self._inner
        out = np.empty(len(left), dtype=np.float64)
        if inner.scores_in_blocks:
            for start in range(0, len(left), PAIR_CHUNK):
                rows = slice(start, start + PAIR_CHUNK)
                out[rows] = self._contain(
                    len(out[rows]),
                    lambda: np.asarray(
                        inner.score_pairs(records, left[rows], right[rows]),
                        dtype=np.float64,
                    ),
                )
        else:
            for row, (i, j) in enumerate(zip(left.tolist(), right.tolist())):
                out[row] = self._contain(
                    1, lambda: float(inner.score(records[i], records[j]))
                )
        return out

    def score(self, a: "Record", b: "Record") -> float:
        return self.score_one(a, b)

    def _contain(self, n_pairs: int, compute: Callable[[], object]):
        """Run one guarded call of *n_pairs* scores: the result of
        *compute*, or the fallback on an exception or a timeout."""
        state = self._state
        state.tick(n_pairs)
        timeout = state.policy.call_timeout_seconds
        started = time.perf_counter() if timeout is not None else 0.0
        try:
            scores = compute()
        except Exception:
            if state.policy.on_error == "raise":
                raise
            state.counters.scorer_errors_contained += n_pairs
            return self._fallback
        if (
            timeout is not None
            and time.perf_counter() - started > timeout * n_pairs
        ):
            state.counters.scorer_errors_contained += n_pairs
            return self._fallback
        return scores


@dataclass(frozen=True)
class StageRecord:
    """Completion record of one pipeline stage of one level.

    Attributes:
        level_name: Name of the predicate level (or ``"scoring"`` for
            the final scoring stage of ``topk_count_query``).
        stage: Stage name (``collapse`` / ``lower_bound`` / ``prune`` /
            ``rank_prune`` / ``score``).
        completed: False when the stage was abandoned by the policy.
        reason: Why an incomplete stage stopped (``deadline`` or
            ``stage_budget``); empty for completed stages.
    """

    level_name: str
    stage: str
    completed: bool
    reason: str = ""


class StageRunner:
    """Execute pipeline stages under an (optional) execution policy.

    Wraps each stage in the context's wall-clock timer, resets the
    per-stage budget, and converts :class:`ResilienceExhausted` into an
    :attr:`aborted` flag plus an incomplete :class:`StageRecord` — the
    calling pipeline then finalizes a degraded result from its last
    consistent state.  With no state installed this adds only the
    completion records.
    """

    def __init__(
        self,
        context: "VerificationContext",
        state: ExecutionState | None = None,
    ):
        self._context = context
        self.state = state
        self.records: list[StageRecord] = []
        self.aborted = False
        self.reason = ""

    def run(
        self,
        level_name: str,
        stage: str,
        fn: Callable[[], T],
        transient: bool = False,
    ) -> T | None:
        """Run *fn* as stage *stage* of level *level_name*.

        Returns *fn*'s value, or None when the policy aborted the stage
        (check :attr:`aborted` — a stage may also legitimately return
        None).

        *transient* marks the stage's tracer span as existing only under
        some execution configurations (the thresholded query's keying
        sweep, run only under a policy), excluding it from the
        deterministic trace export; counters and :class:`StageRecord`
        bookkeeping are unaffected.
        """
        context = self._context
        state = self.state
        if state is not None:
            state.begin_stage()
        try:
            with context.span(stage, transient=transient, level=level_name):
                with context.stage(stage):
                    if state is not None:
                        state.check()
                    value = fn()
        except ResilienceExhausted as exc:
            self.aborted = True
            self.reason = exc.reason
            self.records.append(StageRecord(level_name, stage, False, exc.reason))
            context.event(
                "degraded", level=level_name, stage=stage, reason=exc.reason
            )
            metrics = context.metrics
            if metrics.enabled:
                metrics.counter("repro_stages_aborted_total", reason=exc.reason).inc()
            return None
        self.records.append(StageRecord(level_name, stage, True))
        metrics = context.metrics
        if metrics.enabled:
            metrics.counter("repro_stages_completed_total", stage=stage).inc()
        return value


def guard_levels(
    levels: list[PredicateLevel], state: ExecutionState
) -> list[PredicateLevel]:
    """Wrap every level's predicates in role-aware guards."""
    return [
        PredicateLevel(
            sufficient=GuardedPredicate(level.sufficient, "sufficient", state),
            necessary=GuardedPredicate(level.necessary, "necessary", state),
            name=level.name,
        )
        for level in levels
    ]


def run_is_clean(degraded: bool, counters: "PipelineCounters") -> bool:
    """True when a run's answer does not depend on the policy it ran
    under: the run completed and no guard replaced a verdict, a key set
    or a score (*counters* is the run's own work, scorer included).

    A clean answer equals the unguarded one bit for bit, so answer
    caches may keep it and serve it to any later request of the same
    state, policy-armed or not; anything else must be recomputed.
    """
    return not degraded and counters.total_contained == 0


def necessary_compromised(level: PredicateLevel) -> bool:
    """True when the level's necessary predicate is guarded and lost
    blocking keys to containment — its neighbor graph may be missing
    edges, so any pruning based on it could over-prune."""
    necessary = level.necessary
    return (
        isinstance(necessary, GuardedPredicate)
        and necessary.keying_failures > 0
    )
