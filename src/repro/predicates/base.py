"""Predicate framework: necessary and sufficient predicates over record pairs.

Section 4 of the paper builds everything on two kinds of cheap binary
predicates:

* a **necessary** predicate N: ``N(t1, t2) = false  =>  not duplicate``
  (every duplicate pair satisfies N — the classic canopy/blocking role);
* a **sufficient** predicate S: ``S(t1, t2) = true  =>  duplicate``
  (a stringent condition that only fires on sure duplicates).

Both roles share one mechanical interface, :class:`Predicate`.  Besides
pairwise evaluation, every predicate exposes *blocking keys* with the
contract::

    evaluate(a, b) is True  =>  blocking_keys(a) & blocking_keys(b) != {}

which is what lets the collapse and prune stages run off inverted indexes
instead of enumerating O(n^2) pairs.  Predicates whose keys fully encode
the condition set ``key_implies_match`` and skip pairwise verification
entirely inside a block.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Hashable, Iterable

from ..core.records import Record


class Predicate(ABC):
    """A binary predicate on record pairs with inverted-index support.

    Attributes:
        name: Human-readable identifier used in reports.
        cost: Relative evaluation cost; pipelines order predicate levels
            by increasing cost (Section 4.4's "series of ... predicates of
            increasing cost").
        key_implies_match: When True, two records sharing any blocking key
            are guaranteed to satisfy the predicate, so blocks can be
            unioned without pairwise verification.
    """

    name: str = "predicate"
    cost: float = 1.0
    key_implies_match: bool = False

    #: Whether ``evaluate(a, b) == evaluate(b, a)``.  The pipeline's
    #: neighbor graphs already treat predicate edges as undirected; the
    #: shared pair-verdict cache additionally relies on this to serve a
    #: verdict computed from either endpoint.  Set False on a direction-
    #: sensitive predicate to opt out of verdict caching.
    symmetric: bool = True

    @abstractmethod
    def evaluate(self, a: Record, b: Record) -> bool:
        """Return the truth value of the predicate on the pair (a, b)."""

    @abstractmethod
    def blocking_keys(self, record: Record) -> Iterable[Hashable]:
        """Yield keys such that matching pairs always share at least one.

        A record yielding *no* keys is asserted to satisfy the predicate
        with no other record.
        """

    def batch_verifier(self, records):
        """Optional vectorized pairwise verifier over *records*.

        A predicate whose decision runs on encoded sets can return a
        :class:`~repro.predicates.batch.SetSimilarityBatch` here; bulk
        evaluators (NeighborIndex, closure) then verify whole candidate
        blocks in NumPy instead of one pair per Python call.  The
        default — returning None — leaves every pair to
        :meth:`evaluate`.  The resilience guard forwards this hook (and
        :meth:`batch_count_rule`) with each block call contained as one
        unit — budget ticks by pair count, deadline and scaled timeout
        per block, role-safe fallback for a raising block — so
        policy-armed runs stay vectorized.  Chaos wrappers do not
        forward it: their per-pair fault draws need the scalar path.
        """
        return None

    def batch_count_rule(self, records):
        """Optional count-filtering rule over *records*.

        A predicate that holds iff the pair's shared-blocking-key count
        passes a threshold (plus a cheap residual check) can return an
        :class:`~repro.predicates.batch.OverlapCountRule` here: it
        decides a whole candidate block from the counts the engine's
        postings walk already produced, with no set intersections, and
        wins over :meth:`batch_verifier` when both are offered.  None —
        the default — means no count rule.
        """
        return None

    @property
    def supports_batch(self) -> bool:
        """True when this predicate overrides a batch hook."""
        cls = type(self)
        return (
            cls.batch_verifier is not Predicate.batch_verifier
            or cls.batch_count_rule is not Predicate.batch_count_rule
        )

    def __call__(self, a: Record, b: Record) -> bool:
        return self.evaluate(a, b)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class ConjunctionPredicate(Predicate):
    """AND of several predicates.

    Blocking keys come from the *most selective* conjunct (the one
    declared first); the guarantee holds because a pair satisfying the
    conjunction satisfies every conjunct, in particular the first.
    """

    def __init__(self, predicates: list[Predicate], name: str | None = None):
        if not predicates:
            raise ValueError("ConjunctionPredicate needs at least one conjunct")
        self._predicates = list(predicates)
        self.name = name or " & ".join(p.name for p in self._predicates)
        self.cost = sum(p.cost for p in self._predicates)
        self.key_implies_match = False
        self.symmetric = all(p.symmetric for p in self._predicates)

    def evaluate(self, a: Record, b: Record) -> bool:
        return all(p.evaluate(a, b) for p in self._predicates)

    def blocking_keys(self, record: Record) -> Iterable[Hashable]:
        return self._predicates[0].blocking_keys(record)


class FunctionPredicate(Predicate):
    """Adapt a plain pair function + key function into a Predicate.

    Handy in tests and for user-supplied criteria that already have a
    blocking scheme.
    """

    def __init__(
        self,
        evaluate_fn,
        keys_fn,
        name: str = "function-predicate",
        cost: float = 1.0,
        key_implies_match: bool = False,
        symmetric: bool = True,
    ):
        self._evaluate_fn = evaluate_fn
        self._keys_fn = keys_fn
        self.name = name
        self.cost = cost
        self.key_implies_match = key_implies_match
        self.symmetric = symmetric

    def evaluate(self, a: Record, b: Record) -> bool:
        return bool(self._evaluate_fn(a, b))

    def blocking_keys(self, record: Record) -> Iterable[Hashable]:
        return self._keys_fn(record)


class PredicateLevel:
    """One (sufficient, necessary) predicate pair of Algorithm 2.

    ``PrunedDedup`` takes a list of these, ordered cheapest/loosest first.
    """

    def __init__(self, sufficient: Predicate, necessary: Predicate, name: str = ""):
        self.sufficient = sufficient
        self.necessary = necessary
        self.name = name or f"S[{sufficient.name}] / N[{necessary.name}]"

    def __repr__(self) -> str:
        return f"<PredicateLevel {self.name!r}>"
