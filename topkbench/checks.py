"""Output checks, run untimed after each timed loop.

Each check takes plain data — member sets, weights, representative
ids — and returns a list of problems; an empty list is a pass.  The
``*_of`` helpers turn the program's result objects into that data, so
the self-test can hand the checks deliberately broken answers.

Batch answers are held against the exhaustive
:func:`repro.baselines.full_dedup_pipeline` oracle with the invariants
of ``tests/test_differential_oracle.py``; served answers against a
policy-free reference engine.  Membership, sizes, representative ids
and engine weights must match exactly.  ``WEIGHT_REL`` applies only
where an answer's weight meets a sum the check recomputes in another
order (mass conservation, interval ends): the last-ulp drift that
``docs/performance.md`` § Determinism documents.
"""

from __future__ import annotations

from common import ensure_src, rel_close

ensure_src()

from repro.baselines import full_dedup_pipeline  # noqa: E402

WEIGHT_REL = 1e-9
#: Float slack for probabilities and interval ends (sums of masses).
PROB_EPS = 1e-9

Group = tuple  # (frozenset members, weight, representative id)


# -- oracle --------------------------------------------------------------


class Oracle:
    """Exhaustive ground truth for one corpus."""

    def __init__(self, store, levels, scorer=None):
        closure = full_dedup_pipeline(store, 1, levels).groups
        self.closure = {frozenset(g.member_ids): g.weight for g in closure}
        self.closure_home = _homes(self.closure)
        self.cluster_home = None
        if scorer is not None:
            clustered = full_dedup_pipeline(store, 1, levels, scorer).groups
            self.cluster_home = _homes(
                frozenset(g.member_ids) for g in clustered
            )
        self.weight_of_record = [record.weight for record in store]

    def kth_weight(self, k: int) -> float:
        weights = sorted(self.closure.values(), reverse=True)
        return weights[min(k, len(weights)) - 1]

    def top_weights(self, k: int) -> list[float]:
        return sorted(self.closure.values(), reverse=True)[:k]


def _homes(groups) -> dict[int, frozenset]:
    """Record id -> the member set (of *groups*) holding it."""
    return {member: members for members in groups for member in members}


def _splits(members: frozenset, homes: dict) -> bool:
    """True when *members* covers only part of some group of *homes*."""
    return any(
        homes.get(member) is None or not homes[member] <= members
        for member in members
    )


def within_one(members: frozenset, homes: dict) -> bool:
    """True when *members* all sit in one group of *homes*."""
    found = {homes.get(member) for member in members}
    return len(found) == 1 and None not in found


# -- result -> plain data -------------------------------------------------


def groups_of(group_set) -> list[Group]:
    return [
        (frozenset(g.member_ids), g.weight, g.representative_id)
        for g in group_set
    ]


def answers_of(result) -> list[list[Group]]:
    """A TopKQueryResult's answers; entities carry a label, not an id."""
    return [
        [(frozenset(e.record_ids), e.weight, e.label) for e in answer.entities]
        for answer in result.answers
    ]


def ranking_of(result) -> list[tuple[int, float]]:
    return [(entry.representative_id, entry.weight) for entry in result.ranking]


def intervals_of(result) -> list[dict]:
    return [
        {
            "members": frozenset(e.record_ids),
            "count_lo": e.count_lo,
            "count_hi": e.count_hi,
            "expected": e.expected_count,
            "membership": e.membership_probability,
            "slots": tuple(e.slot_probabilities),
        }
        for e in result.entities
    ]


# -- shared invariants ------------------------------------------------------


def check_retention(retained: list[Group], oracle: Oracle, k: int) -> list[str]:
    """Pruning kept every Top-K oracle closure group, whole, and made up
    no group the closure does not contain."""
    problems = []
    by_members = {members: weight for members, weight, _ in retained}
    for members, weight, rep in retained:
        if rep not in members:
            problems.append(f"representative {rep} outside its group")
        if not within_one(members, oracle.closure_home):
            problems.append(
                f"retained group of {len(members)} records straddles "
                f"oracle closure groups"
            )
    bar = oracle.kth_weight(k)
    for members, weight in oracle.closure.items():
        if weight < bar:
            continue
        got = by_members.get(members)
        if got is None:
            problems.append(
                f"pruning lost or split a weight-{weight} oracle group "
                f"(Top-{k} bar {bar})"
            )
        elif got != weight:
            problems.append(f"group weight {got!r} != oracle {weight!r}")
    return problems


def _check_entities(
    entities: list[Group], oracle: Oracle, groups: list[Group], pure: bool
) -> list[str]:
    problems = []
    seen: set[int] = set()
    group_of = _homes(members for members, _, _ in groups)
    for members, weight, _ in entities:
        mass = sum(oracle.weight_of_record[i] for i in members)
        if not rel_close(weight, mass, WEIGHT_REL):
            problems.append(f"entity weight {weight!r} != member mass {mass!r}")
        if members & seen:
            problems.append("answer entities overlap")
        seen |= members
        if _splits(members, group_of):
            problems.append("entity splits a retained group")
        if pure and not within_one(members, oracle.cluster_home):
            problems.append("entity straddles oracle P-clusters")
    weights = [weight for _, weight, _ in entities]
    if weights != sorted(weights, reverse=True):
        problems.append("answer weights not in non-increasing order")
    return problems


# -- per-class checks -----------------------------------------------------------


def check_count(
    answers: list[list[Group]],
    retained: list[Group],
    oracle: Oracle,
    k: int,
    r: int,
) -> list[str]:
    """A Top-K count answer (R >= 1 alternatives)."""
    if not answers:
        return ["count query returned no answers"]
    problems = check_retention(retained, oracle, k)
    if len(answers) > r:
        problems.append(f"{len(answers)} answers for R={r}")
    keys = set()
    for index, answer in enumerate(answers):
        if not answer or len(answer) > k:
            problems.append(f"answer {index} has {len(answer)} entities")
        problems += _check_entities(answer, oracle, retained, pure=index == 0)
        keys.add(tuple(sorted(tuple(sorted(m)) for m, _, _ in answer)))
    if len(keys) != len(answers):
        problems.append("duplicate answers among the R alternatives")
    return problems


def check_rank(
    ranking: list[tuple[int, float]],
    retained: list[Group],
    oracle: Oracle,
    k: int,
) -> list[str]:
    problems = check_retention(retained, oracle, k)
    weights = [weight for _, weight in ranking]
    if weights != sorted(weights, reverse=True):
        problems.append("ranking not in non-increasing weight order")
    expected = oracle.top_weights(k)
    if weights[: len(expected)] != expected:
        problems.append(
            f"top-{k} ranking weights {weights[:k]} != oracle {expected}"
        )
    reps = {rep: members for members, _, rep in retained}
    for rep, _ in ranking:
        if rep not in reps:
            problems.append(f"ranked representative {rep} not retained")
    return problems


def check_threshold(
    retained: list[Group], certain: bool, oracle: Oracle, threshold: float
) -> list[str]:
    problems = []
    by_members = {members: weight for members, weight, _ in retained}
    for members, _, _ in retained:
        if not within_one(members, oracle.closure_home):
            problems.append("retained group straddles oracle closure groups")
    wanted = {m for m, w in oracle.closure.items() if w >= threshold}
    for members in wanted:
        if by_members.get(members) != oracle.closure[members]:
            problems.append(
                f"weight-{oracle.closure[members]} group >= T={threshold} "
                f"not retained whole"
            )
    if certain:
        got = {m for m, w in by_members.items() if w >= threshold}
        if got != wanted:
            problems.append("certain answer set differs from the oracle")
    return problems


def check_interval(
    entities: list[dict],
    retained: list[Group],
    oracle: Oracle,
    k: int,
    r: int,
    worlds: int,
) -> list[str]:
    """The answer contract of ``docs/uncertainty.md``."""
    problems = check_retention(retained, oracle, k)
    if not 1 <= worlds <= r:
        problems.append(f"{worlds} worlds enumerated for R={r}")
    if not entities:
        problems.append("interval query returned no entities")
    total = sum(weight for _, weight, _ in retained)
    slot_sums = [0.0] * k
    seen: set[int] = set()
    group_of = _homes(members for members, _, _ in retained)
    for entity in entities:
        lo, hi = entity["count_lo"], entity["count_hi"]
        members = entity["members"]
        mass = sum(oracle.weight_of_record[i] for i in members)
        if lo > hi:
            problems.append(f"count_lo {lo!r} > count_hi {hi!r}")
        slack = PROB_EPS * max(1.0, hi)
        if not lo - slack <= entity["expected"] <= hi + slack:
            problems.append("expected count outside [count_lo, count_hi]")
        if lo < mass * (1 - WEIGHT_REL) or hi > total * (1 + WEIGHT_REL):
            problems.append(
                f"interval [{lo!r}, {hi!r}] outside [entity mass {mass!r}, "
                f"retained total {total!r}]"
            )
        membership = entity["membership"]
        if not -PROB_EPS <= membership <= 1 + PROB_EPS:
            problems.append(f"membership {membership!r} outside [0, 1]")
        if len(entity["slots"]) != k:
            problems.append(f"{len(entity['slots'])} slot probabilities")
        for slot, p in enumerate(entity["slots"][:k]):
            if p < -PROB_EPS or p > membership + PROB_EPS:
                problems.append("slot mass outside [0, membership]")
            slot_sums[slot] += p
        if members & seen:
            problems.append("interval entities overlap")
        seen |= members
        if _splits(members, group_of):
            problems.append("interval entity splits a retained group")
    if any(total_p > 1 + PROB_EPS for total_p in slot_sums):
        problems.append("a slot's probabilities sum above 1")
    return problems


def check_served(served: list[dict], reference: list[dict]) -> list[str]:
    """A served Top-K against the policy-free reference engine answer:
    sizes, representative ids and weights match exactly."""
    if served == reference:
        return []
    return [f"served top-K {served!r} != reference {reference!r}"]


def top_groups(group_set, k: int) -> list[dict]:
    """The served response's ``groups`` shape for a PrunedDedupResult."""
    ordered = sorted(group_set, key=lambda g: (-g.weight, g.representative_id))
    return [
        {
            "weight": g.weight,
            "size": len(g.member_ids),
            "representative_id": g.representative_id,
        }
        for g in ordered[:k]
    ]
