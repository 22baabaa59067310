"""Exact tracking-set solver: the oracle the approximations are tested against.

On the Rule-1 kernel a tracking set is a feedback vertex set that tracks every
entry-exit cycle.  ``cover.min_weight_hitting_set`` searches for it: each
candidate is checked by ``find_cycle`` (a cycle it leaves, which every answer
must hit) and then by ``verify_by_cycles`` (an untracked entry-exit cycle,
whose vertices other than its pair every answer must hit).
"""

from __future__ import annotations

from fractions import Fraction

from trackpaths.cover import min_weight_hitting_set
from trackpaths.graph import CapExceededError, Instance, find_cycle
from trackpaths.kernel import instance_lower_bound
from trackpaths.reduction import lift_trackers, rule1
from trackpaths.results import SolveResult
from trackpaths.verify import verify_by_cycles, verify_by_paths

DEFAULT_MAX_N = 18


def _tracking_ranges(reduced: Instance):
    """The ``violated`` callback of a Rule-1-reduced instance: a cycle the
    candidate leaves, else an untracked entry-exit cycle without its pair."""

    def violated(chosen: list[int]) -> list:
        cyc = find_cycle(reduced.graph, set(chosen))
        if cyc is not None:
            return [cyc]
        witness = verify_by_cycles(reduced, set(chosen)).witness
        if witness is None:
            return []
        return [set(witness.cycle) - {witness.entry, witness.exit}]

    return violated


def exact_tracking_set(instance: Instance, max_n: int = DEFAULT_MAX_N) -> SolveResult:
    """Minimum-weight tracking set; ties by lexicographically smallest set."""
    if instance.graph.n > max_n:
        raise CapExceededError(
            f"exact solver limited to {max_n} vertices, got {instance.graph.n}"
        )
    reduced, trace = rule1(instance)
    g = reduced.graph
    if g.n == 2:
        report = verify_by_paths(instance, set())
        return SolveResult(frozenset(), Fraction(0), 0, "exact", report.valid)
    best = min_weight_hitting_set(range(g.n), reduced.weights, _tracking_ranges(reduced))
    lifted = lift_trackers(trace, set(best))
    report = verify_by_paths(instance, lifted) if instance.graph.n <= 12 else None
    valid = report.valid if report is not None else True
    return SolveResult(
        frozenset(lifted),
        instance.weight_of(lifted),
        instance_lower_bound(instance),
        "exact",
        valid,
        {"kernel_n": g.n},
    )


def exact_decision(instance: Instance, k: int, max_n: int = DEFAULT_MAX_N) -> bool:
    """True iff a tracking set of size at most k exists (unit cardinality)."""
    if instance.graph.n > max_n:
        raise CapExceededError(
            f"exact decision limited to {max_n} vertices, got {instance.graph.n}"
        )
    reduced, _ = rule1(instance)
    n = reduced.graph.n
    if n == 2:
        return k >= 0
    violated = _tracking_ranges(reduced)
    # a relaxation optimum above k already settles the answer: stop there
    best = min_weight_hitting_set(
        range(n), [1] * n, lambda chosen: [] if len(chosen) > k else violated(chosen)
    )
    return len(best) <= k
