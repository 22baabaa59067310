"""Exact tracking-set solver: the oracle the approximations are tested against.

On the Rule-1 kernel a tracking set is a feedback vertex set that tracks every
entry-exit cycle.  ``cover.min_weight_hitting_set`` searches for it: each
candidate is checked by ``verify.untracked_cycles``, and every cycle it leaves
untracked adds the range of its vertices other than its pair, which every
answer hits.
"""

from __future__ import annotations

from fractions import Fraction

from trackpaths.cover import min_weight_hitting_set
from trackpaths.graph import CapExceededError, Instance, NoPathError
from trackpaths.kernel import instance_lower_bound
from trackpaths.reduction import lift_trackers, rule1
from trackpaths.results import SolveResult
from trackpaths.verify import untracked_ranges, verify_by_paths

DEFAULT_MAX_N = 18


def exact_tracking_set(instance: Instance, max_n: int = DEFAULT_MAX_N) -> SolveResult:
    """Minimum-weight tracking set; ties by lexicographically smallest set.
    Without an s-t path it is the empty set, whatever the size."""
    try:
        reduced, trace = rule1(instance)
    except NoPathError:
        return SolveResult(frozenset(), Fraction(0), 0, "exact", True)
    if instance.graph.n > max_n:
        raise CapExceededError(
            f"exact solver limited to {max_n} vertices, got {instance.graph.n}"
        )
    g = reduced.graph
    if g.n == 2:
        report = verify_by_paths(instance, set())
        return SolveResult(frozenset(), Fraction(0), 0, "exact", report.valid)
    best = min_weight_hitting_set(range(g.n), reduced.weights, untracked_ranges(reduced))
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
    violated = untracked_ranges(reduced)
    # a relaxation optimum above k already settles the answer: stop there
    best = min_weight_hitting_set(
        range(n), [1] * n, lambda chosen: [] if len(chosen) > k else violated(chosen)
    )
    return len(best) <= k
