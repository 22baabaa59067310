"""Exact tracking-set solver: the oracle the approximations are tested against.

On the Rule-1 kernel a tracking set is a feedback vertex set that tracks every
entry-exit cycle.  ``cover.min_weight_hitting_set`` searches for it: each
candidate is checked by ``verify.untracked_cycles``, and every cycle it leaves
untracked adds the range of its vertices other than its pair, which every
answer hits.
"""

from __future__ import annotations

from trackpaths.cover import min_weight_hitting_set
from trackpaths.graph import BlockChain, CapExceededError, Instance, NoPathError
from trackpaths.reduction import rule1
from trackpaths.results import SolveResult, solve_on_chain
from trackpaths.verify import untracked_ranges

DEFAULT_MAX_N = 18


def _check_cap(instance: Instance, max_n: int, what: str) -> None:
    if instance.graph.n > max_n:
        raise CapExceededError(f"exact {what} limited to {max_n} vertices, got {instance.graph.n}")


def exact_tracking_set(instance: Instance, max_n: int = DEFAULT_MAX_N) -> SolveResult:
    """Minimum-weight tracking set; ties by lexicographically smallest set.

    It searches the Rule-1 kernel, not the Rule 1-3 one: Rule 3's contraction
    keeps only the min-id weight, which would change a weighted optimum.
    """

    def core(kernel: Instance, chain: BlockChain, lb: int, stats: dict) -> set[int]:
        _check_cap(instance, max_n, "solver")
        n = kernel.graph.n
        return set(min_weight_hitting_set(range(n), kernel.weights, untracked_ranges(kernel)))

    return solve_on_chain(instance, "exact", rule1, core)


def exact_decision(instance: Instance, k: int, max_n: int = DEFAULT_MAX_N) -> bool:
    """True iff a tracking set of size at most k exists (unit cardinality).
    Without an s-t path the empty set tracks the instance, for every k >= 0."""
    _check_cap(instance, max_n, "decision")
    try:
        reduced, _ = rule1(instance)
    except NoPathError:
        return k >= 0
    n = reduced.graph.n
    violated = untracked_ranges(reduced)
    # a relaxation optimum above k already settles the answer: stop there
    best = min_weight_hitting_set(
        range(n), [1] * n, lambda chosen: [] if len(chosen) > k else violated(chosen)
    )
    return len(best) <= k
