"""Weighted feedback vertex set: local-ratio 2-approximation and exact oracle.

The exact oracle is ``cover.min_weight_hitting_set`` with the cycles that
``find_cycle`` reports as ranges: a set is feedback iff it leaves no cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from trackpaths.cover import min_weight_hitting_set
from trackpaths.graph import CapExceededError, Instance, find_cycle, is_acyclic


@dataclass(frozen=True)
class FeedbackSet:
    vertices: frozenset[int]
    weight: Fraction


def _cleanup(adj: dict[int, set[int]]) -> None:
    """Strip degree<=1 vertices (they lie on no cycle)."""
    queue = [v for v in adj if len(adj[v]) <= 1]
    while queue:
        v = queue.pop()
        if v not in adj:
            continue
        for u in adj[v]:
            adj[u].discard(v)
            if len(adj[u]) <= 1:
                queue.append(u)
        del adj[v]


def _semidisjoint_cycle(adj: dict[int, set[int]]) -> list[int] | None:
    """A cycle with at most one vertex of degree > 2, if one exists."""
    for v in adj:
        if len(adj[v]) != 2:
            continue
        # walk the degree-2 chain through v in both directions
        chain = [v]
        ends = []
        for start in adj[v]:
            prev, cur = v, start
            while cur != v and len(adj[cur]) == 2:
                chain.append(cur)
                nxt = next(x for x in adj[cur] if x != prev)
                prev, cur = cur, nxt
            if cur == v:
                return chain  # pure cycle of degree-2 vertices
            ends.append((cur, prev))
        (e1, _), (e2, _) = ends
        if e1 == e2:
            return chain + [e1]  # chain closed by one high-degree junction
    return None


def fvs_2approx(instance: Instance) -> FeedbackSet:
    """Bafna-Berman-Fujito local-ratio 2-approximate weighted FVS.

    Deterministic: vertices scanned in id order; reverse-delete to minimality
    in descending (weight, vertex id) order.
    """
    g = instance.graph
    adj = {v: set(g.adjacency[v]) for v in range(g.n)}
    w = {v: Fraction(instance.weights[v]) for v in range(g.n)}
    chosen: list[int] = []
    _cleanup(adj)
    while adj:
        cyc = _semidisjoint_cycle(adj)
        if cyc is not None:
            gamma = min(w[v] for v in cyc)
            for v in cyc:
                w[v] -= gamma
        else:
            gamma = min(w[v] / (len(adj[v]) - 1) for v in adj)
            for v in adj:
                w[v] -= gamma * (len(adj[v]) - 1)
        zero = sorted(v for v in adj if w[v] == 0)
        for v in zero:
            if v in adj:
                chosen.append(v)
                for u in adj[v]:
                    adj[u].discard(v)
                del adj[v]
        _cleanup(adj)
    # reverse delete to a minimal feedback set
    fset = set(chosen)
    order = sorted(fset, key=lambda v: (instance.weights[v], v), reverse=True)
    for v in order:
        if is_acyclic(g, fset - {v}):
            fset.discard(v)
    return FeedbackSet(frozenset(fset), instance.weight_of(fset))


def fvs_exact(instance: Instance, max_n: int = 16) -> FeedbackSet:
    """Minimum-weight FVS; ties broken by lexicographically smallest set."""
    g = instance.graph
    if g.n > max_n:
        raise CapExceededError(f"fvs_exact limited to {max_n} vertices, got {g.n}")

    def violated(chosen: list[int]) -> list:
        cyc = find_cycle(g, set(chosen))
        return [] if cyc is None else [cyc]

    best = min_weight_hitting_set(range(g.n), instance.weights, violated)
    return FeedbackSet(frozenset(best), instance.weight_of(best))
