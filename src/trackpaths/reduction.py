"""Reduction rules 1-3 with a trace mapping kernel vertices to originals.

Rule 1 removes vertices/edges off every s-t path, in one linear pass over the
block-cut tree (``paths.st_path_edges``); Rule 2 trims degree-1 terminals;
Rule 3 contracts adjacent degree-2 non-terminals.  None of the rules
introduce trackers, so lifting a kernel solution only needs to resolve
contracted identities.
"""

from __future__ import annotations

from dataclasses import dataclass

from trackpaths.graph import Graph, Instance
from trackpaths.paths import st_path_edges


@dataclass(frozen=True)
class ReductionTrace:
    """Maps kernel vertex ids back to sets of original vertex ids."""

    applied_rules: tuple[tuple[str, tuple], ...]
    origin_map: tuple[frozenset[int], ...]  # kernel vid -> original ids
    relabeled_s: int  # original id (min of origin set) of current s
    relabeled_t: int


def identity_trace(instance: Instance) -> ReductionTrace:
    return ReductionTrace(
        (),
        tuple(frozenset([v]) for v in range(instance.graph.n)),
        instance.s,
        instance.t,
    )


def compose_traces(first: ReductionTrace, second: ReductionTrace) -> ReductionTrace:
    """Trace for applying ``first`` then ``second`` (second maps into first's kernel)."""
    origin = tuple(
        frozenset().union(*(first.origin_map[v] for v in mids)) if mids else frozenset()
        for mids in second.origin_map
    )
    merged = first.applied_rules + second.applied_rules
    # relabeled_s/t in `second` are mid-instance ids resolved through `first`
    rel_s = min(first.origin_map[second.relabeled_s])
    rel_t = min(first.origin_map[second.relabeled_t])
    return ReductionTrace(merged, origin, rel_s, rel_t)


def lift_trackers(trace: ReductionTrace, kernel_trackers: set[int]) -> set[int]:
    """Map kernel trackers to original vertices (min-id member of each origin set)."""
    lifted = set()
    for v in kernel_trackers:
        if not (0 <= v < len(trace.origin_map)):
            raise ValueError(f"unknown kernel vertex {v}")
        lifted.add(min(trace.origin_map[v]))
    return lifted


def _relabel(
    instance: Instance,
    keep: list[int],
    edges: set[tuple[int, int]],
    s: int,
    t: int,
    rule_log: tuple[tuple[str, tuple], ...],
    origin_sets: dict[int, frozenset[int]] | None = None,
) -> tuple[Instance, ReductionTrace]:
    """Build the reduced instance on ``keep`` (old ids) plus its trace."""
    keep_sorted = sorted(keep)
    index = {v: i for i, v in enumerate(keep_sorted)}
    g2 = Graph(len(keep_sorted), [(index[u], index[v]) for u, v in edges])
    if origin_sets is None:
        origin_sets = {v: frozenset([v]) for v in keep_sorted}
    weights = []
    for v in keep_sorted:
        # a contracted vertex keeps the weight of its min-id original
        weights.append(instance.weights[min(origin_sets[v], key=lambda x: x)])
    origin = tuple(origin_sets[v] for v in keep_sorted)
    inst2 = Instance(g2, index[s], index[t], tuple(weights), instance.declared_class)
    trace = ReductionTrace(rule_log, origin, min(origin[index[s]]), min(origin[index[t]]))
    return inst2, trace


def rule1(instance: Instance) -> tuple[Instance, ReductionTrace]:
    """Remove every vertex and edge that lies on no simple s-t path."""
    g, s, t = instance.graph, instance.s, instance.t
    surviving = st_path_edges(g, s, t)
    if not surviving:
        raise ValueError("no s-t path exists; instance is infeasible for Rule 1")
    keep = {s, t}
    for u, v in surviving:
        keep.update((u, v))
    removed_vertices = sorted(set(range(g.n)) - keep)
    removed_edges = sorted(g.edges - surviving)
    log: tuple[tuple[str, tuple], ...] = ()
    if removed_vertices or removed_edges:
        log = (("rule1", (tuple(removed_vertices), tuple(removed_edges))),)
    return _relabel(instance, sorted(keep), surviving, s, t, log)


def rule2(instance: Instance) -> tuple[Instance, ReductionTrace]:
    """Trim degree-1 terminals, relabeling s/t inward."""
    g = instance.graph
    adj = {v: set(g.adjacency[v]) for v in range(g.n)}
    s, t = instance.s, instance.t
    removed: list[int] = []
    changed = True
    while changed:
        changed = False
        for term in ("s", "t"):
            cur = s if term == "s" else t
            other = t if term == "s" else s
            if len(adj[cur]) == 1:
                (nb,) = adj[cur]
                if nb != other:
                    adj[nb].discard(cur)
                    del adj[cur]
                    removed.append(cur)
                    if term == "s":
                        s = nb
                    else:
                        t = nb
                    changed = True
    keep = sorted(adj)
    edges = {(u, v) for u in adj for v in adj[u] if u < v}
    log: tuple[tuple[str, tuple], ...] = ()
    if removed:
        log = (("rule2", (tuple(removed),)),)
    return _relabel(instance, keep, edges, s, t, log)


def rule3(instance: Instance) -> tuple[Instance, ReductionTrace]:
    """Contract edges between adjacent degree-2 non-terminals until none remain."""
    g = instance.graph
    s, t = instance.s, instance.t
    adj = {v: set(g.adjacency[v]) for v in range(g.n)}
    origin = {v: frozenset([v]) for v in range(g.n)}
    contracted: list[tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        for a in sorted(adj):
            if a in (s, t) or len(adj[a]) != 2:
                continue
            partner = None
            for b in sorted(adj[a]):
                if b not in (s, t) and len(adj[b]) == 2:
                    partner = b
                    break
            if partner is None:
                continue
            b = partner
            keep_v, drop_v = (a, b) if a < b else (b, a)
            contracted.append((keep_v, drop_v))
            new_nb = (adj[a] | adj[b]) - {a, b}
            for x in adj[drop_v]:
                adj[x].discard(drop_v)
            for x in adj[keep_v]:
                adj[x].discard(keep_v)
            del adj[drop_v]
            adj[keep_v] = set(new_nb)
            for x in new_nb:
                adj[x].add(keep_v)
            origin[keep_v] = origin[keep_v] | origin[drop_v]
            del origin[drop_v]
            changed = True
            break
    keep = sorted(adj)
    edges = {(u, v) for u in adj for v in adj[u] if u < v}
    log: tuple[tuple[str, tuple], ...] = ()
    if contracted:
        log = (("rule3", (tuple(contracted),)),)
    return _relabel(instance, keep, edges, s, t, log, origin_sets=origin)


def reduce_all(instance: Instance) -> tuple[Instance, ReductionTrace]:
    """Apply Rules 1, 2, 3 in order until a fixpoint is reached."""
    current = instance
    trace = identity_trace(instance)
    while True:
        before = (current.graph, current.s, current.t)
        for rule in (rule1, rule2, rule3):
            current, delta = rule(current)
            trace = compose_traces(trace, delta)
        if (current.graph, current.s, current.t) == before:
            return current, trace


def is_rule1_reduced(instance: Instance) -> bool:
    """True iff Rule 1 removes nothing: every edge lies on a simple s-t path
    and every vertex is s, t or an end of such an edge."""
    g, s, t = instance.graph, instance.s, instance.t
    surviving = st_path_edges(g, s, t)
    if not surviving:
        raise ValueError("no s-t path exists; instance is infeasible for Rule 1")
    if len(surviving) != g.m:
        return False
    covered = {s, t}
    for u, v in surviving:
        covered.update((u, v))
    return len(covered) == g.n


def is_reduced(instance: Instance) -> bool:
    """True iff the instance is a fixpoint of Rules 1-3."""
    reduced, _ = reduce_all(instance)
    return reduced.graph == instance.graph and (reduced.s, reduced.t) == (
        instance.s,
        instance.t,
    )
