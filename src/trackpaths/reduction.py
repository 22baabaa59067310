"""Reduction rules 1-3 with a trace mapping kernel vertices to originals.

Rule 1 removes vertices/edges off every s-t path, in one linear pass over the
block-cut tree (``paths.st_path_edges``); Rule 2 trims degree-1 terminals;
Rule 3 contracts adjacent degree-2 non-terminals.  None of the rules
introduce trackers, so lifting a kernel solution only needs to resolve
contracted identities.

One function, ``_reduce``, applies the rules to a single working graph whose
vertices keep their original ids (a contracted vertex takes the smallest id
it stands for), and builds the kernel instance and its trace once, at the
fixpoint.  ``rule1``, ``rule2``, ``rule3`` and ``reduce_all`` call it with
one rule or with all three.
"""

from __future__ import annotations

from dataclasses import dataclass

from trackpaths.graph import Graph, Instance, NoPathError
from trackpaths.paths import st_path_edges


@dataclass(frozen=True)
class ReductionTrace:
    """Maps kernel vertex ids back to sets of original vertex ids.

    ``applied_rules`` has one entry per rule application that changed the
    graph, in order: the rule's name and the original ids it removed
    (``rule1``: vertices and edges; ``rule2``: terminals) or contracted
    (``rule3``: (kept, dropped) pairs).
    """

    applied_rules: tuple[tuple[str, tuple], ...]
    origin_map: tuple[frozenset[int], ...]  # kernel vid -> original ids
    relabeled_s: int  # original id (min of origin set) of current s
    relabeled_t: int


def lift_trackers(trace: ReductionTrace, kernel_trackers: set[int]) -> set[int]:
    """Map kernel trackers to original vertices (min-id member of each origin set)."""
    lifted = set()
    for v in kernel_trackers:
        if not (0 <= v < len(trace.origin_map)):
            raise ValueError(f"unknown kernel vertex {v}")
        lifted.add(min(trace.origin_map[v]))
    return lifted


class _Working:
    """The graph under reduction.  A vertex is keyed by the smallest original
    id it stands for and ``origin`` lists them all; ``adjacency`` is all that
    ``st_path_edges`` reads of a graph."""

    def __init__(self, instance: Instance):
        g = instance.graph
        self.adjacency = {v: set(g.adjacency[v]) for v in range(g.n)}
        self.origin = {v: [v] for v in range(g.n)}
        self.s, self.t = instance.s, instance.t


def _rule1(w: _Working):
    """Keep only the edges on simple s-t paths and their ends."""
    adj = w.adjacency
    surviving = st_path_edges(w, w.s, w.t)
    if not surviving:
        raise NoPathError("no s-t path exists; instance is infeasible for Rule 1")
    keep = {w.s, w.t}
    for e in surviving:
        keep.update(e)
    if len(keep) == len(adj) and 2 * len(surviving) == sum(map(len, adj.values())):
        return None
    removed_vertices = tuple(sorted(set(adj) - keep))
    removed_edges = tuple(
        sorted((u, v) for u in adj for v in adj[u] if u < v and (u, v) not in surviving)
    )
    w.adjacency = {v: set() for v in keep}
    for u, v in surviving:
        w.adjacency[u].add(v)
        w.adjacency[v].add(u)
    return ("rule1", (removed_vertices, removed_edges))


def _rule2(w: _Working):
    """Trim degree-1 terminals, moving s/t to their neighbour."""
    adj, ends = w.adjacency, [w.s, w.t]
    removed: list[int] = []
    changed = True
    while changed:
        changed = False
        for j in (0, 1):
            cur = ends[j]
            if len(adj[cur]) == 1 and ends[1 - j] not in adj[cur]:
                (nb,) = adj.pop(cur)
                adj[nb].discard(cur)
                removed.append(cur)
                ends[j] = nb
                changed = True
    w.s, w.t = ends
    return ("rule2", (tuple(removed),)) if removed else None


def _rule3(w: _Working):
    """Contract adjacent degree-2 non-terminals, always at the smallest
    vertex that has such a neighbour, until none remain."""
    adj, terminals = w.adjacency, (w.s, w.t)
    order = sorted(adj)
    contracted: list[tuple[int, int]] = []
    i = 0
    while i < len(order):
        a = order[i]
        i += 1
        if a in terminals or len(adj.get(a, ())) != 2:
            continue
        b = next((b for b in sorted(adj[a]) if b not in terminals and len(adj[b]) == 2), None)
        if b is None:
            continue
        # b > a, or b would have been contracted first
        contracted.append((a, b))
        nbrs = (adj[a] | adj[b]) - {a, b}
        for x in adj.pop(b):
            adj[x].discard(b)
        adj[a] = nbrs  # every other neighbour of a stays one
        for x in nbrs:
            adj[x].add(a)
        w.origin[a] += w.origin.pop(b)
        # inside a path every degree stays, so no vertex before a gains a
        # partner: go on from a; closing a triangle lowers the degree of its
        # third vertex, so start over
        i = i - 1 if len(nbrs) == 2 else 0
    return ("rule3", (tuple(contracted),)) if contracted else None


def _reduce(instance: Instance, rules) -> tuple[Instance, ReductionTrace]:
    """Apply ``rules`` in turn until none changes the graph, then build the
    kernel (vertices in original-id order) and its trace."""
    w = _Working(instance)
    log = []
    # each rule runs to its own fixpoint, so once every rule has run since
    # the last change, a whole round would change nothing
    left, i = len(rules), 0
    while left:
        entry = rules[i % len(rules)](w)
        i += 1
        left -= 1
        if entry is not None:
            log.append(entry)
            left = len(rules) - 1
    adj = w.adjacency
    keys = sorted(adj)
    index = {v: j for j, v in enumerate(keys)}
    graph = Graph(len(keys), [(index[u], index[v]) for u in keys for v in adj[u] if u < v])
    # a contracted vertex keeps the weight of its min-id original
    weights = tuple(instance.weights[v] for v in keys)
    kernel = Instance(graph, index[w.s], index[w.t], weights, instance.declared_class)
    origin = tuple(frozenset(w.origin[v]) for v in keys)
    return kernel, ReductionTrace(tuple(log), origin, w.s, w.t)


def rule1(instance: Instance) -> tuple[Instance, ReductionTrace]:
    """Remove every vertex and edge that lies on no simple s-t path."""
    return _reduce(instance, (_rule1,))


def rule2(instance: Instance) -> tuple[Instance, ReductionTrace]:
    """Trim degree-1 terminals, relabeling s/t inward."""
    return _reduce(instance, (_rule2,))


def rule3(instance: Instance) -> tuple[Instance, ReductionTrace]:
    """Contract edges between adjacent degree-2 non-terminals until none remain."""
    return _reduce(instance, (_rule3,))


def reduce_all(instance: Instance) -> tuple[Instance, ReductionTrace]:
    """Apply Rules 1, 2, 3 in order until a fixpoint is reached."""
    return _reduce(instance, (_rule1, _rule2, _rule3))


def is_rule1_reduced(instance: Instance) -> bool:
    """True iff Rule 1 removes nothing: every edge lies on a simple s-t path
    and every vertex is s, t or an end of such an edge."""
    g, s, t = instance.graph, instance.s, instance.t
    surviving = st_path_edges(g, s, t)
    if not surviving:
        raise NoPathError("no s-t path exists; instance is infeasible for Rule 1")
    if len(surviving) != g.m:
        return False
    covered = {s, t}
    for u, v in surviving:
        covered.update((u, v))
    return len(covered) == g.n


def is_reduced(instance: Instance) -> bool:
    """True iff the instance is a fixpoint of Rules 1-3, decided in O(n + m):
    Rule 1 removes nothing, no terminal hangs by one edge from a vertex other
    than the other terminal, and no two degree-2 non-terminals are adjacent."""
    if not is_rule1_reduced(instance):
        return False
    g, s, t = instance.graph, instance.s, instance.t
    if any(g.degree(a) == 1 and g.adjacency[a] != (b,) for a, b in ((s, t), (t, s))):
        return False
    inner = [v not in (s, t) and g.degree(v) == 2 for v in range(g.n)]
    return not any(inner[u] and inner[v] for u, v in g.edges)
