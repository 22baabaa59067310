"""Entry-exit pair semantics and the two tracking-set verifiers.

A tracker set is valid iff the tracker subsequence of every simple s-t path
is unique.  ``verify_by_paths`` checks this directly by enumeration;
``verify_by_cycles`` checks the equivalent covering condition: the set is a
feedback vertex set and every entry-exit cycle carrying at most two trackers
has a tracker off its entry/exit pair.  ``untracked_cycles`` generates the
cycles that break it, each with its smallest untracked pair; the cycle
verifier, the exact solver and ``eptas.region_opt`` all take their untracked
cycles from it.

The pair oracle asks, for a cycle C and an ordered pair (sp, tp) on it,
whether there are vertex-disjoint paths s->sp and tp->t in G - (C - {sp, tp})
(a 2-linkage question).  The pairs of one cycle share the sides
R1 = reachable(s, V - C - {t}) and R2 = reachable(t, V - C - {s}), computed
at most once per ``entry_exit_pairs`` or ``untracked_pair`` call.  A cycle
through s or t is answered from the sides alone: (s, tp) is feasible iff tp
has a neighbour in R2, and (sp, t) iff sp has one in R1.  Every other pair is
settled by the first rung that decides it:

1. side reject: False if sp has no neighbour in R1 or tp none in R2;
2. apart accept: True if R1 and R2 are disjoint (as when C separates s from t);
3. probe 1, once per sp: True if tp has a neighbour in
   reachable(t, V - C - P1) for a shortest path P1 = s->sp;
4. probe 2, once per tp: True if sp has a neighbour in
   reachable(s, V - C - P2) for a shortest path P2 = tp->t;
5. induced DFS, the exact rung, with no budget: a search over induced paths
   s->sp, which suffice because shortcutting a chord of path 1 keeps it on a
   subset of its own vertices, so it still avoids path 2; it prunes only
   where no path tp->t avoids the working path; each depth keeps a witness
   path tp->t and searches for a new one only when the path steps onto it.

No rung has a budget or a cap, so every query gets an exact answer and none
raises ``CapExceededError``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable, Iterator, Optional, Union

from trackpaths.graph import Graph, Instance, NotReducedError, find_cycle
from trackpaths.paths import reachable, simple_st_paths
from trackpaths.reduction import is_rule1_reduced

DEFAULT_PATH_CAP = 200_000
# bound on the per-instance cache ``Instance._conn_cache``
_CONN_CACHE_MAX = 500_000


@dataclass(frozen=True)
class EntryExitCycle:
    """A simple cycle with an ordered entry/exit pair on it."""

    cycle: tuple[int, ...]  # canonical vertex sequence
    entry: int
    exit: int

    def __post_init__(self):
        if self.entry == self.exit:
            raise ValueError("entry and exit must differ")
        if self.entry not in self.cycle or self.exit not in self.cycle:
            raise ValueError("entry/exit must lie on the cycle")
        if len(self.cycle) < 3 or len(set(self.cycle)) != len(self.cycle):
            raise ValueError("cycle must have >= 3 distinct vertices")


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    # a colliding pair of s-t paths, or an untracked entry-exit cycle
    witness: Optional[Union[tuple[tuple[int, ...], tuple[int, ...]], EntryExitCycle]] = None

    def __post_init__(self):
        if self.valid and self.witness is not None:
            raise ValueError("witness only accompanies an invalid report")
        if not self.valid and self.witness is None:
            raise ValueError("invalid report requires a witness")


def canonical_cycle(seq: Iterable[int]) -> tuple[int, ...]:
    """Rotate to the minimum vertex, then orient toward the smaller second vertex."""
    vs = list(seq)
    i = vs.index(min(vs))
    rotated = vs[i:] + vs[:i]
    if len(rotated) >= 3 and rotated[-1] < rotated[1]:
        rotated = [rotated[0]] + rotated[:0:-1]
    return tuple(rotated)


def _connection_oracle(
    instance: Instance, sub: frozenset[int]
) -> Callable[[int, int], bool]:
    """``connected(sp, tp)`` for the pairs of one subgraph: are there two
    vertex-disjoint paths s->sp and tp->t touching ``sub`` only at sp/tp?

    The two sides R1 = reachable(s, V - sub - {t}) and R2 = reachable(t,
    V - sub - {s}) are computed once, at the first query that needs them, and
    the probes once per sp and once per tp; all live only as long as the
    returned function.  A pair is settled by the rungs of the module
    docstring in order: side reject, apart accept, probe 1, probe 2, and the
    exact induced DFS of ``_connection_search``; answers go to
    ``Instance._conn_cache``.
    """
    graph, s, t = instance.graph, instance.s, instance.t
    adjacency = graph.adjacency
    cache = instance._conn_cache
    rest: Optional[set[int]] = None  # V - sub
    sides: Optional[tuple[set[int], set[int]]] = None  # (R1, R2)
    # sp -> reachable(t, V - sub - P1) for a shortest path P1 = s->sp, and
    # tp -> reachable(s, V - sub - P2) for a shortest path P2 = tp->t
    beyond1: dict[int, set[int]] = {}
    beyond2: dict[int, set[int]] = {}

    def beyond(memo: dict, end: int, src: int, dst: int, root: int) -> set[int]:
        # reachable(root, V - sub - P) for a shortest path P = src->dst
        # inside V - sub - {root} + {end}
        if end not in memo:
            path = _shortest_path(graph, src, dst, (rest - {root}) | {end})
            memo[end] = set() if path is None else reachable(graph, root, rest.difference(path))
        return memo[end]

    def connected(sp: int, tp: int) -> bool:
        nonlocal rest, sides
        if s in sub and s != sp:
            return False
        if t in sub and t != tp:
            return False
        if s == sp and t == tp:
            return True
        if sides is None:
            rest = set(range(graph.n)) - sub
            sides = (reachable(graph, s, rest - {t}), reachable(graph, t, rest - {s}))
        r1, r2 = sides
        # a cycle through s or t: path 1 or path 2 is that terminal alone
        if s == sp:
            return not r2.isdisjoint(adjacency[tp])
        if t == tp:
            return not r1.isdisjoint(adjacency[sp])
        key = (sub, sp, tp)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if r1.isdisjoint(adjacency[sp]) or r2.isdisjoint(adjacency[tp]):
            hit = False  # side reject: sp unreachable from s, or t from tp
        elif r1.isdisjoint(r2):
            hit = True  # apart accept: any two side paths are disjoint
        else:
            hit = (
                # probes: a shortest path on one side leaves the other connected
                not beyond(beyond1, sp, s, sp, t).isdisjoint(adjacency[tp])
                or not beyond(beyond2, tp, tp, t, s).isdisjoint(adjacency[sp])
                or _connection_search(
                    graph, s, t, sp, tp, (rest - {t}) | {sp}, (rest - {s}) | {tp}
                )
            )
        if len(cache) > _CONN_CACHE_MAX:
            cache.clear()
        cache[key] = hit
        return hit

    return connected


def _connection_search(
    graph: Graph,
    s: int,
    t: int,
    sp: int,
    tp: int,
    allowed1: set[int],
    allowed2: set[int],
) -> bool:
    """Rung 5 of the pair oracle, for a pair that rungs 1-4 (in
    ``_connection_oracle``) left open: a DFS over induced paths s->sp inside
    ``allowed1``, pruned where no path tp->t inside ``allowed2`` avoids the
    working path.  Run to completion, it is exact.

    A path is extended only by a vertex with no neighbour on it but the
    current end.  Shortcutting the chords of a working path gives an induced
    one on a subset of its vertices, inside ``allowed1``, that leaves path 2
    at least the room it had and passes every pruning test the original did.
    Each depth keeps a witness path tp->t; a child whose vertex is off its
    parent's witness shares it, so the BFS reruns only when the entered
    vertex lies on the witness."""
    path_set = {s}
    # explicit DFS stack: a path vertex, its untried neighbours, its witness
    stack: list[tuple[int, Iterator[int], set[int]]] = []
    v = s
    while True:
        # enter v, which was just added to the path
        witness = stack[-1][2] if stack else None
        if witness is None or v in witness:
            path = _shortest_path(graph, tp, t, allowed2, path_set)
            witness = None if path is None else set(path)
        if witness is not None:
            if v == sp:
                return True
            stack.append((v, iter(graph.adjacency[v]), witness))
        else:
            path_set.discard(v)
        # the next vertex to enter: the first induced extension of the
        # deepest path that has one; when no path has one, sp is out of reach
        while stack:
            u, rest, _ = stack[-1]
            for v in rest:
                if (
                    v in allowed1
                    and v not in path_set
                    and all(w == u or w not in path_set for w in graph.adjacency[v])
                ):
                    break
            else:
                stack.pop()
                path_set.discard(u)
                continue
            path_set.add(v)
            break
        else:
            return False


def _shortest_path(
    graph: Graph, src: int, dst: int, allowed: set[int], blocked: AbstractSet[int] = frozenset()
) -> Optional[list[int]]:
    """A shortest src->dst path inside ``allowed`` that steps on no vertex of
    ``blocked``, or None."""
    if src not in allowed or dst not in allowed:
        return None
    prev: dict[int, Optional[int]] = {src: None}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            path = []
            x: Optional[int] = u
            while x is not None:
                path.append(x)
                x = prev[x]
            return path[::-1]
        for v in graph.adjacency[u]:
            if v in allowed and v not in prev and v not in blocked:
                prev[v] = u
                queue.append(v)
    return None


def entry_exit_pairs(
    instance: Instance,
    sub_vertices: Iterable[int],
    sub_edges: Optional[Iterable[tuple[int, int]]] = None,
) -> list[tuple[int, int]]:
    """All ordered (entry, exit) pairs of the subgraph per the four conditions.

    ``sub_edges`` defaults to the edges induced by ``sub_vertices``; the
    subgraph must contain at least one edge.
    """
    sub = frozenset(sub_vertices)
    g = instance.graph
    if sub_edges is None:
        sub_edges = [e for e in g.edges if e[0] in sub and e[1] in sub]
    if not list(sub_edges):
        raise ValueError("subgraph has no edges")
    connected = _connection_oracle(instance, sub)
    pairs = []
    for sp in sorted(sub):
        for tp in sorted(sub):
            if sp != tp and connected(sp, tp):
                pairs.append((sp, tp))
    return pairs


def cycle_entry_exit_pairs(instance: Instance, cycle: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Entry-exit pairs of a cycle, taken in its canonical rotation."""
    canon = canonical_cycle(cycle)
    cyc_edges = [(canon[i], canon[(i + 1) % len(canon)]) for i in range(len(canon))]
    return tuple(entry_exit_pairs(instance, canon, sub_edges=cyc_edges))


def is_tracked(eec: EntryExitCycle, trackers: set[int]) -> bool:
    return any(v in trackers for v in eec.cycle if v not in (eec.entry, eec.exit))


def untracked_pair(
    instance: Instance, cycle: Iterable[int], trackers: set[int]
) -> Optional[tuple[int, int]]:
    """The smallest feasible entry-exit pair of the cycle left untracked, or
    None when the cycle is tracked for every feasible pair.

    Only pairs whose {entry, exit} covers every on-cycle tracker can be
    untracked, so a cycle carrying three or more trackers needs no queries.
    """
    canon = canonical_cycle(cycle)
    on_cycle = sorted(v for v in canon if v in trackers)
    if len(on_cycle) >= 3:
        return None
    if len(on_cycle) == 2:
        x, y = on_cycle
        candidates = [(x, y), (y, x)]
    elif len(on_cycle) == 1:
        x = on_cycle[0]
        rest = [v for v in sorted(canon) if v != x]
        candidates = sorted([(x, v) for v in rest] + [(v, x) for v in rest])
    else:
        vs = sorted(canon)
        candidates = [(a, b) for a in vs for b in vs if a != b]
    connected = _connection_oracle(instance, frozenset(canon))
    for sp, tp in candidates:
        if connected(sp, tp):
            return (sp, tp)
    return None


def verify_by_paths(
    instance: Instance, trackers: set[int], cap: int = DEFAULT_PATH_CAP
) -> VerifyReport:
    """Check tracker-sequence uniqueness by enumerating all simple s-t paths;
    more than ``cap`` of them raise CapExceededError."""
    g = instance.graph
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for path in simple_st_paths(g, instance.s, instance.t, cap=cap):
        sig = tuple(filter(trackers.__contains__, path))
        if sig in seen:
            return VerifyReport(False, (seen[sig], path))
        seen[sig] = path
    return VerifyReport(True)


def untracked_cycles(
    instance: Instance, trackers: Iterable[int], graph: Optional[Graph] = None
) -> Iterator[EntryExitCycle]:
    """Each cycle of ``graph`` (default: the instance's graph) that
    ``trackers`` leave untracked, with its smallest untracked pair, judged in
    the whole Rule-1-reduced ``instance``.

    A cycle avoiding every tracker comes alone.  Otherwise the trackers are a
    feedback set of ``graph``, and ``enumerate_cf`` lists the cycles meeting
    them once or twice; one meeting them thrice is tracked.  A tracker-free
    cycle with no feasible pair, which Rule 1 would have removed, raises
    ``NotReducedError``.
    """
    from trackpaths.cycles import enumerate_cf

    graph = instance.graph if graph is None else graph
    trackers = set(trackers)
    cyc = find_cycle(graph, trackers)
    if cyc is not None:
        cycles = [canonical_cycle(cyc)]
    else:
        cycles = enumerate_cf(Instance(graph, instance.s, instance.t), trackers).cycles
    for cyc in cycles:
        pair = untracked_pair(instance, cyc, trackers)
        if pair is not None:
            yield EntryExitCycle(cyc, *pair)
        elif trackers.isdisjoint(cyc):
            raise NotReducedError(f"cycle {cyc} has no entry-exit pair")


def untracked_ranges(instance: Instance, graph: Optional[Graph] = None) -> Callable:
    """The ``violated`` callback of ``cover.min_weight_hitting_set``: each cycle
    ``untracked_cycles`` yields, less its pair, which every tracking set hits."""
    return lambda chosen: [
        set(w.cycle) - {w.entry, w.exit} for w in untracked_cycles(instance, chosen, graph)
    ]


def verify_by_cycles(instance: Instance, trackers: set[int]) -> VerifyReport:
    """Check the covering characterization: FVS plus tracked entry-exit
    cycles; the witness is the first cycle ``untracked_cycles`` yields."""
    if not is_rule1_reduced(instance):
        raise NotReducedError("cycle verifier requires a Rule-1-reduced instance")
    witness = next(untracked_cycles(instance, trackers), None)
    return VerifyReport(True) if witness is None else VerifyReport(False, witness)
