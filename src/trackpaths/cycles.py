"""Enumeration of the cycle family used by the set-cover pipelines.

Given a feedback vertex set F of a Rule-1-reduced graph, every simple cycle
meets F; the family of cycles meeting F in one or two vertices is polynomial
because G-F is a forest with unique paths.  Cycles meeting F in three or more
vertices are trivially tracked by F and never enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from trackpaths.graph import CapExceededError, Graph, Instance, find_cycle
from trackpaths.verify import EntryExitCycle, canonical_cycle, cycle_entry_exit_pairs

DEFAULT_CYCLE_CAP = 2_000_000


@dataclass(frozen=True)
class CycleFamily:
    fvs: frozenset[int]
    cycles: tuple[tuple[int, ...], ...]  # canonical simple cycles, |C ∩ F| in {1,2}
    eecs: tuple[EntryExitCycle, ...] = ()


class _Forest:
    """Rooted representation of G-F with unique-path queries."""

    def __init__(self, graph: Graph, fvs: frozenset[int]):
        self.root = {}
        self.parent = {}
        self.depth = {}
        for v in range(graph.n):
            if v in fvs or v in self.root:
                continue
            self.root[v] = v
            self.parent[v] = None
            self.depth[v] = 0
            stack = [v]
            while stack:
                u = stack.pop()
                for w in graph.adjacency[u]:
                    if w in fvs or w in self.root:
                        continue
                    self.root[w] = v
                    self.parent[w] = u
                    self.depth[w] = self.depth[u] + 1
                    stack.append(w)

    def path(self, u: int, v: int) -> Optional[list[int]]:
        """The unique forest path from u to v, or None if in different trees."""
        if self.root.get(u) is None or self.root.get(u) != self.root.get(v):
            return None
        a, b = u, v
        left, right = [], []
        while self.depth[a] > self.depth[b]:
            left.append(a)
            a = self.parent[a]
        while self.depth[b] > self.depth[a]:
            right.append(b)
            b = self.parent[b]
        while a != b:
            left.append(a)
            right.append(b)
            a = self.parent[a]
            b = self.parent[b]
        return left + [a] + right[::-1]


def enumerate_cf(
    instance: Instance, fvs: Iterable[int], max_cycles: int = DEFAULT_CYCLE_CAP
) -> CycleFamily:
    """All simple cycles containing exactly 1 or 2 vertices of the FVS."""
    g = instance.graph
    f = frozenset(fvs)
    witness = find_cycle(g, set(f))
    if witness is not None:
        raise ValueError(f"fvs is not feedback: cycle {witness} survives removal")
    forest = _Forest(g, f)
    cycles: set[tuple[int, ...]] = set()

    def add(seq: list[int]) -> None:
        cycles.add(canonical_cycle(seq))
        if len(cycles) > max_cycles:
            raise CapExceededError("cycle family exceeds configured cap")

    flist = sorted(f)
    for fv in flist:
        nbs = [u for u in g.adjacency[fv] if u not in f]
        for i in range(len(nbs)):
            for j in range(i + 1, len(nbs)):
                p = forest.path(nbs[i], nbs[j])
                if p is not None:
                    add([fv] + p)
    for i in range(len(flist)):
        for j in range(i + 1, len(flist)):
            f1, f2 = flist[i], flist[j]
            conns: list[list[int]] = []
            for p1 in g.adjacency[f1]:
                if p1 in f:
                    continue
                for p2 in g.adjacency[f2]:
                    if p2 in f:
                        continue
                    p = forest.path(p1, p2)
                    if p is not None:
                        conns.append(p)
            direct = g.has_edge(f1, f2)
            for p in conns:
                if direct:
                    add([f1] + p + [f2])
            for a in range(len(conns)):
                for b in range(a + 1, len(conns)):
                    if not set(conns[a]) & set(conns[b]):
                        add([f1] + conns[a] + [f2] + conns[b][::-1])
    ordered = tuple(sorted(cycles))
    return CycleFamily(f, ordered)


def expand_entry_exit(instance: Instance, family: CycleFamily) -> CycleFamily:
    """Populate entry-exit expansions for every cycle in the family."""
    eecs = []
    for cyc in family.cycles:
        for sp, tp in cycle_entry_exit_pairs(instance, cyc):
            eecs.append(EntryExitCycle(cyc, sp, tp))
    return CycleFamily(family.fvs, family.cycles, tuple(eecs))


def simple_cycles(graph: Graph) -> list[tuple[int, ...]]:
    """All simple cycles (canonical form) via min-vertex-anchored DFS.

    Exponential in general, so no solver calls it: the solvers take their
    cycles from ``verify.untracked_cycles``.  It stays as the tests'
    reference on small graphs.
    """
    out: set[tuple[int, ...]] = set()
    for anchor in range(graph.n):
        # cycles whose minimum vertex is `anchor`
        path = [anchor]
        on_path = {anchor}

        def dfs(u: int) -> None:
            for v in graph.adjacency[u]:
                if v < anchor:
                    continue
                if v == anchor and len(path) >= 3:
                    out.add(canonical_cycle(path))
                elif v not in on_path:
                    path.append(v)
                    on_path.add(v)
                    dfs(v)
                    path.pop()
                    on_path.discard(v)

        dfs(anchor)
    return sorted(out)
