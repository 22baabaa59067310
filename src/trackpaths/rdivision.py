"""Balanced separators and Frederickson-style relaxed r-divisions.

A relaxed r-division is an edge-disjoint partition of the graph into regions
of at most r vertices each; vertices shared by two or more regions are the
boundary.  Separator quality (size vs. sqrt(n)) is measured, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from trackpaths.graph import Graph, NotConnectedError, is_connected

EXHAUSTIVE_SEPARATOR_MAX_N = 12


@dataclass(frozen=True)
class Region:
    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]
    boundary: frozenset[int] = frozenset()


@dataclass(frozen=True)
class RDivision:
    regions: tuple[Region, ...]
    multiplicity: dict  # vertex id -> number of containing regions
    B: int  # sum over boundary vertices of (multiplicity - 1)
    r: int


def _components(vertices: set[int], adj: dict[int, set[int]], removed: set[int]) -> list[set[int]]:
    seen: set[int] = set()
    comps = []
    for start in sorted(vertices):
        if start in seen or start in removed:
            continue
        comp = {start}
        seen.add(start)
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen and v not in removed:
                    seen.add(v)
                    comp.add(v)
                    stack.append(v)
        comps.append(comp)
    return comps


def _separator(vertices: set[int], adj: dict[int, set[int]]) -> set[int]:
    """A balanced separator of the (connected) subgraph on ``vertices``.

    Strategy ladder: exhaustive minimum for small pieces, then a BFS-level
    sweep (some level always balances: the first level whose cumulative count
    reaches n/3 leaves both sides at most 2n/3).  Ties broken by smallest
    largest-component size, then smallest vertex-id sum, then lexicographically.
    """
    n = len(vertices)
    ordered = sorted(vertices)
    if n <= EXHAUSTIVE_SEPARATOR_MAX_N:
        for size in range(1, n + 1):
            best: Optional[tuple] = None
            for combo in combinations(ordered, size):
                sep = set(combo)
                comps = _components(vertices, adj, sep)
                if any(len(c) > 2 * n / 3 for c in comps):
                    continue
                largest = max((len(c) for c in comps), default=0)
                key = (largest, sum(combo), combo)
                if best is None or key < best:
                    best = key
            if best is not None:
                return set(best[2])
        raise AssertionError("full vertex set always balances")
    # BFS levels from the smallest vertex id
    root = ordered[0]
    level = {root: 0}
    frontier = [root]
    levels: list[list[int]] = [[root]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        if nxt:
            levels.append(sorted(nxt))
        frontier = nxt
    best = None
    for lev in levels:
        sep = set(lev)
        if sep == vertices:
            continue
        comps = _components(vertices, adj, sep)
        if any(len(c) > 2 * n / 3 for c in comps):
            continue
        largest = max((len(c) for c in comps), default=0)
        key = (len(sep), largest, sum(sep), tuple(sorted(sep)))
        if best is None or key < best:
            best = key
    if best is not None:
        return set(best[3])
    # fallback (single-level graphs): everything but the largest residual side
    return set(ordered[: max(1, n // 3)])


def balanced_separator(graph: Graph) -> set[int]:
    """A vertex set whose removal leaves components of size at most 2n/3."""
    if graph.n < 2:
        raise ValueError("separator requires at least two vertices")
    if not is_connected(graph):
        raise NotConnectedError("separator requires a connected graph")
    adj = {v: set(graph.adjacency[v]) for v in range(graph.n)}
    return _separator(set(range(graph.n)), adj)


def _piece_vertices(edges: set[tuple[int, int]]) -> set[int]:
    verts: set[int] = set()
    for u, v in edges:
        verts.update((u, v))
    return verts


def _edge_chunks(edges: set[tuple[int, int]], r: int) -> list[set[tuple[int, int]]]:
    """Partition edges into chunks of at most r//2 edges (hence <= r vertices)."""
    per = max(1, r // 2)
    ordered = sorted(edges)
    return [set(ordered[i : i + per]) for i in range(0, len(ordered), per)]


def _split(edges: set[tuple[int, int]], r: int, out: list[set[tuple[int, int]]]) -> None:
    verts = _piece_vertices(edges)
    if len(verts) <= r:
        out.append(edges)
        return
    adj: dict[int, set[int]] = {v: set() for v in verts}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    sep = _separator(verts, adj)
    comps = _components(verts, adj, sep)
    children: list[set[tuple[int, int]]] = []
    assigned: set[tuple[int, int]] = set()
    for comp in comps:
        closure = comp | sep
        child = {
            e
            for e in edges
            if e[0] in closure and e[1] in closure and (e[0] in comp or e[1] in comp)
        }
        children.append(child)
        assigned |= child
    leftover = edges - assigned  # separator-internal edges
    if children:
        children[0] |= leftover
    elif leftover:
        children.append(leftover)
    if any(len(_piece_vertices(c)) >= len(verts) for c in children):
        # the separator failed to shrink the piece; chunk edges directly
        out.extend(_edge_chunks(edges, r))
        return
    for child in children:
        _split(child, r, out)


def relaxed_r_division(graph: Graph, r: int) -> RDivision:
    """Edge-disjoint cover by regions of at most r vertices each."""
    if r < 3:
        raise ValueError("r must be at least 3")
    if not is_connected(graph):
        raise NotConnectedError("r-division requires a connected graph")
    pieces: list[set[tuple[int, int]]] = []
    _split(set(graph.edges), r, pieces)
    pieces.sort(key=lambda p: min(p))
    multiplicity: dict[int, int] = {}
    for piece in pieces:
        for v in _piece_vertices(piece):
            multiplicity[v] = multiplicity.get(v, 0) + 1
    regions = tuple(
        Region(
            frozenset(_piece_vertices(piece)),
            frozenset(piece),
            frozenset(v for v in _piece_vertices(piece) if multiplicity[v] >= 2),
        )
        for piece in pieces
    )
    b = sum(c - 1 for c in multiplicity.values() if c >= 2)
    return RDivision(regions, multiplicity, b, r)
