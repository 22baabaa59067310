"""Path primitives shared by the reduction rules and verifiers.

``st_path_edges`` finds every edge on some simple s-t path in one pass: those
are the edges of the blocks on the s-t path of the block-cut tree.
``simple_st_paths`` enumerates the paths themselves, for the path verifier.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

from trackpaths.graph import Graph, _blocks_from, norm_edge


def reachable(graph: Graph, src: int, allowed: set[int]) -> set[int]:
    """Vertices reachable from src using only vertices in ``allowed``."""
    if src not in allowed:
        return set()
    seen = {src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in graph.adjacency[u]:
            if v in allowed and v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def st_path_edges(
    graph: Graph, s: int, t: int, allowed: Optional[set[int]] = None
) -> set[tuple[int, int]]:
    """Edges that lie on some simple s-t path within ``allowed`` vertices.

    An edge lies on a simple s-t path iff its block lies on the s-t path of
    the block-cut tree (Hopcroft and Tarjan 1973), so one lowpoint DFS from s
    decides every edge at once, in O(n + m).  Empty when t is unreachable.
    Without ``allowed`` only ``graph.adjacency`` is read, so any mapping from
    a vertex to its neighbours will do there (the reduction's working graph).
    """
    if s == t:
        return set()
    if allowed is not None:
        if s not in allowed or t not in allowed:
            return set()
        graph = Graph(graph.n, [e for e in graph.edges if e[0] in allowed and e[1] in allowed])
    # the vertex-block incidence graph of s's component is a tree: search it
    # from s, then walk back from t through the blocks that reached it
    blocks = _blocks_from(graph, s)
    blocks_of: dict[int, list[int]] = {}
    for i, block in enumerate(blocks):
        for v in block:
            blocks_of.setdefault(v, []).append(i)
    via: dict[int, tuple[int, int]] = {s: (-1, s)}  # vertex -> (block, previous vertex)
    queue = deque([s])
    while queue and t not in via:
        u = queue.popleft()
        for b in blocks_of[u]:
            if b != via[u][0]:
                for v in blocks[b]:
                    if v not in via:
                        via[v] = (b, u)
                        queue.append(v)
    if t not in via:
        return set()
    edges: set[tuple[int, int]] = set()
    v = t
    while v != s:
        b, v = via[v]
        block = blocks[b]
        for u in block:
            edges.update(norm_edge(u, w) for w in graph.adjacency[u] if w in block)
    return edges


def edge_on_st_path(
    graph: Graph, u: int, w: int, s: int, t: int, allowed: Optional[set[int]] = None
) -> bool:
    """True iff edge (u,w) lies on some simple s-t path within ``allowed``."""
    return norm_edge(u, w) in st_path_edges(graph, s, t, allowed)


def simple_st_paths(
    graph: Graph,
    s: int,
    t: int,
    allowed: Optional[set[int]] = None,
    cap: Optional[int] = None,
) -> Iterator[list[int]]:
    """Yield all simple s-t paths (as vertex lists) in deterministic order.

    Raises RuntimeError once more than ``cap`` paths have been produced.
    """
    if allowed is None:
        allowed = set(range(graph.n))
    if s not in allowed or t not in allowed:
        return
    count = 0
    path = [s]
    on_path = {s}

    def dfs(u: int) -> Iterator[list[int]]:
        nonlocal count
        if u == t:
            count += 1
            if cap is not None and count > cap:
                raise RuntimeError("path count cap exceeded")
            yield list(path)
            return
        for v in graph.adjacency[u]:
            if v in allowed and v not in on_path:
                path.append(v)
                on_path.add(v)
                yield from dfs(v)
                path.pop()
                on_path.discard(v)

    yield from dfs(s)
