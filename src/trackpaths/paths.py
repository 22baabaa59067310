"""Path primitives shared by the reduction rules and verifiers.

``st_path_edges`` finds every edge on some simple s-t path in one pass: those
are the edges inside the blocks ``graph.st_blocks`` returns.
``simple_st_paths`` enumerates the paths themselves, on an explicit stack,
for the path verifier and path reconstruction.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

from trackpaths.graph import CapExceededError, Graph, norm_edge, st_blocks


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
    the block-cut tree, so these are the edges inside ``graph.st_blocks``,
    found in O(n + m).  Empty when t is unreachable.  Without ``allowed``
    only ``graph.adjacency`` is read, as in ``st_blocks``.
    """
    if allowed is not None:
        if s not in allowed or t not in allowed:
            return set()
        graph = Graph(graph.n, [e for e in graph.edges if e[0] in allowed and e[1] in allowed])
    return {
        norm_edge(u, w)
        for block in st_blocks(graph, s, t)
        for u in block
        for w in graph.adjacency[u]
        if w in block
    }


def edge_on_st_path(
    graph: Graph, u: int, w: int, s: int, t: int, allowed: Optional[set[int]] = None
) -> bool:
    """True iff edge (u,w) lies on some simple s-t path within ``allowed``."""
    return norm_edge(u, w) in st_path_edges(graph, s, t, allowed)


def simple_st_paths(
    graph: Graph, s: int, t: int, cap: Optional[int] = None
) -> Iterator[tuple[int, ...]]:
    """Yield all simple s-t paths (as vertex tuples, s != t) in deterministic
    order: depth first, neighbours in increasing id.

    Raises CapExceededError once more than ``cap`` paths have been produced.
    """
    blocked = [False] * graph.n  # on the path
    adjacency = graph.adjacency
    count = 0
    path = [s]
    blocked[s] = True
    stack = [iter(adjacency[s])]  # explicit DFS stack, one entry per path vertex
    while stack:
        for v in stack[-1]:
            if blocked[v]:
                continue
            if v == t:  # a path ends at t: report it and try the next neighbour
                count += 1
                if cap is not None and count > cap:
                    raise CapExceededError(f"more than {cap} simple s-t paths")
                path.append(t)
                yield tuple(path)
                path.pop()
                continue
            path.append(v)
            blocked[v] = True
            stack.append(iter(adjacency[v]))
            break
        else:
            stack.pop()
            blocked[path.pop()] = False
