"""Simple undirected graphs, problem instances, and the s-t chain of blocks."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional


class NotConnectedError(ValueError):
    """Raised when an operation requires a connected graph."""


class NotReducedError(ValueError):
    """Raised when an operation's reduction precondition is violated."""


class NoPathError(ValueError):
    """Raised when t is unreachable from s, so there is no s-t path."""


class CapExceededError(RuntimeError):
    """Raised when an instance is too large for a bounded-size procedure."""


def norm_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph on vertex ids 0..n-1."""

    __slots__ = ("n", "edges", "adjacency", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        normalized = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            normalized.add(norm_edge(u, v))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in normalized:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.edges = frozenset(normalized)
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)
        self._hash = hash((n, self.edges))

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={len(self.edges)})"

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class Instance:
    """A tracking-paths instance: graph, start, finish, optional weights.

    ``declared_class`` is advisory and only drives constant choices
    ("general" or "planar").
    """

    graph: Graph
    s: int
    t: int
    weights: tuple[Fraction, ...] = ()
    declared_class: str = "general"
    # the pair oracle's answers for this instance (see verify.py); they live
    # and die with the instance, so nothing outlasts the solve that built it
    _conn_cache: dict = field(
        default_factory=dict, init=False, compare=False, hash=False, repr=False
    )

    def __post_init__(self):
        g = self.graph
        if not (0 <= self.s < g.n and 0 <= self.t < g.n):
            raise ValueError("s/t out of range")
        if self.s == self.t:
            raise ValueError("s and t must differ")
        if not self.weights:
            object.__setattr__(self, "weights", (Fraction(1),) * g.n)
        else:
            w = tuple(Fraction(x) for x in self.weights)
            if len(w) != g.n:
                raise ValueError("weights length must equal vertex count")
            if any(x < 0 for x in w):
                raise ValueError("weights must be nonnegative")
            object.__setattr__(self, "weights", w)
        if self.declared_class not in ("general", "planar"):
            raise ValueError(f"unknown graph class {self.declared_class!r}")

    def weight_of(self, vertices: Iterable[int]) -> Fraction:
        return sum((self.weights[v] for v in vertices), Fraction(0))

    def is_unit_weighted(self) -> bool:
        return all(w == 1 for w in self.weights)


@dataclass(frozen=True)
class ChainComponent:
    """One biconnected block of a block-cut chain, relabeled to dense ids."""

    instance: Instance
    to_parent: tuple[int, ...]  # component vertex id -> parent vertex id


@dataclass(frozen=True)
class BlockChain:
    components: tuple[ChainComponent, ...]
    cut_vertices: tuple[int, ...]  # parent ids; t_i = s_{i+1}


def connected_components(
    graph: Graph, within: Optional[set[int]] = None
) -> list[set[int]]:
    """Connected components restricted to ``within`` (default: all vertices)."""
    if within is None:
        within = set(range(graph.n))
    seen: set[int] = set()
    comps = []
    for start in sorted(within):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for v in graph.adjacency[u]:
                if v in within and v not in seen:
                    seen.add(v)
                    comp.add(v)
                    stack.append(v)
        comps.append(comp)
    return comps


def is_connected(graph: Graph, within: Optional[set[int]] = None) -> bool:
    if within is None:
        within = set(range(graph.n))
    if not within:
        return True
    return len(connected_components(graph, within)) == 1


def is_acyclic(graph: Graph, removed: Optional[set[int]] = None) -> bool:
    """True iff the graph minus ``removed`` contains no cycle (union-find)."""
    removed = removed or set()
    parent = list(range(graph.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in graph.edges:
        if u in removed or v in removed:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def find_cycle(graph: Graph, removed: Optional[set[int]] = None) -> Optional[list[int]]:
    """A simple cycle in the graph minus ``removed``, as a vertex list, or None."""
    removed = removed or set()
    parent: dict[int, Optional[int]] = {}
    on_stack: set[int] = set()
    for root in range(graph.n):
        if root in removed or root in parent:
            continue
        parent[root] = None
        on_stack.add(root)
        stack = [(root, iter(graph.adjacency[root]))]  # explicit DFS stack
        while stack:
            u, rest = stack[-1]
            for v in rest:
                if v in removed or v == parent[u]:
                    continue
                if v in on_stack:
                    # back edge to an ancestor: walk up from u to v
                    cyc = [u]
                    x: Optional[int] = u
                    while x != v:
                        x = parent[x]
                        cyc.append(x)
                    return cyc
                if v in parent:
                    continue  # finished descendant; edge already seen from below
                parent[v] = u
                on_stack.add(v)
                stack.append((v, iter(graph.adjacency[v])))
                break
            else:
                on_stack.discard(u)
                stack.pop()
    return None


def _blocks_from(graph: Graph, root: int) -> list[set[int]]:
    """Biconnected components of root's connected component (lowpoint DFS)."""
    disc: dict[int, int] = {root: 0}
    low: dict[int, int] = {root: 0}
    edge_stack: list[tuple[int, int]] = []
    comps: list[set[int]] = []
    stack = [(root, None, iter(graph.adjacency[root]))]  # explicit DFS stack
    while stack:
        u, parent, rest = stack[-1]
        for v in rest:
            if v == parent:
                continue
            if v not in disc:
                disc[v] = low[v] = len(disc)
                edge_stack.append((u, v))
                stack.append((v, u, iter(graph.adjacency[v])))
                break
            if disc[v] < disc[u]:
                edge_stack.append((u, v))
                low[u] = min(low[u], disc[v])
        else:
            # u is finished: pass its lowpoint up and close a block at parent
            stack.pop()
            if parent is not None:
                low[parent] = min(low[parent], low[u])
                if low[u] >= disc[parent]:
                    comp: set[int] = set()
                    while True:
                        e = edge_stack.pop()
                        comp.update(e)
                        if e == (parent, u):
                            break
                    comps.append(comp)
    if not comps:
        comps = [{root}]
    return comps


def st_blocks(graph: Graph, s: int, t: int) -> list[set[int]]:
    """The blocks on the s-t path of the block-cut tree, in order from s;
    consecutive blocks share one cut vertex.  Empty when t is unreachable.

    One lowpoint DFS from s finds the blocks of s's component; their
    vertex-block incidence graph is a tree, searched from s, and the walk
    back from t reads off the path (Hopcroft and Tarjan 1973).  O(n + m).
    Only ``graph.adjacency`` is read, so any mapping from a vertex to its
    neighbours will do (the reduction's working graph).
    """
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
        return []
    path: list[set[int]] = []
    v = t
    while v != s:
        b, v = via[v]
        path.append(blocks[b])
    return path[::-1]


def block_chain(instance: Instance) -> BlockChain:
    """Decompose a Rule-1-reduced instance into its s-t chain of blocks.

    The block-cut tree of a Rule-1-reduced graph is an s-t path; each block
    of ``st_blocks`` becomes a sub-instance, entered at the cut vertex it
    shares with the block before it; a chain of one block holds the instance
    itself.  Raises NotReducedError when a vertex or an edge lies outside
    those blocks.
    """
    g = instance.graph
    s, t = instance.s, instance.t
    blocks = st_blocks(g, s, t)
    block_edges = [
        [(u, v) for u in block for v in g.adjacency[u] if u < v and v in block]
        for block in blocks
    ]
    if len(set().union(*blocks)) != g.n or sum(map(len, block_edges)) != g.m:
        raise NotReducedError("not Rule-1 reduced: blocks off the s-t chain exist")
    if len(blocks) == 1:  # the instance is its one block: its pair-oracle answers carry over
        return BlockChain((ChainComponent(instance, tuple(range(g.n))),), ())
    cut_list = [min(a & b) for a, b in zip(blocks, blocks[1:])]
    components = []
    for block, edges, entry, exit_v in zip(blocks, block_edges, (s, *cut_list), (*cut_list, t)):
        verts = sorted(block)
        index = {v: j for j, v in enumerate(verts)}
        sub = Instance(
            Graph(len(verts), [(index[u], index[v]) for u, v in edges]),
            index[entry],
            index[exit_v],
            tuple(instance.weights[v] for v in verts),
            instance.declared_class,
        )
        components.append(ChainComponent(sub, tuple(verts)))
    return BlockChain(tuple(components), tuple(cut_list))
