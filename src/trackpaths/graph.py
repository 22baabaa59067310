"""Simple undirected graphs, problem instances, and block-cut decomposition."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional


class NotConnectedError(ValueError):
    """Raised when an operation requires a connected graph."""


class NotReducedError(ValueError):
    """Raised when an operation's reduction precondition is violated."""


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


def _all_blocks(graph: Graph) -> list[set[int]]:
    seen: set[int] = set()
    comps: list[set[int]] = []
    for comp in connected_components(graph):
        root = min(comp)
        if root in seen:
            continue
        seen |= comp
        comps.extend(_blocks_from(graph, root))
    comps.sort(key=min)
    return comps


def articulation_points(graph: Graph) -> set[int]:
    """Cut vertices: vertices contained in two or more biconnected blocks."""
    counts: dict[int, int] = {}
    for comp in _all_blocks(graph):
        for v in comp:
            counts[v] = counts.get(v, 0) + 1
    return {v for v, c in counts.items() if c >= 2}


def biconnected_components(graph: Graph) -> tuple[list[set[int]], set[int]]:
    """Biconnected components (as vertex sets) and cut vertices.

    Components are ordered deterministically by smallest contained vertex id.
    Raises NotConnectedError on disconnected input.
    """
    if graph.n == 0:
        return [], set()
    if not is_connected(graph):
        raise NotConnectedError("graph is not connected")
    comps = _all_blocks(graph)
    counts: dict[int, int] = {}
    for comp in comps:
        for v in comp:
            counts[v] = counts.get(v, 0) + 1
    cuts = {v for v, c in counts.items() if c >= 2}
    return comps, cuts


def component_edges(graph: Graph, comp: set[int]) -> set[tuple[int, int]]:
    return {e for e in graph.edges if e[0] in comp and e[1] in comp}


def block_chain(instance: Instance) -> BlockChain:
    """Decompose a Rule-1-reduced instance into its s-t chain of blocks.

    The block-cut tree of a Rule-1-reduced graph is an s-t path; each block
    becomes a sub-instance with its entry/exit assigned along the chain.
    Raises NotReducedError when the block structure is not a chain from s to t.
    """
    g = instance.graph
    s, t = instance.s, instance.t
    comps, cuts = biconnected_components(g)
    # Orient the chain from the block containing s toward the one containing t.
    ordered: list[set[int]] = []
    remaining = list(comps)
    current = s
    while True:
        nxt = [c for c in remaining if current in c]
        if len(nxt) != 1:
            raise NotReducedError("not Rule-1 reduced: block-cut tree is not an s-t path")
        comp = nxt[0]
        remaining.remove(comp)
        ordered.append(comp)
        if t in comp:
            break
        exits = sorted((cuts & comp) - {current})
        if len(exits) != 1:
            raise NotReducedError("not Rule-1 reduced: block-cut tree is not an s-t path")
        current = exits[0]
    if remaining:
        raise NotReducedError("not Rule-1 reduced: blocks off the s-t chain exist")
    components = []
    cut_list: list[int] = []
    entry = s
    for i, comp in enumerate(ordered):
        if i + 1 < len(ordered):
            exit_v = sorted((cuts & comp) - {entry})[0]
            cut_list.append(exit_v)
        else:
            exit_v = t
        verts = sorted(comp)
        index = {v: j for j, v in enumerate(verts)}
        sub_edges = [(index[u], index[v]) for u, v in component_edges(g, comp)]
        sub = Instance(
            Graph(len(verts), sub_edges),
            index[entry],
            index[exit_v],
            tuple(instance.weights[v] for v in verts),
            instance.declared_class,
        )
        components.append(ChainComponent(sub, tuple(verts)))
        entry = exit_v
    return BlockChain(tuple(components), tuple(cut_list))
