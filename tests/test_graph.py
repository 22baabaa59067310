"""Graph core: construction invariants, blocks, articulation points and the
s-t chain of blocks vs networkx."""

import random

import networkx as nx
import pytest

from trackpaths.graph import (
    Graph,
    Instance,
    NotConnectedError,
    NotReducedError,
    _blocks_from,
    block_chain,
    connected_components,
    find_cycle,
    is_acyclic,
    st_blocks,
)
from trackpaths.generators import k4_chain


def test_graph_rejects_self_loops_and_range():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_graph_dedupes_and_normalizes_edges():
    g = Graph(3, [(1, 0), (0, 1), (1, 2)])
    assert g.m == 2
    assert g.edges == frozenset({(0, 1), (1, 2)})
    assert g.adjacency[1] == (0, 2)


def test_instance_validation():
    g = Graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Instance(g, 0, 0)
    with pytest.raises(ValueError):
        Instance(g, 0, 2, weights=(1, 2))
    with pytest.raises(ValueError):
        Instance(g, 0, 2, weights=(1, -1, 1))
    with pytest.raises(ValueError):
        Instance(g, 0, 2, declared_class="hyperbolic")


def _random_graph(rng, n, p):
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def _all_blocks(g):
    # the lowpoint DFS behind st_blocks, run once from each component
    blocks = []
    for comp in connected_components(g):
        root = min(comp)
        found = _blocks_from(g, root)
        assert all(block <= set(comp) for block in found)
        if found != [{root}]:  # an isolated vertex has no block in networkx
            blocks.extend(found)
    return blocks


def test_articulation_points_match_networkx():
    rng = random.Random(5)
    for _ in range(120):
        g = _random_graph(rng, rng.randrange(3, 12), 0.35)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        seen: dict[int, int] = {}
        for block in _all_blocks(g):
            for v in block:
                seen[v] = seen.get(v, 0) + 1
        assert {v for v, k in seen.items() if k >= 2} == set(nx.articulation_points(h))


def test_biconnected_components_match_networkx():
    rng = random.Random(6)
    for _ in range(80):
        g = _random_graph(rng, rng.randrange(3, 11), 0.45)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        blocks = _all_blocks(g)
        expected = {frozenset(c) for c in nx.biconnected_components(h)}
        assert len(blocks) == len(expected)
        assert {frozenset(b) for b in blocks} == expected


def test_st_blocks_match_networkx_block_cut_tree_path():
    # the vertex-block incidence graph is a forest; the blocks on its s-t
    # path, in order, are the blocks st_blocks must return
    rng = random.Random(6)
    unreachable = chained = 0
    for _ in range(300):
        n = rng.randrange(3, 12)
        g = _random_graph(rng, n, rng.choice([0.2, 0.35, 0.5]))
        s, t = rng.sample(range(n), 2)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        tree = nx.Graph()
        tree.add_nodes_from(("v", v) for v in range(n))
        for i, block in enumerate(nx.biconnected_components(h)):
            tree.add_edges_from((("b", i), ("v", v)) for v in block)
            tree.nodes[("b", i)]["block"] = set(block)
        assert nx.is_forest(tree)
        if nx.has_path(tree, ("v", s), ("v", t)):
            path = nx.shortest_path(tree, ("v", s), ("v", t))
            expected = [tree.nodes[x]["block"] for x in path if x[0] == "b"]
            chained += len(expected) >= 2
        else:
            expected = []
            unreachable += 1
        blocks = st_blocks(g, s, t)
        assert blocks == expected, (n, sorted(g.edges), s, t)
        for a, b in zip(blocks, blocks[1:]):
            assert len(a & b) == 1
    assert unreachable >= 20 and chained >= 20, (unreachable, chained)


def test_acyclicity_and_cycle_finder_agree():
    rng = random.Random(7)
    for _ in range(150):
        g = _random_graph(rng, rng.randrange(2, 10), 0.3)
        removed = {v for v in range(g.n) if rng.random() < 0.2}
        acyclic = is_acyclic(g, removed)
        cyc = find_cycle(g, removed)
        assert acyclic == (cyc is None)
        if cyc is not None:
            assert len(cyc) >= 3 and len(set(cyc)) == len(cyc)
            assert all(v not in removed for v in cyc)
            for i, u in enumerate(cyc):
                assert g.has_edge(u, cyc[(i + 1) % len(cyc)])


def test_connected_components_partition():
    g = Graph(6, [(0, 1), (2, 3), (3, 4)])
    comps = connected_components(g)
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3, 4], [5]]


def test_block_chain_on_k4_chain():
    inst = k4_chain(3)
    chain = block_chain(inst)
    assert len(chain.components) == 3
    assert chain.cut_vertices == (3, 6)
    for comp in chain.components:
        assert comp.instance.graph.n == 4
        assert comp.instance.graph.m == 6


def test_block_chain_rejects_off_chain_blocks():
    # triangle hanging off the middle of an s-t path: not Rule-1 reduced
    g = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 1)])
    with pytest.raises(NotReducedError):
        block_chain(Instance(g, 0, 2))


def test_block_chain_on_disconnected_input_is_not_reduced():
    # an edge off s's component, an isolated vertex, and t out of reach all
    # lie outside the s-t blocks: NotReducedError, not NotConnectedError
    for g, t in (
        (Graph(5, [(0, 1), (1, 2), (3, 4)]), 2),
        (Graph(4, [(0, 1), (1, 2)]), 2),
        (Graph(4, [(0, 1), (2, 3)]), 3),
    ):
        with pytest.raises(NotReducedError) as info:
            block_chain(Instance(g, 0, t))
        assert not isinstance(info.value, NotConnectedError)
