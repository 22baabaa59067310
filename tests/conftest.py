"""Shared fixtures: anchor instances, seeded corpora, and brute-force oracles."""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from trackpaths.generators import grid, k4_chain, random_reduced, theta
from trackpaths.graph import Graph, Instance


def c4_instance() -> Instance:
    """4-cycle, s and t opposite."""
    return Instance(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 0, 2)


def theta_instance() -> Instance:
    """Three internally disjoint s-t paths of length 2."""
    return Instance(Graph(5, [(0, 1), (1, 4), (0, 2), (2, 4), (0, 3), (3, 4)]), 0, 4)


def k4_instance() -> Instance:
    return Instance(
        Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]), 0, 3
    )


def single_edge_instance() -> Instance:
    return Instance(Graph(2, [(0, 1)]), 0, 1)


@pytest.fixture(scope="session")
def anchors():
    return {
        "single": single_edge_instance(),
        "c4": c4_instance(),
        "theta": theta_instance(),
        "k4": k4_instance(),
    }


def reduced_corpus(count: int, seed: int, n_lo: int, n_hi: int, p=0.4):
    """Seeded Rules-1-3-reduced random instances, sizes in [n_lo, n_hi]."""
    rng = random.Random(seed)
    out = []
    attempt = 0
    while len(out) < count and attempt < 100 * count:
        n = rng.randrange(n_lo, n_hi + 1)
        inst = random_reduced(n, p, seed * 100_000 + attempt)
        attempt += 1
        if inst is not None and inst.graph.n <= n_hi:
            out.append(inst)
    assert len(out) == count, f"corpus generation starved at {len(out)}/{count}"
    return out


@lru_cache(maxsize=None)
def planar_corpus():
    """Planar-declared instances: plain and perturbed grids, thetas, K4 chains."""
    out = []
    for w, h in [(3, 3), (4, 3), (4, 4), (5, 4), (5, 5), (6, 6)]:
        out.append(grid(w, h))
    for seed in range(4):
        out.append(grid(4, 4, perturb=2, seed=seed))
        out.append(grid(5, 4, perturb=3, seed=seed))
    out.extend([theta(3), theta(4), k4_chain(1), k4_chain(2), k4_chain(3)])
    return tuple(out)


def random_weights(instance: Instance, seed: int) -> Instance:
    rng = random.Random(seed)
    w = tuple(rng.randrange(1, 10) for _ in range(instance.graph.n))
    return Instance(instance.graph, instance.s, instance.t, w, instance.declared_class)


def brute_min_subset(universe, weights, accepts):
    """The first accepted subset of ``universe`` when every subset is sorted by
    (total weight, sorted vertex tuple): the reference for the exact oracles."""
    elems = sorted(universe)
    subsets = [
        tuple(v for i, v in enumerate(elems) if mask >> i & 1)
        for mask in range(1 << len(elems))
    ]
    subsets.sort(key=lambda sub: (sum(weights[v] for v in sub), sub))
    return next(sub for sub in subsets if accepts(set(sub)))


def _simple_paths(graph: Graph, a: int, b: int, allowed: set[int]) -> list[frozenset[int]]:
    """Vertex sets of every simple a-b path inside ``allowed``."""
    out = []

    def walk(path: list[int]) -> None:
        if path[-1] == b:
            out.append(frozenset(path))
            return
        for v in graph.adjacency[path[-1]]:
            if v in allowed and v not in path:
                path.append(v)
                walk(path)
                path.pop()

    if a in allowed and b in allowed:
        walk([a])
    return out


def brute_connection(instance: Instance, cycle, sp: int, tp: int) -> bool:
    """Vertex-disjoint paths s->sp and tp->t in G - (C - {sp, tp}), found by
    listing every simple path on each side: the reference for the pair oracle."""
    allowed = (set(range(instance.graph.n)) - set(cycle)) | {sp, tp}
    firsts = _simple_paths(instance.graph, instance.s, sp, allowed)
    seconds = _simple_paths(instance.graph, tp, instance.t, allowed)
    return any(p.isdisjoint(q) for p in firsts for q in seconds)
