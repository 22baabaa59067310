"""Approximation pipelines: anchor sizes, feasibility, weight accounting."""

import random
from itertools import combinations

import pytest

from conftest import (
    c4_instance,
    k4_instance,
    random_weights,
    reduced_corpus,
    single_edge_instance,
    theta_instance,
)
from trackpaths import graph, kernel, paths
from trackpaths.approx import _tracks_block, approx_logn_weighted, approx_logopt_unweighted
from trackpaths.cover import VCConfig
from trackpaths.graph import Graph, Instance, block_chain
from trackpaths.reduction import reduce_all
from trackpaths.verify import verify_by_cycles, verify_by_paths


def test_anchor_sizes():
    assert len(approx_logn_weighted(c4_instance()).trackers) <= 2
    assert len(approx_logopt_unweighted(c4_instance()).trackers) <= 3
    assert len(approx_logn_weighted(theta_instance()).trackers) <= 4
    assert len(approx_logopt_unweighted(theta_instance()).trackers) <= 4
    assert approx_logn_weighted(k4_instance()).valid
    assert approx_logopt_unweighted(k4_instance()).valid


def test_trivial_instance():
    for fn in (approx_logn_weighted, approx_logopt_unweighted):
        res = fn(single_edge_instance())
        assert res.trackers == frozenset() and res.valid


def test_logn_random_feasible_and_accounted():
    for i, inst in enumerate(reduced_corpus(40, seed=301, n_lo=5, n_hi=11)):
        weighted = random_weights(inst, seed=700 + i)
        res = approx_logn_weighted(weighted)
        assert res.valid
        assert verify_by_paths(weighted, set(res.trackers)).valid
        assert res.total_weight == weighted.weight_of(res.trackers)
        assert res.lower_bound <= len(res.trackers)
        assert res.method == "logn"


def test_logopt_random_feasible():
    for inst in reduced_corpus(40, seed=311, n_lo=5, n_hi=11):
        res = approx_logopt_unweighted(inst)
        assert res.valid
        assert verify_by_paths(inst, set(res.trackers)).valid
        assert res.lower_bound <= len(res.trackers)
        assert res.method == "logopt"


def test_logopt_rejects_weights():
    weighted = random_weights(c4_instance(), seed=5)
    with pytest.raises(ValueError):
        approx_logopt_unweighted(weighted)


def test_logopt_seed_reproducible():
    for inst in reduced_corpus(5, seed=321, n_lo=6, n_hi=10):
        a = approx_logopt_unweighted(inst, VCConfig(rng_seed=3))
        b = approx_logopt_unweighted(inst, VCConfig(rng_seed=3))
        assert a.trackers == b.trackers


def _random_chain(rng: random.Random) -> Instance:
    """An s-t chain of 2-5 blocks, each a cycle with random chords, one edge
    subdivided twice and a pendant path of 1-2 vertices hanging off it."""
    edges, entry, n = [], 0, 1
    for _ in range(rng.randrange(2, 6)):
        k = rng.randrange(3, 7)
        vs = [entry, *range(n, n + k - 1)]
        n += k - 1
        block = list(zip(vs, vs[1:] + vs[:1]))
        block += [e for e in combinations(vs, 2) if e not in block and rng.random() < 0.3]
        u, v = block.pop(rng.randrange(len(block)))
        block += [(u, n), (n, n + 1), (n + 1, v)]
        n += 2
        edges += block
        prev = rng.choice(vs)
        for _ in range(rng.randrange(1, 3)):
            edges.append((prev, n))
            prev, n = n, n + 1
        entry = rng.choice(vs[1:])
    return Instance(Graph(n, edges), 0, entry)


def test_per_block_validity_equals_whole_kernel_validity():
    # a set tracks the kernel iff its restriction tracks every block of the
    # s-t chain, each block entered and left at its cut vertices
    rng = random.Random(41)
    kernels = reduced_corpus(44, seed=331, n_lo=6, n_hi=12)
    while len(kernels) < 88:
        reduced, _ = reduce_all(_random_chain(rng))
        if len(block_chain(reduced).components) > 1:
            kernels.append(reduced)
    outcomes = {True: 0, False: 0}
    for kern in kernels:
        chain = block_chain(kern)
        n = kern.graph.n
        for _ in range(30):
            density = rng.random()
            trackers = {v for v in range(n) if rng.random() < density}
            want = verify_by_cycles(kern, trackers).valid
            assert all(_tracks_block(c, trackers) for c in chain.components) == want
            outcomes[want] += 1
    assert min(outcomes.values()) >= 200, outcomes


def test_one_chain_walk_per_approximate_solve(monkeypatch):
    # two Rule-1 passes in reduce_all, then block_chain on the kernel: the
    # lower bound and the validity check read the chain block_chain returns
    calls = []

    def counted(*args):
        calls.append(args)
        return walk(*args)

    walk = graph.st_blocks
    for module in (graph, paths, kernel):
        monkeypatch.setattr(module, "st_blocks", counted)
    inst = _random_chain(random.Random(5))
    assert len(block_chain(reduce_all(inst)[0]).components) > 1
    calls.clear()
    for solve in (approx_logn_weighted, approx_logopt_unweighted):
        res = solve(inst)
        assert res.valid and verify_by_paths(inst, set(res.trackers)).valid
        assert len(calls) == 3, solve.__name__
        calls.clear()
