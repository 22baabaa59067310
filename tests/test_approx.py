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
from trackpaths import eptas, generators, graph, kernel, paths
from trackpaths.approx import approx_logn_weighted, approx_logopt_unweighted
from trackpaths.cover import VCConfig
from trackpaths.exact import exact_tracking_set
from trackpaths.graph import Graph, Instance, block_chain
from trackpaths.reduction import reduce_all
from trackpaths.results import _tracks_block
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


def test_every_method_reports_kernel_n_and_seconds():
    no_path = Instance(Graph(4, [(0, 1), (2, 3)]), 0, 3, declared_class="planar")
    single = Instance(Graph(3, [(0, 1), (1, 2)]), 0, 1, declared_class="planar")  # Rule 1 drops 2
    methods = {
        "greedy": approx_logn_weighted,
        "bg": approx_logopt_unweighted,
        "eptas": lambda inst: eptas.eptas_solve(inst, r=9),
        "exact": exact_tracking_set,
    }
    for inst, kernel_n in ((generators.grid(4, 3), None), (single, 2), (no_path, 0)):
        for name, solve in methods.items():
            res = solve(inst)
            assert res.valid, name
            assert res.stats["seconds"] >= 0, name
            if kernel_n is None:
                assert res.stats["kernel_n"] > 2, name
            else:
                assert res.stats["kernel_n"] == kernel_n and res.trackers == frozenset(), name


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
    # two Rule-1 passes in reduce_all (one Rule-1 pass for exact), then
    # block_chain on the kernel: the lower bound and the validity check read
    # the chain block_chain returns.  eptas's pi_subgraph walks each region's
    # boundary pairs on top of that; those walks are not counted here.
    calls = []
    in_pi = []

    def counted(*args):
        if not in_pi:
            calls.append(args)
        return walk(*args)

    def pi_subgraph(*args):
        in_pi.append(True)
        try:
            return real_pi(*args)
        finally:
            in_pi.pop()

    walk, real_pi = graph.st_blocks, eptas.pi_subgraph
    for module in (graph, paths, kernel):
        monkeypatch.setattr(module, "st_blocks", counted)
    monkeypatch.setattr(eptas, "pi_subgraph", pi_subgraph)
    # a K4 chain with s hanging from it by one edge, so Rule 2 has work
    k4s = generators.k4_chain(2)
    n = k4s.graph.n
    planar = Instance(Graph(n + 1, [*k4s.graph.edges, (n, k4s.s)]), n, k4s.t, declared_class="planar")
    solves = {
        "greedy": (approx_logn_weighted, 3),
        "bg": (approx_logopt_unweighted, 3),
        "eptas": (lambda inst: eptas.eptas_solve(inst, r=9), 3),
        "exact": (exact_tracking_set, 2),
    }
    for inst in (_random_chain(random.Random(5)), planar):
        assert len(block_chain(reduce_all(inst)[0]).components) > 1
        for name, (solve, walks) in solves.items():
            if inst is not planar and name in ("eptas", "exact"):
                continue  # not planar-declared, and above exact's size cap
            calls.clear()
            res = solve(inst)
            assert res.valid and verify_by_paths(inst, set(res.trackers)).valid
            assert len(calls) == walks, name
