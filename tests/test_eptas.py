"""Separator-based scheme for planar-declared instances."""

import random
from itertools import combinations

import pytest

from conftest import planar_corpus
from trackpaths.cover import min_weight_hitting_set
from trackpaths.cycles import simple_cycles
from trackpaths.eptas import eps_to_r, eptas_division, eptas_solve, pi_subgraph, region_opt
from trackpaths.exact import exact_tracking_set
from trackpaths.generators import grid, theta
from trackpaths.graph import CapExceededError, Graph, Instance, norm_edge
from trackpaths.paths import simple_st_paths
from trackpaths.rdivision import Region
from trackpaths.reduction import reduce_all
from trackpaths.verify import untracked_pair, verify_by_paths


def _whole_graph_region(g: Graph) -> Region:
    return Region(frozenset(range(g.n)), frozenset(g.edges))


def test_region_opt_on_four_cycle():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    inst = Instance(g, 0, 2, declared_class="planar")
    assert region_opt(inst, _whole_graph_region(g)) == {1}


def test_region_opt_matches_exact_on_reduced_anchors():
    for base in (grid(3, 3), theta(3)):
        reduced, _ = reduce_all(base)
        opt = exact_tracking_set(reduced)
        got = region_opt(reduced, _whole_graph_region(reduced.graph))
        assert len(got) == len(opt.trackers)
        assert verify_by_paths(reduced, got).valid


def _region_opt_by_cycle_list(instance: Instance, region: Region) -> set[int]:
    """The reference: list every simple cycle of the region graph, and let each
    one a candidate leaves untracked add the range of its vertices other than
    its pair, over the vertices on those cycles."""
    cycles = simple_cycles(Graph(instance.graph.n, region.edges))

    def violated(chosen):
        trackers = set(chosen)
        pairs = [(cyc, untracked_pair(instance, cyc, trackers)) for cyc in cycles]
        return [set(cyc) - set(pair) for cyc, pair in pairs if pair is not None]

    candidates = {v for cyc in cycles for v in cyc}
    return set(min_weight_hitting_set(candidates, dict.fromkeys(candidates, 1), violated))


def test_region_opt_matches_the_cycle_list_reference():
    cases = []
    for inst in planar_corpus():
        for r in (9, 16):
            kernel, division = eptas_division(inst, r)
            cases += [(kernel, region) for region in division.regions]
    for base in (grid(3, 3), grid(4, 3), grid(4, 4), theta(3)):
        reduced, _ = reduce_all(base)
        cases.append((reduced, _whole_graph_region(reduced.graph)))
    nonempty = 0
    for kernel, region in cases:
        want = _region_opt_by_cycle_list(kernel, region)
        assert region_opt(kernel, region) == want, (kernel.graph.edges, region)
        nonempty += bool(want)
    assert len(cases) >= 80 and nonempty >= 70, (len(cases), nonempty)


def test_region_opt_cap():
    g = grid(5, 5).graph
    inst = Instance(g, 0, 24, declared_class="planar")
    with pytest.raises(CapExceededError):
        region_opt(inst, _whole_graph_region(g), cap=10)


def test_eptas_grids_valid():
    for w, h, r in [(4, 4, 9), (5, 4, 9), (5, 5, 16), (6, 6, 16)]:
        inst = grid(w, h)
        res = eptas_solve(inst, r=r)
        assert res.valid
        if inst.graph.n <= 20:  # path enumeration explodes on larger grids
            assert verify_by_paths(inst, set(res.trackers)).valid
        assert res.method == "eptas"
        assert res.lower_bound <= len(res.trackers)


def test_eptas_perturbed_grid():
    inst = grid(5, 5, perturb=3, seed=5)
    res = eptas_solve(inst, r=9)
    assert res.valid and verify_by_paths(inst, set(res.trackers)).valid


def _pi_by_enumeration(n, region, opt_r):
    """Edges of boundary-to-boundary region paths of length >= 2 whose
    internal vertices avoid opt_r."""
    g = Graph(n, region.edges)
    edges = set()
    for b1, b2 in combinations(sorted(region.boundary), 2):
        for path in simple_st_paths(g, b1, b2):
            if len(path) >= 3 and not set(path[1:-1]) & opt_r:
                edges.update(norm_edge(a, b) for a, b in zip(path, path[1:]))
    return edges


def test_pi_subgraph_matches_path_enumeration():
    rng = random.Random(9)
    regions = 0
    for seed in (1, 2):
        kernel, division = eptas_division(grid(5, 5, perturb=2, seed=seed), 9)
        for region in division.regions:
            regions += 1
            vertices = sorted(region.vertices)
            for opt_r in (region_opt(kernel, region), set(rng.sample(vertices, 2)), set()):
                pi_v, pi_e = pi_subgraph(kernel, region, opt_r)
                want = _pi_by_enumeration(kernel.graph.n, region, opt_r)
                assert pi_e == want, (region, opt_r)
                assert pi_v == {v for e in want for v in e}
    assert regions >= 4


def test_eps_to_r_is_astronomical_and_capped():
    assert eps_to_r(1) > 10**9
    with pytest.raises(CapExceededError):
        eptas_solve(grid(4, 4), eps=1)


def test_eptas_argument_validation():
    with pytest.raises(ValueError):
        eptas_solve(grid(4, 4))
    with pytest.raises(ValueError):
        eptas_solve(grid(4, 4), r=9, eps=1)
    nonplanar = Instance(grid(4, 4).graph, 0, 15, declared_class="general")
    with pytest.raises(ValueError):
        eptas_solve(nonplanar, r=9)
