"""Kernelization: rejection rules, decision preservation, size bounds."""

import random
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest

from conftest import c4_instance, reduced_corpus, theta_instance
from trackpaths.exact import exact_decision
from trackpaths.graph import Graph, Instance, NotReducedError
from trackpaths.reduction import reduce_all
from trackpaths.kernel import (
    SigmaConfig,
    check_size_bounds,
    instance_lower_bound,
    kernelize,
    lower_bound_maxdeg,
    rule4,
    rule5,
)


def test_lower_bound_examples():
    assert lower_bound_maxdeg(c4_instance()) == 0
    assert lower_bound_maxdeg(theta_instance()) == 1
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])  # unreduced: pendant
    with pytest.raises(NotReducedError):
        lower_bound_maxdeg(Instance(g, 0, 2))
    assert instance_lower_bound(Instance(g, 0, 2)) == 0


def test_rule4_degree_threshold():
    inst = theta_instance()  # hubs have degree 3
    assert rule4(inst, 1)
    assert not rule4(inst, 0)


def test_lower_bound_and_rule4_use_the_cut_vertices_of_the_kernel():
    # random chains of blocks, each a cycle with random chords or a bridge,
    # from s to t; on the reduced kernel the cut vertices of the s-t chain
    # are all of them
    rng = random.Random(13)
    with_cuts = 0
    for _ in range(200):
        edges, cut, n = set(), 0, 1
        for _ in range(rng.randrange(1, 5)):
            k = rng.randrange(1, 5)
            vs = [cut, *range(n, n + k)]
            n += k
            edges.update(zip(vs, vs[1:] + vs[:1]) if k > 1 else [tuple(vs)])
            edges.update(e for e in combinations(vs, 2) if rng.random() < 0.3)
            cut = rng.choice(vs[1:])
        reduced, _ = reduce_all(Instance(Graph(n, edges), 0, cut))
        h = nx.Graph(reduced.graph.edges)
        cuts = set(nx.articulation_points(h))
        degrees = [d for v, d in h.degree if v not in cuts]
        assert lower_bound_maxdeg(reduced) == max(0, max(degrees) - 2)
        for k in range(4):
            assert rule4(reduced, k) == all(d <= k + 2 for d in degrees)
        with_cuts += bool(cuts)
    assert with_cuts >= 50, with_cuts


def test_rule5_size_threshold():
    inst = c4_instance()  # n=4, m=4
    assert rule5(inst, 1)  # bounds 8 and 10
    assert not rule5(inst, 0)


def test_kernelize_c4_k0_is_trivial_no():
    out = kernelize(c4_instance(), 0)
    assert out.decision == "trivial_no"
    assert out.kernel_instance is None
    assert out.reason in {"rule4", "rule5"}


def test_kernelize_single_edge_always_yes_kernel():
    out = kernelize(Instance(Graph(2, [(0, 1)]), 0, 1), 0)
    assert out.decision == "kernel"
    assert out.kernel_instance.graph.n == 2


def test_kernelize_without_an_st_path_is_a_yes_kernel():
    inst = Instance(Graph(4, [(0, 1), (2, 3)]), 0, 3)
    for k in range(3):
        out = kernelize(inst, k)
        assert (out.decision, out.kernel_instance, out.trace, out.k) == ("kernel", None, None, k)
        assert exact_decision(inst, k)


def test_kernelize_preserves_decision():
    for inst in reduced_corpus(20, seed=401, n_lo=5, n_hi=9):
        for k in range(0, 4):
            out = kernelize(inst, k)
            truth = exact_decision(inst, k)
            if out.decision == "trivial_no":
                assert truth is False
            else:
                assert exact_decision(out.kernel_instance, k) == truth


def test_check_size_bounds():
    rep = check_size_bounds(c4_instance(), 1)
    assert rep.applicable
    assert rep.quadratic_vertices_ok and rep.quadratic_edges_ok
    assert rep.linear_vertices_ok is None  # not planar-declared
    planar = Instance(
        c4_instance().graph, 0, 2, declared_class="planar"
    )
    rep2 = check_size_bounds(planar, 1)
    assert rep2.linear_vertices_ok and rep2.linear_edges_ok
    assert not check_size_bounds(c4_instance(), 0).applicable


def test_check_size_bounds_requires_reduced():
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    with pytest.raises(NotReducedError):
        check_size_bounds(Instance(g, 0, 2), 1)


def test_sigma_config_constants():
    cfg = SigmaConfig()
    assert cfg.c2 == 169
    assert cfg.c3 == 90
    with pytest.raises(ValueError):
        SigmaConfig(c2=Fraction(100))
    with pytest.raises(ValueError):
        SigmaConfig(c3=Fraction(10))
