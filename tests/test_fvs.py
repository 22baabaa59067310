"""Feedback vertex set: approximation ratio, exactness, weights."""

import math
import random
from fractions import Fraction

import pytest

from conftest import brute_min_subset, c4_instance, k4_instance, random_weights, reduced_corpus, theta_instance
from trackpaths.fvs import fvs_2approx, fvs_exact
from trackpaths.graph import is_acyclic


def test_anchor_optima():
    assert len(fvs_exact(c4_instance()).vertices) == 1
    assert len(fvs_exact(theta_instance()).vertices) == 1
    assert len(fvs_exact(k4_instance()).vertices) == 2


def test_approx_feasible_and_within_factor_two():
    for i, inst in enumerate(reduced_corpus(60, seed=201, n_lo=5, n_hi=12)):
        weighted = random_weights(inst, seed=900 + i)
        approx = fvs_2approx(weighted)
        assert is_acyclic(weighted.graph, set(approx.vertices))
        exact = fvs_exact(weighted)
        assert is_acyclic(weighted.graph, set(exact.vertices))
        assert approx.weight <= 2 * exact.weight
        assert approx.weight == sum(
            (weighted.weights[v] for v in approx.vertices), Fraction(0)
        )


def test_exact_is_minimum_weight():
    rng = random.Random(31)
    for i, inst in enumerate(reduced_corpus(15, seed=211, n_lo=5, n_hi=8)):
        weighted = random_weights(inst, seed=950 + i)
        exact = fvs_exact(weighted)
        n = weighted.graph.n
        # brute force over all subsets
        best = None
        for mask in range(1 << n):
            sub = {v for v in range(n) if mask >> v & 1}
            if is_acyclic(weighted.graph, sub):
                w = sum((weighted.weights[v] for v in sub), Fraction(0))
                if best is None or w < best:
                    best = w
        assert exact.weight == best


def test_forest_needs_no_feedback():
    from trackpaths.graph import Graph, Instance

    inst = Instance(Graph(4, [(0, 1), (1, 2), (2, 3)]), 0, 3)
    assert fvs_2approx(inst).vertices == frozenset()
    assert fvs_exact(inst).vertices == frozenset()


def test_exact_size_cap():
    from trackpaths.graph import CapExceededError, Graph, Instance

    g = Graph(20, [(i, (i + 1) % 20) for i in range(20)])
    with pytest.raises(CapExceededError):
        fvs_exact(Instance(g, 0, 10), max_n=10)


def test_exact_with_zero_weights_matches_the_sorted_subset_scan():
    from trackpaths.graph import Instance

    for i, inst in enumerate(reduced_corpus(30, seed=221, n_lo=5, n_hi=9)):
        rng = random.Random(960 + i)
        w = tuple(rng.choice((0, 1, 2, 3)) for _ in range(inst.graph.n))
        weighted = Instance(inst.graph, inst.s, inst.t, w)
        exact = fvs_exact(weighted)
        want = brute_min_subset(
            range(inst.graph.n), w, lambda sub: is_acyclic(weighted.graph, sub)
        )
        assert tuple(sorted(exact.vertices)) == want
        assert exact.weight == sum(w[v] for v in want)
