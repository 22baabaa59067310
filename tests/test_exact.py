"""Exact solver and decision procedure."""

import random
from fractions import Fraction

import pytest

from conftest import (
    brute_min_subset,
    c4_instance,
    k4_instance,
    random_weights,
    reduced_corpus,
    single_edge_instance,
    theta_instance,
)
from trackpaths.exact import exact_decision, exact_tracking_set
from trackpaths.graph import CapExceededError, Graph, Instance, NoPathError
from trackpaths.kernel import instance_lower_bound
from trackpaths.verify import verify_by_paths


def test_known_optima():
    assert exact_tracking_set(c4_instance()).trackers == frozenset({1})
    assert len(exact_tracking_set(theta_instance()).trackers) == 2
    assert len(exact_tracking_set(k4_instance()).trackers) == 2
    assert exact_tracking_set(single_edge_instance()).trackers == frozenset()


def test_result_fields():
    res = exact_tracking_set(c4_instance())
    assert res.method == "exact"
    assert res.valid
    assert res.total_weight == Fraction(1)
    assert res.lower_bound <= len(res.trackers)


def test_optimal_against_verifier_scan():
    for inst in reduced_corpus(20, seed=501, n_lo=5, n_hi=8):
        res = exact_tracking_set(inst)
        assert verify_by_paths(inst, set(res.trackers)).valid
        k = len(res.trackers)
        # no smaller set can verify
        from itertools import combinations

        if k > 0:
            smaller_ok = any(
                verify_by_paths(inst, set(sub)).valid
                for sub in combinations(range(inst.graph.n), k - 1)
            )
            assert not smaller_ok


def test_weighted_exact_prefers_light_vertices():
    # theta with one expensive hub candidate: optimum avoids it
    inst = theta_instance()
    w = [1, 10, 1, 1, 1]
    weighted = Instance(inst.graph, inst.s, inst.t, tuple(w))
    res = exact_tracking_set(weighted)
    assert 1 not in res.trackers
    assert res.total_weight == 2


def test_decision_monotone_in_k():
    for inst in reduced_corpus(15, seed=511, n_lo=5, n_hi=9):
        answers = [exact_decision(inst, k) for k in range(5)]
        for lo, hi in zip(answers, answers[1:]):
            assert not (lo and not hi)
        opt = len(exact_tracking_set(inst).trackers)
        for k, ans in enumerate(answers):
            assert ans == (opt <= k)


def test_decision_without_an_st_path_is_yes():
    # the empty set tracks an instance with no s-t path
    inst = Instance(Graph(4, [(0, 1), (2, 3)]), 0, 3)
    assert all(exact_decision(inst, k) for k in range(4))
    assert not exact_decision(inst, -1)


def test_lower_bound_is_the_rule1_chain_bound():
    # on reduced inputs it is the max-degree bound of the Rules 1-3 kernel
    for inst in reduced_corpus(30, seed=531, n_lo=5, n_hi=12):
        assert exact_tracking_set(inst).lower_bound == instance_lower_bound(inst)
    # on the Rule-1 kernel a terminal hanging by one edge still stands and its
    # neighbour is a cut vertex, so the bound can fall below the Rules 1-3
    # one; it never exceeds the optimum
    below = 0
    for i in range(60):
        rng = random.Random(9100 + i)
        n = rng.randrange(5, 11)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        hub = max(range(n), key=Graph(n, edges).degree)
        inst = Instance(Graph(n + 1, [*edges, (hub, n)]), n, (hub + 1) % n)  # s hangs from hub
        res = exact_tracking_set(inst)
        assert res.lower_bound <= len(res.trackers)
        try:
            full = instance_lower_bound(inst)
        except NoPathError:
            continue
        assert res.lower_bound <= full
        below += res.lower_bound < full
    assert below > 0


def test_size_cap():
    n = 24
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    big = Instance(Graph(n, edges), 0, 12)
    with pytest.raises(CapExceededError):
        exact_tracking_set(big, max_n=10)


def test_weighted_optimum_with_zero_weights_matches_the_sorted_subset_scan():
    zero_in_answer = 0
    for i, inst in enumerate(reduced_corpus(25, seed=521, n_lo=5, n_hi=8)):
        rng = random.Random(7000 + i)
        w = tuple(rng.choice((0, 1, 2, 3)) for _ in range(inst.graph.n))
        weighted = Instance(inst.graph, inst.s, inst.t, w)
        res = exact_tracking_set(weighted)
        want = brute_min_subset(
            range(inst.graph.n), w, lambda sub: verify_by_paths(weighted, sub).valid
        )
        assert tuple(sorted(res.trackers)) == want
        assert res.total_weight == sum(w[v] for v in want)
        zero_in_answer += any(w[v] == 0 for v in want)
    assert zero_in_answer > 0


def test_grid_6x3_is_solved_without_listing_subsets():
    import tracemalloc

    from trackpaths.generators import grid

    tracemalloc.start()
    try:
        res = exact_tracking_set(grid(6, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # listing and sorting all 2^18 subsets peaked at about 76 MB
    assert peak < 10_000_000
    assert sorted(res.trackers) == [1, 3, 5, 7, 8, 9, 10, 12, 14, 16]
