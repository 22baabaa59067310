"""Set cover and hitting set: ratio guarantees, reproducibility, errors."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from trackpaths.cover import (
    SetSystem,
    UncoverableError,
    VCConfig,
    bg_hitting_set,
    greedy_weighted_set_cover,
    min_weight_hitting_set,
)
from conftest import brute_min_subset


def _system(universe, named_sets):
    return SetSystem.build(universe, [(i, s, w) for i, (s, w) in enumerate(named_sets)])


def test_greedy_prefers_density():
    sys_ = _system(
        range(4),
        [({0, 1, 2, 3}, 3), ({0, 1}, 1), ({2, 3}, 1)],
    )
    chosen, total = greedy_weighted_set_cover(sys_)
    assert sorted(chosen) == [1, 2]
    assert total == Fraction(2)


def test_greedy_uncoverable_raises():
    with pytest.raises(UncoverableError):
        greedy_weighted_set_cover(_system(range(3), [({0, 1}, 1)]))


def test_greedy_handles_zero_weight():
    sys_ = _system(range(3), [({0, 1, 2}, 0), ({0}, 1)])
    chosen, total = greedy_weighted_set_cover(sys_)
    assert chosen == [0] and total == 0


def _min_cover_weight(universe, named_sets):
    best = None
    ids = range(len(named_sets))
    for r in range(len(named_sets) + 1):
        for combo in combinations(ids, r):
            covered = set().union(*(named_sets[i][0] for i in combo)) if combo else set()
            if covered >= set(universe):
                w = sum(named_sets[i][1] for i in combo)
                best = w if best is None or w < best else best
    return best


def test_greedy_harmonic_ratio_on_random_systems():
    rng = random.Random(41)
    for _ in range(120):
        n = rng.randrange(3, 9)
        k = rng.randrange(2, 7)
        named = []
        for _ in range(k):
            size = rng.randrange(1, n + 1)
            named.append((set(rng.sample(range(n), size)), rng.randrange(1, 8)))
        universe = sorted(set().union(*(s for s, _ in named)))
        sys_ = _system(universe, named)
        chosen, total = greedy_weighted_set_cover(sys_)
        covered = set().union(*(named[i][0] for i in chosen))
        assert covered >= set(universe)
        opt = _min_cover_weight(universe, named)
        m = max(len(s) for s, _ in named)
        assert total <= (1 + math.log(m)) * opt + 1e-9


def test_bg_hits_every_range():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randrange(4, 10)
        ranges = []
        for _ in range(rng.randrange(2, 8)):
            ranges.append(set(rng.sample(range(n), rng.randrange(1, n))))
        hitters = bg_hitting_set(range(n), ranges)
        for r in ranges:
            assert set(r) & hitters


def test_bg_seed_reproducibility():
    ranges = [{0, 1}, {1, 2}, {3}, {0, 4}, {2, 4}]
    a = bg_hitting_set(range(5), ranges, VCConfig(rng_seed=7))
    b = bg_hitting_set(range(5), ranges, VCConfig(rng_seed=7))
    c = bg_hitting_set(range(5), ranges, VCConfig(rng_seed=8))
    assert a == b
    for r in ranges:
        assert r & c


def test_bg_rejects_bad_ranges():
    with pytest.raises(ValueError):
        bg_hitting_set(range(3), [set()])
    with pytest.raises(ValueError):
        bg_hitting_set(range(3), [{5}])


def test_vcconfig_validation():
    with pytest.raises(ValueError):
        VCConfig(d=0)


def test_setsystem_stats():
    sys_ = _system(range(4), [({0, 1, 2}, 1), ({2}, 1)])
    assert sys_.M == 3
    assert sys_.freq == 2
    assert sys_.uncovered_elements() == [3]


def test_min_weight_hitting_set_matches_the_sorted_subset_scan():
    rng = random.Random(404)
    ties = 0
    for trial in range(400):
        n = rng.randrange(0, 11)
        universe = rng.sample(range(14), n)
        weights = {v: rng.choice((0, 1, 2, 3)) for v in range(14)}
        ranges = [
            frozenset(rng.sample(universe, rng.randrange(1, n + 1)))
            for _ in range(rng.randrange(0, 9) if n else 0)
        ]
        calls = []

        def violated(chosen):
            calls.append(chosen)
            assert chosen == sorted(chosen)
            missed = [r for r in ranges if not r & set(chosen)]
            return missed[: rng.randrange(1, 3)]  # the engine sees ranges lazily

        got = min_weight_hitting_set(universe, weights, violated)
        want = brute_min_subset(universe, weights, lambda sub: all(sub & r for r in ranges))
        assert tuple(got) == want
        assert calls[-1] == got
        opt = sum(weights[v] for v in want)
        sizes = {
            k
            for k in range(n + 1)
            for sub in combinations(universe, k)
            if sum(weights[v] for v in sub) == opt and all(set(sub) & r for r in ranges)
        }
        ties += len(sizes) > 1
    assert ties >= 40  # equal-weight answers of different sizes


def test_min_weight_hitting_set_prefers_the_smaller_tuple_at_equal_weight():
    # (0, 1) and (1,) both weigh 1; (0, 1) comes first
    assert min_weight_hitting_set([0, 1], {0: 0, 1: 1}, lambda ch: [] if 1 in ch else [{1}]) == [0, 1]
    # fractional weights: 1/2 + 1/3 < 1
    weights = {0: 1, 1: Fraction(1, 2), 2: Fraction(1, 3)}
    ranges = [{0, 1}, {0, 2}]
    got = min_weight_hitting_set(
        range(3), weights, lambda ch: [r for r in ranges if not r & set(ch)]
    )
    assert got == [1, 2]


def test_min_weight_hitting_set_rejects_a_range_the_candidate_hits():
    with pytest.raises(ValueError):
        min_weight_hitting_set([0, 1], [1, 1], lambda ch: [{0, 1}])
