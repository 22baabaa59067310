"""Entry-exit semantics and the two verifiers: spec anchors and properties."""

import random
import sys
from collections import Counter
from itertools import combinations, permutations

import pytest

from conftest import brute_connection, c4_instance, k4_instance, reduced_corpus, theta_instance
from trackpaths import verify
from trackpaths.cycles import enumerate_cf, simple_cycles
from trackpaths.disjoint import two_disjoint_paths
from trackpaths.fvs import fvs_2approx
from trackpaths.generators import grid
from trackpaths.graph import CapExceededError, Graph, Instance, NotReducedError
from trackpaths.paths import reachable
from trackpaths.reduction import reduce_all
from trackpaths.verify import (
    EntryExitCycle,
    VerifyReport,
    canonical_cycle,
    cycle_entry_exit_pairs,
    entry_exit_pairs,
    is_tracked,
    untracked_cycles,
    untracked_pair,
    verify_by_cycles,
    verify_by_paths,
)


def test_entry_exit_cycle_validation():
    with pytest.raises(ValueError):
        EntryExitCycle((0, 1, 2), 1, 1)
    with pytest.raises(ValueError):
        EntryExitCycle((0, 1, 2), 0, 5)
    with pytest.raises(ValueError):
        EntryExitCycle((0, 1), 0, 1)


def test_verify_report_witness_discipline():
    with pytest.raises(ValueError):
        VerifyReport(True, EntryExitCycle((0, 1, 2), 0, 1))
    with pytest.raises(ValueError):
        VerifyReport(False, None)


def test_canonical_cycle_rotation_and_orientation():
    assert canonical_cycle([2, 3, 1, 0]) == canonical_cycle([0, 1, 3, 2])
    c = canonical_cycle([4, 2, 7, 5])
    assert c[0] == 2 and c[1] < c[-1]


def test_c4_whole_cycle_pairs():
    inst = c4_instance()  # s=0, t=2
    assert entry_exit_pairs(inst, [0, 1, 2, 3]) == [(0, 2)]


def test_theta_cycle_pairs():
    inst = theta_instance()  # s=0, t=4
    assert entry_exit_pairs(inst, [0, 1, 4, 2]) == [(0, 4)]


def test_single_edge_on_path_graph_pairs():
    # path 0-1-2-3; subgraph = edge (1,2); order fixed by the s side
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    inst = Instance(g, 0, 3)
    assert entry_exit_pairs(inst, [1, 2], sub_edges=[(1, 2)]) == [(1, 2)]


def test_entry_exit_pairs_requires_edges():
    with pytest.raises(ValueError):
        entry_exit_pairs(c4_instance(), [0, 2])


def test_is_tracked_examples():
    eec = EntryExitCycle((0, 1, 2, 3), 0, 2)
    assert is_tracked(eec, {1})
    assert not is_tracked(eec, {0, 2})
    assert not is_tracked(eec, set())


def test_verify_by_paths_examples():
    inst = c4_instance()
    assert verify_by_paths(inst, {1}).valid
    rep = verify_by_paths(inst, set())
    assert not rep.valid and isinstance(rep.witness, tuple)
    single = Instance(Graph(2, [(0, 1)]), 0, 1)
    assert verify_by_paths(single, set()).valid


def test_verify_by_paths_cap():
    g = Graph(12, [(u, v) for u in range(12) for v in range(u + 1, 12)])
    with pytest.raises(CapExceededError):
        verify_by_paths(Instance(g, 0, 11), set(range(12)), cap=50)


def test_verify_by_cycles_examples():
    inst = c4_instance()
    assert verify_by_cycles(inst, {1}).valid
    rep = verify_by_cycles(inst, {0})
    assert not rep.valid
    assert rep.witness == EntryExitCycle((0, 1, 2, 3), 0, 2)
    assert verify_by_cycles(k4_instance(), {1, 2}).valid


def test_verify_by_cycles_requires_rule1_reduced():
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])  # pendant off the s-t path
    with pytest.raises(NotReducedError):
        verify_by_cycles(Instance(g, 0, 2), {1})


def test_every_cycle_of_reduced_instance_has_a_pair():
    from trackpaths.cycles import simple_cycles

    for inst in reduced_corpus(15, seed=51, n_lo=5, n_hi=9):
        for cyc in simple_cycles(inst.graph)[:12]:
            assert cycle_entry_exit_pairs(inst, cyc), (inst.graph, cyc)


def test_trivially_tracked_three_tracker_cycles():
    rng = random.Random(9)
    for inst in reduced_corpus(10, seed=61, n_lo=6, n_hi=9):
        from trackpaths.cycles import simple_cycles

        for cyc in simple_cycles(inst.graph):
            if len(cyc) < 3:
                continue
            trackers = set(rng.sample(list(cyc), 3)) if len(cyc) >= 3 else set(cyc)
            for sp, tp in cycle_entry_exit_pairs(inst, cyc):
                assert is_tracked(EntryExitCycle(cyc, sp, tp), trackers)
            assert untracked_pair(inst, cyc, trackers) is None


def test_untracked_pair_matches_full_expansion():
    for inst in reduced_corpus(20, seed=71, n_lo=5, n_hi=9):
        from trackpaths.cycles import simple_cycles

        rng = random.Random(inst.graph.n)
        for cyc in simple_cycles(inst.graph)[:8]:
            pool = list(range(inst.graph.n))
            trackers = set(rng.sample(pool, min(2, len(pool))))
            pairs = cycle_entry_exit_pairs(inst, cyc)
            expect = [
                (sp, tp)
                for sp, tp in pairs
                if not is_tracked(EntryExitCycle(cyc, sp, tp), trackers)
            ]
            got = untracked_pair(inst, cyc, trackers)
            assert (got is None) == (not expect)
            if got is not None:
                assert got in pairs and got in expect


def _oracle_corpus():
    """Every simple cycle of 200 seeded reduced graphs with n <= 9."""
    for inst in reduced_corpus(200, seed=505, n_lo=4, n_hi=9):
        for cyc in simple_cycles(inst.graph):
            yield inst, cyc


def _separates(inst: Instance, cyc) -> bool:
    g, s, t = inst.graph, inst.s, inst.t
    rest = set(range(g.n)) - set(cyc)
    return s in rest and t in rest and t not in reachable(g, s, rest)


def test_pair_oracle_matches_path_enumeration(monkeypatch):
    searched = []  # answers of the induced DFS rung
    search = verify._connection_search

    def recording(*args):
        found = search(*args)
        searched.append(found)
        return found

    monkeypatch.setattr(verify, "_connection_search", recording)
    rng = random.Random(505)
    through_st = separating = 0
    for inst, cyc in _oracle_corpus():
        vs = sorted(cyc)
        want = [(a, b) for a in vs for b in vs if a != b and brute_connection(inst, cyc, a, b)]
        assert entry_exit_pairs(inst, cyc) == want, (inst.graph.edges, inst.s, inst.t, cyc)
        # a fresh instance, so that untracked_pair finds no cached answer
        fresh = Instance(inst.graph, inst.s, inst.t)
        trackers = set(rng.sample(vs, rng.randrange(4)))
        expect = min(
            (p for p in want if not is_tracked(EntryExitCycle(cyc, *p), trackers)),
            default=None,
        )
        assert untracked_pair(fresh, cyc, trackers) == expect, (inst.graph.edges, cyc, trackers)
        through_st += inst.s in cyc or inst.t in cyc
        separating += _separates(inst, cyc)
    assert through_st >= 20 and separating >= 20, (through_st, separating)
    assert searched.count(False) >= 20, searched.count(False)


def test_connection_search_skips_separating_cycles_and_side_rejects(monkeypatch):
    calls = []
    search = verify._connection_search

    def counting(graph, s, t, sp, tp, allowed1, allowed2):
        calls.append((sp, tp))
        return search(graph, s, t, sp, tp, allowed1, allowed2)

    monkeypatch.setattr(verify, "_connection_search", counting)
    searched = separating = rejected = 0
    for inst, cyc in _oracle_corpus():
        g, s, t = inst.graph, inst.s, inst.t
        calls.clear()
        entry_exit_pairs(inst, cyc)
        searched += len(calls)
        if _separates(inst, cyc):
            assert not calls, (g.edges, cyc, calls)
            separating += 1
        rest = set(range(g.n)) - set(cyc)
        r1, r2 = reachable(g, s, rest - {t}), reachable(g, t, rest - {s})
        for sp in cyc:
            for tp in cyc:
                if sp == tp or s in cyc or t in cyc:
                    continue
                if r1.isdisjoint(g.adjacency[sp]) or r2.isdisjoint(g.adjacency[tp]):
                    assert (sp, tp) not in calls, (g.edges, cyc, sp, tp)
                    rejected += 1
    assert searched >= 20 and separating >= 20 and rejected >= 20, (searched, separating, rejected)


def test_untracked_cycles_yields_sound_ranges():
    rng = random.Random(509)
    free = listed = valid = 0
    for inst in reduced_corpus(150, seed=509, n_lo=4, n_hi=9):
        g, n = inst.graph, inst.graph.n
        trackers = set(rng.sample(range(n), rng.randrange(n)))
        found = list(untracked_cycles(inst, trackers))
        for w in found:
            cyc = list(w.cycle)
            assert len(set(cyc)) == len(cyc) >= 3
            assert all(g.has_edge(u, v) for u, v in zip(cyc, cyc[1:] + cyc[:1]))
            assert not (set(cyc) - {w.entry, w.exit}) & trackers, (g.edges, w, trackers)
            assert brute_connection(inst, cyc, w.entry, w.exit), (g.edges, w)
            untracked = [
                (a, b) for a in sorted(cyc) for b in sorted(cyc)
                if a != b and not (set(cyc) - {a, b}) & trackers
            ]
            assert (w.entry, w.exit) == min(
                p for p in untracked if brute_connection(inst, cyc, *p)
            ), (g.edges, w, trackers)
        assert (not found) == verify_by_paths(inst, trackers).valid, (g.edges, trackers)
        valid += not found
        if found and not set(found[0].cycle) & trackers:
            free += 1
            assert len(found) == 1
        else:
            listed += len(found)
    assert free >= 30 and listed >= 100 and valid >= 10, (free, listed, valid)


def test_untracked_cycles_refuses_a_cycle_without_a_pair():
    # path s-a-t with a triangle a-b-c hanging off a: no pair of the triangle
    # is feasible, which Rule 1 would have removed
    inst = Instance(Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 1)]), 0, 2)
    with pytest.raises(NotReducedError):
        list(untracked_cycles(inst, set()))


def test_pair_oracle_needs_no_recursion_on_a_long_ladder():
    # a 1100 x 2 ladder with s and t on its first rung: the only feasible
    # pair of the last square takes an induced path of 1,099 vertices
    limit = sys.getrecursionlimit()
    inst = Instance(grid(1100, 2).graph, 0, 1100)
    assert cycle_entry_exit_pairs(inst, (1098, 1099, 2199, 2198)) == ((1098, 2198),)
    assert sys.getrecursionlimit() == limit


def _grid_kernel(seed: int) -> Instance:
    return reduce_all(grid(5, 5, perturb=4, seed=seed))[0]


def _fvs_cycles(inst: Instance):
    return enumerate_cf(inst, fvs_2approx(inst).vertices).cycles


def _open_pairs(inst: Instance, cyc):
    """The pairs of a cycle avoiding s and t that pass side reject and are
    not apart-accepted: those the probes or the DFS decide."""
    g, s, t = inst.graph, inst.s, inst.t
    if s in cyc or t in cyc:
        return []
    rest = set(range(g.n)) - set(cyc)
    r1, r2 = reachable(g, s, rest - {t}), reachable(g, t, rest - {s})
    if r1.isdisjoint(r2):
        return []
    return [
        (sp, tp)
        for sp, tp in permutations(cyc, 2)
        if not r1.isdisjoint(g.adjacency[sp]) and not r2.isdisjoint(g.adjacency[tp])
    ]


def test_pair_oracle_matches_the_exact_program_on_larger_kernels(monkeypatch):
    # the kernels of four perturbed 5x5 grids and two reduced ER-16 draws,
    # where the probes share their paths and the DFS keeps witnesses
    searched = []  # answers of the induced DFS rung
    search = verify._connection_search

    def recording(*args):
        found = search(*args)
        searched.append(found)
        return found

    monkeypatch.setattr(verify, "_connection_search", recording)
    kernels = [_grid_kernel(seed) for seed in range(4)]
    kernels += reduced_corpus(2, seed=514, n_lo=16, n_hi=16, p=0.3)
    terminal = exact = 0
    for inst in kernels:
        g, s, t = inst.graph, inst.s, inst.t
        for cyc in _fvs_cycles(inst):
            got = set(entry_exit_pairs(inst, cyc))
            rest = set(range(g.n)) - set(cyc)
            for sp, tp in permutations(cyc, 2):
                if sp == s and t not in cyc:
                    want = t in reachable(g, tp, rest | {tp})
                    terminal += 1
                elif tp == t and s not in cyc:
                    want = sp in reachable(g, s, rest | {sp})
                    terminal += 1
                else:
                    continue
                assert ((sp, tp) in got) == want, (g.edges, s, t, cyc, sp, tp)
            for sp, tp in _open_pairs(inst, cyc):
                want = two_disjoint_paths(g, s, sp, tp, t, (rest - {t}) | {sp}, (rest - {s}) | {tp})
                assert ((sp, tp) in got) == want, (g.edges, s, t, cyc, sp, tp)
                exact += 1
    assert terminal >= 500 and exact >= 1000, (terminal, exact)
    assert searched.count(False) >= 100, Counter(searched)


# cycles of the plain 8x8 grid, ids row-major, each with a pair that only the
# induced DFS decides and whose search enters more than 20,000 paths
_DEEP_PAIRS = [
    ((10, 11, 12, 13, 21, 29, 28, 27, 26, 18), (12, 11)),
    ((12, 13, 14, 15, 23, 31, 39, 47, 46, 45, 44, 36, 28, 20), (47, 46)),
    ((3, 4, 12, 20, 28, 36, 44, 52, 51, 43, 35, 27, 19, 11), (4, 12)),
    ((24, 25, 26, 27, 28, 29, 30, 38, 37, 36, 35, 34, 33, 32), (32, 33)),
]


def test_pair_oracle_runs_deep_searches_to_the_end(monkeypatch):
    searched = []  # the pairs that reached the induced DFS
    search = verify._connection_search

    def recording(graph, s, t, sp, tp, allowed1, allowed2):
        searched.append((sp, tp))
        return search(graph, s, t, sp, tp, allowed1, allowed2)

    monkeypatch.setattr(verify, "_connection_search", recording)
    inst = reduce_all(grid(8, 8))[0]
    g, s, t = inst.graph, inst.s, inst.t
    for cyc, (sp, tp) in _DEEP_PAIRS:
        searched.clear()
        # no cap or budget: the search answers, and raises no CapExceededError
        got = entry_exit_pairs(Instance(g, s, t), cyc)
        assert (sp, tp) in searched, (cyc, sp, tp)
        rest = set(range(g.n)) - set(cyc)
        want = two_disjoint_paths(g, s, sp, tp, t, (rest - {t}) | {sp}, (rest - {s}) | {tp})
        assert ((sp, tp) in got) == want, (cyc, sp, tp)


def _terminal_cycles(inst: Instance):
    """FVS-family cycles through exactly one of s and t."""
    return [c for c in _fvs_cycles(inst) if (inst.s in c) != (inst.t in c)]


def test_cycles_through_s_or_t_are_answered_from_the_sides(monkeypatch):
    calls = []

    def counting(graph, src, allowed):
        calls.append(src)
        return reachable(graph, src, allowed)

    monkeypatch.setattr(verify, "reachable", counting)
    inst = _grid_kernel(0)
    cycles = _terminal_cycles(inst)
    assert len(cycles) >= 10 and max(map(len, cycles)) >= 8, cycles
    for cyc in cycles:
        calls.clear()
        assert entry_exit_pairs(Instance(inst.graph, inst.s, inst.t), cyc)
        assert len(calls) <= 2, (cyc, calls)


def test_probe_paths_run_once_per_endpoint(monkeypatch):
    probes = []  # (src, dst) of every shortest path; the DFS is stubbed out
    path = verify._shortest_path

    def recording(graph, src, dst, *args):
        probes.append((src, dst))
        return path(graph, src, dst, *args)

    monkeypatch.setattr(verify, "_shortest_path", recording)
    monkeypatch.setattr(verify, "_connection_search", lambda *args: False)
    inst = _grid_kernel(0)
    probed = shared = 0
    for cyc in _fvs_cycles(inst):
        probes.clear()
        entry_exit_pairs(Instance(inst.graph, inst.s, inst.t), cyc)
        counts = Counter(probes)
        assert all(n == 1 for n in counts.values()), (cyc, counts)
        assert all(src == inst.s or dst == inst.t for src, dst in counts), (cyc, counts)
        pairs = len(_open_pairs(inst, cyc))
        probed += len(probes)
        shared += len(probes) < pairs
    assert probed >= 100 and shared >= 20, (probed, shared)
