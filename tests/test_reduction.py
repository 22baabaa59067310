"""Reduction rules 1-3: spec anchor cases, traces, transfer, idempotence."""

import random
from itertools import combinations

import networkx as nx
import pytest

from conftest import c4_instance, reduced_corpus, theta_instance
from trackpaths import approx, eptas, exact, kernel, reduction
from trackpaths.generators import grid
from trackpaths.graph import Graph, Instance, connected_components
from trackpaths.paths import reachable, simple_st_paths
from trackpaths.reduction import (
    is_reduced,
    is_rule1_reduced,
    lift_trackers,
    reduce_all,
    rule1,
    rule2,
    rule3,
)
from trackpaths.verify import verify_by_paths


def test_rule1_removes_pendant():
    # path s-a-t with pendant c on a
    g = Graph(4, [(0, 1), (1, 2), (1, 3)])
    reduced, trace = rule1(Instance(g, 0, 2))
    assert reduced.graph.n == 3
    assert trace.applied_rules[0][0] == "rule1"


def test_rule1_keeps_four_cycle():
    inst = c4_instance()
    reduced, trace = rule1(inst)
    assert reduced.graph == inst.graph
    assert trace.applied_rules == ()


def test_rule1_drops_hanging_triangle():
    # 4-cycle s-a-t-b plus triangle a-x-y-a joined at cut vertex a
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 1)])
    reduced, _ = rule1(Instance(g, 0, 2))
    assert reduced.graph.n == 4
    assert reduced.graph.m == 4


def test_rule1_infeasible_instance_errors():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        rule1(Instance(g, 0, 3))


def _glued_blocks(rng, n):
    """Random cycles, cliques and bridges glued at random vertices, leaving
    some vertices in components of their own."""
    edges = set()
    for _ in range(rng.randrange(1, 4)):
        k = rng.randrange(2, min(n, 5) + 1)
        vs = rng.sample(range(n), k)
        if k == 2:
            edges.add(tuple(vs))
        elif rng.random() < 0.5:
            edges.update(zip(vs, vs[1:] + vs[:1]))
        else:
            edges.update(combinations(vs, 2))
    return edges


def test_rule1_keeps_exactly_the_edges_of_simple_st_paths():
    rng = random.Random(1973)
    seen = {"s_or_t_cut": 0, "bridge": 0, "pendant_block": 0, "off_component": 0, "no_path": 0}
    for _ in range(400):
        n = rng.randrange(3, 10)
        if rng.random() < 0.5:
            p = rng.choice([0.2, 0.3, 0.45, 0.6])
            edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        else:
            edges = _glued_blocks(rng, n)
        s, t = rng.sample(range(n), 2)
        g = Graph(n, edges)
        inst = Instance(g, s, t)
        if t not in reachable(g, s, set(range(n))):
            seen["no_path"] += 1
            with pytest.raises(ValueError):
                rule1(inst)
            with pytest.raises(ValueError):
                is_rule1_reduced(inst)
            continue
        want = set()
        for path in simple_st_paths(g, s, t):
            want.update((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))
        reduced, trace = rule1(inst)
        old = [min(o) for o in trace.origin_map]
        got = {(min(old[a], old[b]), max(old[a], old[b])) for a, b in reduced.graph.edges}
        assert got == want, (n, sorted(edges), s, t)
        assert (old[reduced.s], old[reduced.t]) == (s, t)
        kept = {s, t} | {v for e in want for v in e}
        assert set(old) == kept
        assert is_rule1_reduced(inst) == (kept == set(range(n)) and want == g.edges)
        assert is_rule1_reduced(reduced)
        # tally the shapes the corpus must cover
        seen["s_or_t_cut"] += bool({s, t} & set(nx.articulation_points(nx.Graph(g.edges))))
        seen["bridge"] += any(
            t not in reachable(Graph(n, g.edges - {e}), s, set(range(n))) for e in want
        )
        seen["pendant_block"] += any(e not in want and set(e) & kept for e in g.edges)
        seen["off_component"] += any(
            not comp & {s, t} for comp in connected_components(g)
        )
    assert all(count >= 10 for count in seen.values()), seen


def test_rule2_relabels_terminals_inward():
    # chain s-x-a-t-y: s and y degree 1
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    reduced, trace = rule2(Instance(g, 0, 4))
    assert trace.relabeled_s != 0 or trace.relabeled_t != 4
    s, t = reduced.s, reduced.t
    g2 = reduced.graph
    assert g2.degree(s) >= 2 or g2.adjacency[s] == (t,) or g2.n == 2


def test_rule2_single_edge_unchanged():
    inst = Instance(Graph(2, [(0, 1)]), 0, 1)
    reduced, trace = rule2(inst)
    assert reduced.graph == inst.graph
    assert trace.applied_rules == ()


def test_rule3_contracts_six_cycle_to_four_cycle():
    # 6-cycle s-a-b-t-c-d-s
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    inst = Instance(g, 0, 3)
    reduced, trace = rule3(inst)
    assert reduced.graph.n == 4
    assert reduced.graph.m == 4
    merged = [o for o in trace.origin_map if len(o) >= 2]
    assert len(merged) == 2


def test_rule3_keeps_four_cycle_and_triangle():
    for inst in (c4_instance(), Instance(Graph(3, [(0, 1), (1, 2), (2, 0)]), 0, 2)):
        reduced, trace = rule3(inst)
        assert reduced.graph == inst.graph


def test_reduce_all_theta_fixpoint_and_idempotent():
    inst = theta_instance()
    reduced, trace = reduce_all(inst)
    assert reduced.graph == inst.graph
    assert is_reduced(inst)
    again, _ = reduce_all(reduced)
    assert again.graph == reduced.graph


def test_reduce_all_six_cycle_traces_merges():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    reduced, trace = reduce_all(Instance(g, 0, 3))
    assert reduced.graph.n == 4
    lifted = lift_trackers(trace, {v for v in range(4) if len(trace.origin_map[v]) >= 2})
    assert len(lifted) == 2


def test_lift_trackers_identity_and_errors():
    # the trace of an instance that is already reduced is the identity
    _, trace = reduce_all(c4_instance())
    assert lift_trackers(trace, {1}) == {1}
    assert lift_trackers(trace, set()) == set()
    with pytest.raises(ValueError):
        lift_trackers(trace, {9})


def test_trace_origin_sets_disjoint_and_degree2_paths():
    for inst in reduced_corpus(20, seed=21, n_lo=6, n_hi=12):
        # re-reduce an unreduced parent: stretch one edge into a long path
        g = inst.graph
        u, v = sorted(g.edges)[0]
        n = g.n
        edges = (set(g.edges) - {(u, v)}) | {(u, n), (n, n + 1), (n + 1, v)}
        parent = Instance(Graph(n + 2, edges), inst.s, inst.t)
        reduced, trace = reduce_all(parent)
        seen = set()
        for origin in trace.origin_map:
            assert origin and not (origin & seen)
            seen |= origin
            if len(origin) >= 2:
                assert all(parent.graph.degree(x) == 2 for x in origin)


def test_solution_transfer_small_corpus():
    for i, inst in enumerate(reduced_corpus(25, seed=31, n_lo=5, n_hi=10)):
        g = inst.graph
        u, v = sorted(g.edges)[0]
        n = g.n
        edges = (set(g.edges) - {(u, v)}) | {(u, n), (n, n + 1), (n + 1, v)}
        parent = Instance(Graph(n + 2, edges), inst.s, inst.t)
        reduced, trace = reduce_all(parent)
        # the full vertex set of the kernel always tracks; lift and verify
        kernel_trackers = set(range(reduced.graph.n))
        lifted = lift_trackers(trace, kernel_trackers)
        assert verify_by_paths(parent, lifted).valid


def _random_order_fixpoint(instance, rng):
    current = instance
    rules = [rule1, rule2, rule3]
    stall = 0
    while stall < len(rules):
        rule = rules[rng.randrange(3)]
        nxt, _ = rule(current)
        if (nxt.graph, nxt.s, nxt.t) == (current.graph, current.s, current.t):
            stall += 1
        else:
            stall = 0
        current = nxt
    # confirm a true fixpoint of all three rules
    for rule in rules:
        nxt, _ = rule(current)
        if (nxt.graph, nxt.s, nxt.t) != (current.graph, current.s, current.t):
            return _random_order_fixpoint(nxt, rng)
    return current


def test_rule_order_insensitive_kernel_size():
    rng = random.Random(77)
    for inst in reduced_corpus(10, seed=41, n_lo=5, n_hi=9):
        g = inst.graph
        u, v = sorted(g.edges)[0]
        n = g.n
        edges = (set(g.edges) - {(u, v)}) | {(u, n), (n, n + 1), (n + 1, v)}
        parent = Instance(Graph(n + 2, edges), inst.s, inst.t)
        baseline, _ = reduce_all(parent)
        for _ in range(3):
            shuffled = _random_order_fixpoint(parent, rng)
            assert shuffled.graph.n == baseline.graph.n


def _reduced_by_fixpoint(inst):
    """The reference definition: Rules 1-3 leave the instance as it is."""
    reduced, _ = reduce_all(inst)
    return (reduced.graph, reduced.s, reduced.t) == (inst.graph, inst.s, inst.t)


def test_is_reduced_matches_the_fixpoint_definition():
    rng = random.Random(606)
    seen = {
        "reduced": 0, "unreduced": 0, "no_path": 0, "single_edge": 0,
        "degree1_terminal": 0, "adjacent_degree2": 0, "off_path_pendant": 0,
    }
    for i in range(300):
        n = rng.randrange(2, 10)
        if i % 3 == 0:
            # a cycle or path through every vertex, with a few chords
            order = rng.sample(range(n), n)
            edges = set(zip(order, order[1:]))
            if n > 2 and rng.random() < 0.6:
                edges.add((order[-1], order[0]))
            edges |= {tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(3))}
        else:
            p = rng.choice([0.2, 0.35, 0.5, 0.7])
            edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
        s, t = rng.sample(range(n), 2)
        inst = Instance(Graph(n, edges), s, t)
        if t not in reachable(inst.graph, s, set(range(n))):
            seen["no_path"] += 1
            with pytest.raises(ValueError):
                is_reduced(inst)
            continue
        if i % 2:
            inst, _ = reduce_all(inst)
        g, s, t = inst.graph, inst.s, inst.t
        inner = {v for v in range(g.n) if v not in (s, t) and g.degree(v) == 2}
        seen["single_edge"] += g.n == 2
        seen["degree1_terminal"] += any(
            g.adjacency[a] != (b,) and g.degree(a) == 1 for a, b in ((s, t), (t, s))
        )
        seen["adjacent_degree2"] += any(u in inner and v in inner for u, v in g.edges)
        seen["off_path_pendant"] += any(g.degree(v) == 1 for v in range(g.n) if v not in (s, t))
        want = _reduced_by_fixpoint(inst)
        assert is_reduced(inst) == want, (sorted(g.edges), s, t)
        seen["reduced" if want else "unreduced"] += 1
    assert seen["reduced"] >= 20 and seen["unreduced"] >= 20, seen
    assert all(count >= 1 for count in seen.values()), seen


def test_rule_log_holds_original_ids():
    # pendants 0 and 3 (Rule 1), terminal 1 hanging from 2 (Rule 2), and the
    # degree-2 pair 4-5 on the path 2-4-5-7 (Rule 3): every rule runs on a
    # graph that an earlier rule has already shrunk
    g = Graph(8, [(0, 2), (1, 2), (2, 4), (4, 5), (5, 7), (2, 6), (6, 7), (3, 7)])
    reduced, trace = reduce_all(Instance(g, 1, 7))
    assert trace.applied_rules == (
        ("rule1", ((0, 3), ((0, 2), (3, 7)))),
        ("rule2", ((1,),)),
        ("rule3", (((4, 5),),)),
    )
    assert trace.origin_map == tuple(map(frozenset, ([2], [4, 5], [6], [7])))
    assert (trace.relabeled_s, trace.relabeled_t) == (2, 7)
    assert (reduced.graph.n, reduced.graph.m, reduced.s, reduced.t) == (4, 4, 0, 3)


def _chain_with_pendants(blocks=4):
    """s hangs from a chain of 6-cycles, each with a pendant path of two
    vertices: every rule has work to do."""
    edges, n = [(0, 1)], 2  # s = 0 hangs from the first cut vertex 1
    cut = 1
    for _ in range(blocks):
        x, y, nxt, z, w, p1, p2 = range(n, n + 7)
        n += 7
        edges += [(cut, x), (x, y), (y, nxt), (nxt, z), (z, w), (w, cut), (x, p1), (p1, p2)]
        cut = nxt
    return Instance(Graph(n, edges), 0, cut, declared_class="planar")


def test_one_reduction_per_solve(monkeypatch):
    calls = []  # (rule, instance)
    real = {"reduce_all": reduction.reduce_all, "rule1": reduction.rule1}

    def counter(rule):
        def counted(instance):
            calls.append((rule, instance))
            return real[rule](instance)

        return counted

    for mod in (approx, eptas, kernel, reduction):
        monkeypatch.setattr(mod, "reduce_all", counter("reduce_all"))
    for mod in (exact, reduction):
        monkeypatch.setattr(mod, "rule1", counter("rule1"))
    for inst in (grid(5, 5, perturb=2, seed=3), _chain_with_pendants()):
        solves = {
            "greedy": lambda: approx.approx_logn_weighted(inst),
            "bg": lambda: approx.approx_logopt_unweighted(inst),
            "eptas": lambda: eptas.eptas_solve(inst, r=9),
            "kernelize": lambda: kernel.kernelize(inst, 3),
            # exact searches the Rule-1 kernel: one rule1 call, no reduce_all
            "exact": lambda: exact.exact_tracking_set(inst, max_n=inst.graph.n),
        }
        for name, solve in solves.items():
            calls.clear()
            solve()
            rule = "rule1" if name == "exact" else "reduce_all"
            assert [r for r, _ in calls] == [rule], name
        reduced, _ = real["reduce_all"](inst)
        assert not is_reduced(inst) and is_reduced(reduced)
        calls.clear()
        is_reduced(inst)
        kernel.lower_bound_maxdeg(reduced)
        kernel.check_size_bounds(reduced, 2)
        assert calls == []
