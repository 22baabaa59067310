"""Acceptance gate: eleven oracle-anchored criteria, one printed line each.

Each test prints "[criterion NN] name: PASS" or ": FAIL" so the suite output
doubles as a checklist.  Corpora are seeded and shared across criteria.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import networkx as nx
import pytest

from conftest import c4_instance, k4_instance, planar_corpus, reduced_corpus, theta_instance
from trackpaths.approx import approx_logn_weighted, approx_logopt_unweighted
from trackpaths.cover import VCConfig, bg_hitting_set, greedy_weighted_set_cover
from trackpaths.cycles import enumerate_cf, expand_entry_exit, simple_cycles
from trackpaths.eptas import eptas_division, eptas_solve, solve_region
from trackpaths.exact import exact_tracking_set
from trackpaths.fvs import fvs_2approx, fvs_exact
from trackpaths.generators import grid, random_reduced
from trackpaths.graph import Graph, Instance
from trackpaths.io import reconstruct_path
from trackpaths.kernel import kernelize
from trackpaths.paths import simple_st_paths
from trackpaths.rdivision import relaxed_r_division
from trackpaths.reduction import is_reduced, lift_trackers, reduce_all
from trackpaths.verify import verify_by_cycles, verify_by_paths


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {name}: {verdict}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@lru_cache(maxsize=None)
def _mixed_corpus(count: int, seed: int, n_lo: int, n_hi: int):
    """Seeded reduced instances with sizes spread over [n_lo, n_hi]."""
    rng = random.Random(seed)
    out = []
    attempt = 0
    while len(out) < count and attempt < 200 * count:
        n = rng.randrange(n_lo, n_hi + 1)
        inst = random_reduced(n, rng.choice([0.3, 0.4, 0.5]), seed * 77_777 + attempt)
        attempt += 1
        if inst is not None and inst.graph.n <= n_hi:
            out.append(inst)
    assert len(out) == count
    return tuple(out)


@lru_cache(maxsize=None)
def _oracle_opt(instance: Instance):
    return exact_tracking_set(instance)


def _exhaustive_small_family(max_n: int = 7, per_n: int = 30):
    """Reduced instances on <= max_n vertices, distinct up to labelled-(s,t)
    isomorphism, gathered by seeded sampling."""
    found = {}
    for n in range(3, max_n + 1):
        rng = random.Random(1000 + n)
        for _ in range(600):
            p = rng.choice([0.35, 0.5, 0.65])
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < p
            ]
            try:
                inst = Instance(Graph(n, edges), 0, n - 1)
            except ValueError:
                continue
            try:
                if not is_reduced(inst):
                    continue
            except Exception:
                continue
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(edges)
            labels = {v: "stv"[0 if v == 0 else (1 if v == n - 1 else 2)] for v in h}
            nx.set_node_attributes(h, labels, "role")
            key = (n, nx.weisfeiler_lehman_graph_hash(h, node_attr="role"))
            if key not in found:
                found[key] = inst
            if sum(1 for k in found if k[0] == n) >= per_n:
                break
    return list(found.values())


def test_criterion_01_verifier_equivalence():
    instances = _exhaustive_small_family()
    rng = random.Random(4242)
    collected = 0
    attempt = 0
    while collected < 500 and attempt < 100_000:
        inst = random_reduced(rng.randrange(4, 11), 0.4, 4_000_000 + attempt * 17)
        attempt += 1
        if inst is None or inst.graph.n > 10:
            continue
        instances.append(inst)
        collected += 1
    assert collected == 500
    disagreements = 0
    checked = 0
    for inst in instances:
        verts = range(inst.graph.n)
        subsets = [()]
        for k in (1, 2, 3):
            subsets.extend(combinations(verts, k))
        for sub in subsets:
            a = verify_by_paths(inst, set(sub)).valid
            b = verify_by_cycles(inst, set(sub)).valid
            checked += 1
            if a != b:
                disagreements += 1
    _report(
        1,
        "verifier equivalence",
        disagreements == 0,
        f"{checked} comparisons over {len(instances)} instances, {disagreements} disagreements",
    )


def _stretched_parent(inst: Instance) -> Instance:
    g = inst.graph
    u, v = sorted(g.edges)[0]
    n = g.n
    edges = (set(g.edges) - {(u, v)}) | {(u, n), (n, n + 1), (n + 1, v)}
    return Instance(Graph(n + 2, edges), inst.s, inst.t)


def test_criterion_02_solution_transfer():
    failures = 0
    for inst in _mixed_corpus(200, seed=2, n_lo=5, n_hi=10):
        parent = _stretched_parent(inst)  # parent has n+2 <= 12 vertices
        reduced, trace = reduce_all(parent)
        solution = set(_oracle_opt(reduced).trackers)
        lifted = lift_trackers(trace, solution)
        if not verify_by_paths(parent, lifted).valid:
            failures += 1
            continue
        opt = len(_oracle_opt(reduced).trackers)
        for k in range(5):
            out = kernelize(parent, k)
            truth = opt <= k
            if out.decision == "trivial_no":
                if truth:
                    failures += 1
            else:
                kopt = len(_oracle_opt(out.kernel_instance).trackers)
                if (kopt <= k) != truth:
                    failures += 1
    _report(2, "solution transfer through reduction", failures == 0, f"{failures} failures")


def test_criterion_03_quadratic_kernel_bounds():
    violations = 0
    applicable = 0
    for inst in _mixed_corpus(150, seed=3, n_lo=5, n_hi=12):
        opt = len(_oracle_opt(inst).trackers)
        if opt < 1:
            continue
        applicable += 1
        g = inst.graph
        if g.n > 4 * opt * opt + 9 * opt - 5 or g.m > 5 * opt * opt + 11 * opt - 6:
            violations += 1
    _report(
        3,
        "quadratic kernel bounds",
        violations == 0 and applicable > 0,
        f"{applicable} applicable instances, {violations} violations",
    )


def test_criterion_04_planar_linear_kernel_bound():
    violations = 0
    applicable = 0
    cases = []
    for seed in range(13):
        for w, h in [(3, 2), (3, 3), (4, 2), (4, 3)]:
            for perturb in (0, 1):
                cases.append((w, h, perturb, seed))
    for w, h, perturb, seed in cases[:100]:
        base = grid(w, h, perturb=perturb, seed=seed)
        reduced, _ = reduce_all(base)
        if reduced.graph.n == 2:
            continue
        reduced = Instance(reduced.graph, reduced.s, reduced.t,
                           declared_class="planar")
        opt = len(_oracle_opt(reduced).trackers)
        if opt < 1:
            continue
        applicable += 1
        g = reduced.graph
        if g.n > 169 * opt - 5 or g.m > 213 * opt - 6:
            violations += 1
    _report(
        4,
        "planar linear kernel bound",
        violations == 0 and applicable >= 50,
        f"{applicable} applicable instances, {violations} violations",
    )


def test_criterion_05_approximation_feasibility_and_envelope():
    rng = random.Random(55)
    failures = 0
    envelope_violations = 0
    corpus = _mixed_corpus(270, seed=5, n_lo=5, n_hi=12) + _mixed_corpus(
        30, seed=55, n_lo=13, n_hi=14
    )
    for i, inst in enumerate(corpus):
        w = tuple(rng.randrange(1, 8) for _ in range(inst.graph.n))
        weighted = Instance(inst.graph, inst.s, inst.t, w)
        res_w = approx_logn_weighted(weighted)
        res_u = approx_logopt_unweighted(inst)
        if not (res_w.valid and res_u.valid):
            failures += 1
            continue
        opt_weight = _oracle_opt(weighted).total_weight
        cycles = max(1, res_w.stats.get("cycles", 1))
        bound = Fraction(3) + Fraction(math.log(cycles)).limit_denominator(10**6)
        if res_w.total_weight > bound * opt_weight and opt_weight > 0:
            envelope_violations += 1
        if opt_weight == 0 and res_w.total_weight > 0:
            envelope_violations += 1
    _report(
        5,
        "approximation feasibility and envelope",
        failures == 0 and envelope_violations == 0,
        f"{len(corpus)} instances, {failures} invalid, {envelope_violations} envelope violations",
    )


def test_criterion_06_fvs_and_greedy_cover_ratios():
    rng = random.Random(66)
    fvs_violations = 0
    for i, inst in enumerate(_mixed_corpus(300, seed=6, n_lo=5, n_hi=12)):
        w = tuple(rng.randrange(1, 10) for _ in range(inst.graph.n))
        weighted = Instance(inst.graph, inst.s, inst.t, w)
        if fvs_2approx(weighted).weight > 2 * fvs_exact(weighted).weight:
            fvs_violations += 1
    cover_violations = 0
    from trackpaths.cover import SetSystem

    for trial in range(300):
        srng = random.Random(6000 + trial)
        n = srng.randrange(3, 9)
        k = srng.randrange(2, 7)
        named = [
            (set(srng.sample(range(n), srng.randrange(1, n + 1))), srng.randrange(1, 8))
            for _ in range(k)
        ]
        universe = sorted(set().union(*(s for s, _ in named)))
        system = SetSystem.build(
            universe, [(i, s, w) for i, (s, w) in enumerate(named)]
        )
        chosen, total = greedy_weighted_set_cover(system)
        best = None
        for r in range(k + 1):
            for combo in combinations(range(k), r):
                covered = set().union(*(named[i][0] for i in combo)) if combo else set()
                if covered >= set(universe):
                    wsum = sum(named[i][1] for i in combo)
                    best = wsum if best is None or wsum < best else best
        m = max(len(s) for s, _ in named)
        if total > (1 + math.log(m)) * best + 1e-9:
            cover_violations += 1
    _report(
        6,
        "FVS 2-approximation and greedy cover ratio",
        fvs_violations == 0 and cover_violations == 0,
        f"{fvs_violations} FVS violations, {cover_violations} cover violations",
    )


def test_criterion_07_cycle_family_oracle_equivalence():
    mismatches = 0
    bound_violations = 0
    for inst in _mixed_corpus(500, seed=7, n_lo=5, n_hi=10):
        f = fvs_2approx(inst).vertices
        fam = expand_entry_exit(inst, enumerate_cf(inst, f))
        brute = {c for c in simple_cycles(inst.graph) if 1 <= len(set(c) & f) <= 2}
        if set(fam.cycles) != brute:
            mismatches += 1
        n = inst.graph.n
        if len(fam.eecs) > n * n * len(fam.cycles):
            bound_violations += 1
    _report(
        7,
        "cycle-family oracle equivalence",
        mismatches == 0 and bound_violations == 0,
        f"{mismatches} set mismatches, {bound_violations} bound violations",
    )


def test_criterion_08_r_division_invariants():
    violations = 0
    for side in (6, 8, 10):
        g = grid(side, side).graph
        assert g.n == side * side
        for r in (9, 16, 25):
            div = relaxed_r_division(g, r)
            covered = set()
            for region in div.regions:
                if len(region.vertices) > r:
                    violations += 1
                if covered & region.edges:
                    violations += 1
                covered |= region.edges
            if covered != set(g.edges):
                violations += 1
            if div.B > 16 * g.n / math.sqrt(r):
                violations += 1
    _report(8, "r-division invariants", violations == 0, f"{violations} violations")


def test_criterion_09_eptas_feasibility_and_neighborhood_bound():
    invalid = 0
    nbhd_violations = 0
    single_region_mismatch = 0
    for inst in planar_corpus():
        r = 9 if inst.graph.n <= 25 else 16
        res = eptas_solve(inst, r=r)
        if not res.valid:
            invalid += 1
        kernel, division = eptas_division(inst, r)
        for region in division.regions:
            sol = solve_region(kernel, region)
            if len(sol.nbhd) > 108 * len(sol.pi_boundary):
                nbhd_violations += 1
        # single-region divisions must reproduce the exact oracle
        if 2 < kernel.graph.n <= 14:  # keep the brute-force oracle tractable
            whole = eptas_division(inst, max(3, kernel.graph.n + kernel.graph.m))
            if len(whole[1].regions) == 1:
                res1 = eptas_solve(inst, r=max(3, kernel.graph.n + kernel.graph.m))
                if len(res1.trackers) != len(_oracle_opt(inst).trackers):
                    single_region_mismatch += 1
    _report(
        9,
        "separator-scheme feasibility and neighborhood bound",
        invalid == 0 and nbhd_violations == 0 and single_region_mismatch == 0,
        f"{len(planar_corpus())} instances, {invalid} invalid, "
        f"{nbhd_violations} neighborhood violations, {single_region_mismatch} oracle mismatches",
    )


def test_criterion_10_bg_hitting_set_verified_and_reproducible():
    misses = 0
    nondeterministic = 0
    for trial in range(200):
        rng = random.Random(10_000 + trial)
        n = rng.randrange(4, 12)
        ranges = [
            frozenset(rng.sample(range(n), rng.randrange(1, n)))
            for _ in range(rng.randrange(2, 9))
        ]
        cfg = VCConfig(rng_seed=trial)
        hit = bg_hitting_set(range(n), ranges, cfg)
        if any(not (r & hit) for r in ranges):
            misses += 1
        if bg_hitting_set(range(n), ranges, cfg) != hit:
            nondeterministic += 1
    # ranges drawn from the instance corpus: cycle minus its entry-exit pair
    for inst in _mixed_corpus(60, seed=10, n_lo=5, n_hi=10):
        f = fvs_2approx(inst).vertices
        fam = expand_entry_exit(inst, enumerate_cf(inst, f))
        ranges = [
            frozenset(set(eec.cycle) - {eec.entry, eec.exit}) for eec in fam.eecs
        ]
        ranges = [r for r in ranges if r]
        if not ranges:
            continue
        universe = sorted(set().union(*ranges))
        hit = bg_hitting_set(universe, ranges)
        if any(not (r & hit) for r in ranges):
            misses += 1
        if bg_hitting_set(universe, ranges) != hit:
            nondeterministic += 1
    _report(
        10,
        "epsilon-net hitting set verification and reproducibility",
        misses == 0 and nondeterministic == 0,
        f"{misses} unhit ranges, {nondeterministic} nondeterministic reruns",
    )


def test_criterion_11_reconstruction_round_trip():
    failures = 0
    paths_checked = 0
    instances = list(_mixed_corpus(40, seed=11, n_lo=5, n_hi=10))
    instances += [c4_instance(), theta_instance(), k4_instance()]
    for inst in instances:
        trackers = set(_oracle_opt(inst).trackers)
        for path in simple_st_paths(inst.graph, inst.s, inst.t, cap=100_000):
            sig = [v for v in path if v in trackers]
            got = reconstruct_path(inst, trackers, sig)
            paths_checked += 1
            if got != list(path):
                failures += 1
    _report(
        11,
        "reconstruction round trip",
        failures == 0,
        f"{paths_checked} paths, {failures} failures",
    )
