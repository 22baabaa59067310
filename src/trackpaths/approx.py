"""The two general-graph approximation pipelines.

Both walk the kernel's s-t block chain once.  The chain's cut vertices give
the max-degree lower bound; each block is solved on its own, with its cut
vertices as its s and t, and the answer is the union of the per-block
solutions.  The weighted pipeline covers the entry-exit cycle family with a
greedy weighted set cover; the unweighted pipeline hits the dual family with
the bounded-VC iterative-reweighting scheme.  A set tracks the kernel iff its
restriction tracks every block, so validity is decided block by block, on
the instances whose pair-oracle caches the solve has filled.
"""

from __future__ import annotations

import time

from trackpaths.cover import SetSystem, VCConfig, bg_hitting_set, greedy_weighted_set_cover
from trackpaths.cycles import enumerate_cf, expand_entry_exit
from trackpaths.fvs import fvs_2approx
from trackpaths.graph import ChainComponent, Instance, NoPathError, block_chain
from trackpaths.kernel import maxdeg_bound
from trackpaths.reduction import lift_trackers, reduce_all
from trackpaths.results import SolveResult
from trackpaths.verify import untracked_cycles


def _per_block(instance: Instance, method: str, key: str, cover) -> SolveResult:
    """Rules 1-3, then per block of the chain a 2-approximate feedback vertex
    set plus ``cover(sub, family, lb)``, the trackers for the block's
    entry-exit cycle family; ``stats[key]`` counts the cover's vertices."""
    t0 = time.perf_counter()
    stats = {"fvs": 0, "cycles": 0, key: 0}
    try:
        kernel, trace = reduce_all(instance)
    except NoPathError:  # no path to tell apart: the empty set tracks them all
        return SolveResult(frozenset(), instance.weight_of(()), 0, method, True, stats)
    chain = block_chain(kernel)
    lb = maxdeg_bound(kernel.graph, chain.cut_vertices)
    if kernel.graph.n == 2:
        return SolveResult(frozenset(), instance.weight_of(()), lb, method, True, stats)
    trackers: set[int] = set()
    for comp in chain.components:
        sub = comp.instance
        f = fvs_2approx(sub)
        stats["fvs"] += len(f.vertices)
        if f.vertices:
            # the family is taken against the block's own s-t
            family = expand_entry_exit(sub, enumerate_cf(sub, f.vertices))
            stats["cycles"] += len(family.cycles)
            chosen = cover(sub, family, lb)
            stats[key] += len(chosen)
            trackers.update(comp.to_parent[v] for v in set(f.vertices) | chosen)
    # only after the loop: a later block may choose the cut vertex it shares
    # with an earlier one, and that tracker counts in both
    valid = all(_tracks_block(comp, trackers) for comp in chain.components)
    lifted = lift_trackers(trace, trackers)
    stats["seconds"] = time.perf_counter() - t0
    return SolveResult(
        frozenset(lifted), instance.weight_of(lifted), lb, method, valid, stats
    )


def _tracks_block(comp: ChainComponent, trackers: set[int]) -> bool:
    """Whether the kernel trackers that fall in the block track it: no cycle
    of the block is left untracked.  The block's instance is Rule-1-reduced
    by construction, and its pair oracle reuses the answers the solve cached."""
    local = [i for i, v in enumerate(comp.to_parent) if v in trackers]
    return next(untracked_cycles(comp.instance, local), None) is None


def _candidates(sub: Instance) -> list[int]:
    """The block's own s and t (the chain's cut vertices) track nothing: a
    feasible pair's connection paths avoid the cycle except at the pair, so
    s/t can only appear on a feasible cycle as the pair itself."""
    return [v for v in range(sub.graph.n) if v not in (sub.s, sub.t)]


def _greedy_cover(sub: Instance, family, lb: int) -> set[int]:
    """Greedy weighted cover of the block's entry-exit cycles by vertices."""
    if not family.eecs:
        return set()
    covers: dict[int, list[int]] = {}  # vertex -> indices of the cycles it tracks
    for i, eec in enumerate(family.eecs):
        for v in eec.cycle:
            if v not in (eec.entry, eec.exit):
                covers.setdefault(v, []).append(i)
    sets = [(v, frozenset(covers[v]), sub.weights[v]) for v in _candidates(sub) if v in covers]
    chosen, _ = greedy_weighted_set_cover(SetSystem.build(range(len(family.eecs)), sets))
    return set(chosen)


def approx_logn_weighted(instance: Instance) -> SolveResult:
    """Greedy-cover pipeline: T = greedy cover of the cycle family, plus a
    2-approximate feedback vertex set, solved per block of the chain."""
    return _per_block(instance, "logn", "cover", _greedy_cover)


def approx_logopt_unweighted(instance: Instance, cfg: VCConfig = VCConfig()) -> SolveResult:
    """Dual-hitting pipeline for unit weights: hit every range C minus its
    entry-exit pair, plus a 2-approximate feedback vertex set, per block."""
    if not instance.is_unit_weighted():
        raise ValueError("the dual-hitting pipeline requires unit weights")

    def hit(sub: Instance, family, lb: int) -> set[int]:
        ranges = [frozenset(set(eec.cycle) - {eec.entry, eec.exit}) for eec in family.eecs]
        return bg_hitting_set(_candidates(sub), ranges, cfg, start_guess=max(1, lb))

    return _per_block(instance, "logopt", "hitters", hit)
