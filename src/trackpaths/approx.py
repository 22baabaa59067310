"""The two general-graph approximation pipelines.

Both run through ``results.solve_on_chain``: each block of the kernel's s-t
chain is solved on its own, with its cut vertices as its s and t, and the
answer is the union of the per-block solutions.  The weighted pipeline covers
the entry-exit cycle family with a greedy weighted set cover; the unweighted
pipeline hits the dual family with the bounded-VC iterative-reweighting
scheme.
"""

from __future__ import annotations

from trackpaths.cover import SetSystem, VCConfig, bg_hitting_set, greedy_weighted_set_cover
from trackpaths.cycles import enumerate_cf, expand_entry_exit
from trackpaths.fvs import fvs_2approx
from trackpaths.graph import BlockChain, Instance
from trackpaths.reduction import reduce_all
from trackpaths.results import SolveResult, solve_on_chain


def _per_block(instance: Instance, method: str, key: str, cover) -> SolveResult:
    """Rules 1-3, then per block of the chain a 2-approximate feedback vertex
    set plus ``cover(sub, family, lb)``, the trackers for the block's
    entry-exit cycle family; ``stats[key]`` counts the cover's vertices."""

    def core(kernel: Instance, chain: BlockChain, lb: int, stats: dict) -> set[int]:
        stats.update({"fvs": 0, "cycles": 0, key: 0})
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
        return trackers

    return solve_on_chain(instance, method, reduce_all, core)


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
