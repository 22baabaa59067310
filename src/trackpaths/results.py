"""Common result record for all solvers, and the one solve front end.

Every method solves on a kernel and lifts the answer back.  A set tracks a
Rule-1-reduced kernel iff it tracks every block of the kernel's s-t chain,
each block entered and left at its cut vertices, so validity is decided
block by block, on the blocks whose pair-oracle caches the solve has filled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from trackpaths.graph import ChainComponent, Instance, NoPathError, block_chain
from trackpaths.kernel import maxdeg_bound
from trackpaths.reduction import lift_trackers
from trackpaths.verify import untracked_cycles


@dataclass(frozen=True)
class SolveResult:
    trackers: frozenset[int]  # original-graph vertex ids
    total_weight: Fraction
    lower_bound: int
    method: str
    valid: bool
    stats: dict = field(default_factory=dict, compare=False)


def solve_on_chain(instance: Instance, method: str, reduce, core) -> SolveResult:
    """``reduce(instance)`` once, one walk of the kernel's s-t chain, and
    ``core(kernel, chain, lb, stats)`` for the kernel trackers when the
    kernel is more than the single edge s-t.

    The lower bound is the max-degree bound over the chain's non-cut
    vertices.  ``stats`` gets the core's own counts plus ``kernel_n`` (0 when
    t is unreachable) and ``seconds``.
    """
    t0 = time.perf_counter()
    stats: dict = {}
    lb, valid, trackers = 0, True, set()
    try:
        kernel, trace = reduce(instance)
    except NoPathError:  # no path to tell apart: the empty set tracks them all
        stats["kernel_n"] = 0
    else:
        chain = block_chain(kernel)
        lb = maxdeg_bound(kernel.graph, chain.cut_vertices)
        stats["kernel_n"] = kernel.graph.n
        kernel_trackers = core(kernel, chain, lb, stats) if kernel.graph.n > 2 else set()
        valid = all(_tracks_block(comp, kernel_trackers) for comp in chain.components)
        trackers = lift_trackers(trace, kernel_trackers)
    stats["seconds"] = time.perf_counter() - t0
    return SolveResult(
        frozenset(trackers), instance.weight_of(trackers), lb, method, valid, stats
    )


def _tracks_block(comp: ChainComponent, trackers: set[int]) -> bool:
    """Whether the kernel trackers that fall in the block track it: no cycle
    of the block is left untracked.  The block's instance is Rule-1-reduced
    by construction, and its pair oracle reuses the answers the solve cached."""
    local = [i for i, v in enumerate(comp.to_parent) if v in trackers]
    return next(untracked_cycles(comp.instance, local), None) is None
