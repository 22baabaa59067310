"""Separator-based approximation scheme for planar-declared instances.

Four steps: reduce to a kernel, take a relaxed r-division, solve each region
exactly for the entry-exit cycles contained in it, and glue with the region
boundaries plus the neighborhood N(R) of the boundary of the path-union
subgraph Pi(R).  Feasibility is always re-verified; the (1+eps) ratio is
reported against the oracle where the oracle is affordable, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from trackpaths.cover import min_weight_hitting_set
from trackpaths.graph import BlockChain, CapExceededError, Graph, Instance, norm_edge
from trackpaths.kernel import SigmaConfig
from trackpaths.paths import st_path_edges
from trackpaths.rdivision import RDivision, Region, relaxed_r_division
from trackpaths.reduction import reduce_all
from trackpaths.results import SolveResult, solve_on_chain
from trackpaths.verify import untracked_ranges

DEFAULT_REGION_CAP = 22


@dataclass(frozen=True)
class RegionSolution:
    region: Region
    opt_r: frozenset[int]
    pi_vertices: frozenset[int]
    pi_edges: frozenset[tuple[int, int]]
    pi_boundary: frozenset[int]  # boundary of Pi(R) = region boundary on Pi
    nbhd: frozenset[int]  # N(R): Pi-neighbors of the Pi boundary


def region_opt(
    instance: Instance, region: Region, cap: int = DEFAULT_REGION_CAP
) -> set[int]:
    """Minimum-cardinality set tracking every in-region entry-exit cycle,
    ties broken by lexicographically smallest set.

    ``cover.min_weight_hitting_set`` gets its constraints from
    ``verify.untracked_cycles`` on the region's own graph: every region cycle
    a candidate leaves untracked adds the range of its vertices other than its
    pair, which any tracking set hits.  No region lists its cycles.
    """
    if len(region.vertices) > cap:
        raise CapExceededError(
            f"region has {len(region.vertices)} vertices, cap is {cap}; "
            "use a smaller r"
        )
    violated = untracked_ranges(instance, Graph(instance.graph.n, region.edges))
    return set(min_weight_hitting_set(region.vertices, dict.fromkeys(region.vertices, 1), violated))


def pi_subgraph(
    instance: Instance, region: Region, opt_r: set[int]
) -> tuple[frozenset[int], frozenset[tuple[int, int]]]:
    """Union of boundary-to-boundary region paths of length >= 2 avoiding
    opt_r on internal vertices, as (vertices, edges)."""
    pi_v: set[int] = set()
    pi_e: set[tuple[int, int]] = set()
    boundary = sorted(region.boundary)
    for b1, b2 in combinations(boundary, 2):
        # drop the direct edge: a simple b1-b2 path either is that edge
        # (length 1, excluded) or never uses it
        gw = Graph(instance.graph.n, region.edges - {norm_edge(b1, b2)})
        allowed = set(region.vertices) - (set(opt_r) - {b1, b2})
        edges = st_path_edges(gw, b1, b2, allowed)
        pi_e |= edges
        for e in edges:
            pi_v.update(e)
    return frozenset(pi_v), frozenset(pi_e)


def solve_region(
    instance: Instance, region: Region, cap: int = DEFAULT_REGION_CAP
) -> RegionSolution:
    opt_r = region_opt(instance, region, cap)
    pi_v, pi_e = pi_subgraph(instance, region, opt_r)
    pi_boundary = frozenset(region.boundary & pi_v)
    return RegionSolution(
        region, frozenset(opt_r), pi_v, pi_e, pi_boundary,
        boundary_neighborhood_of(pi_e, pi_boundary),
    )


def boundary_neighborhood_of(
    pi_edges: frozenset[tuple[int, int]], pi_boundary: frozenset[int]
) -> frozenset[int]:
    """Neighbors, within Pi(R), of Pi(R)'s boundary vertices."""
    out: set[int] = set()
    for u, v in pi_edges:
        if u in pi_boundary:
            out.add(v)
        if v in pi_boundary:
            out.add(u)
    return frozenset(out)


def eps_to_r(eps, cfg: SigmaConfig = SigmaConfig()) -> int:
    """The r prescribed for a target eps (astronomical for realistic eps)."""
    from fractions import Fraction

    value = 2 * cfg.c1 * cfg.c2 * (cfg.c3 + 1) / Fraction(eps)
    return math.ceil(value * value)


def eptas_solve(
    instance: Instance,
    r: int | None = None,
    eps=None,
    cfg: SigmaConfig = SigmaConfig(),
    region_cap: int = DEFAULT_REGION_CAP,
) -> SolveResult:
    """Kernel, r-division, per-region optima, and the boundary gluing step."""
    if instance.declared_class != "planar":
        raise ValueError("the separator scheme requires a planar-declared instance")
    if (r is None) == (eps is None):
        raise ValueError("provide exactly one of r and eps")
    if r is None:
        r = eps_to_r(eps, cfg)
        if r > region_cap:
            raise CapExceededError(
                f"eps implies r={r} beyond the region cap {region_cap}; "
                "pass r explicitly"
            )
    r = max(3, r)

    def core(kernel: Instance, chain: BlockChain, lb: int, stats: dict) -> set[int]:
        division = relaxed_r_division(kernel.graph, r)
        trackers: set[int] = set()
        solutions = []
        for region in division.regions:
            sol = solve_region(kernel, region, cap=region_cap)
            solutions.append(sol)
            trackers |= set(sol.opt_r) | set(region.boundary) | set(sol.nbhd)
        stats.update(
            r=r,
            regions=len(division.regions),
            B=division.B,
            boundary_total=sum(len(s.region.boundary) for s in solutions),
            opt_r_total=sum(len(s.opt_r) for s in solutions),
            nbhd_total=sum(len(s.nbhd) for s in solutions),
        )
        return trackers

    return solve_on_chain(instance, "eptas", reduce_all, core)


def eptas_division(instance: Instance, r: int) -> tuple[Instance, RDivision]:
    """The kernel and its r-division, for inspection and per-region testing."""
    kernel, _ = reduce_all(instance)
    return kernel, relaxed_r_division(kernel.graph, max(3, r))
