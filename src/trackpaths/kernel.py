"""Budgeted kernelization (Rules 4-5), size-bound checkers, and lower bounds.

After exhaustive Rules 1-3, a non-cut vertex of degree more than k+2 or a
graph larger than 4k^2+9k-5 vertices / 5k^2+11k-6 edges certifies a negative
answer to the size-k decision problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from trackpaths.graph import Graph, Instance, NoPathError, NotReducedError, st_blocks
from trackpaths.reduction import ReductionTrace, is_reduced, reduce_all


@dataclass(frozen=True)
class KernelOutcome:
    decision: str  # "kernel" | "trivial_no"
    kernel_instance: Optional[Instance]  # None also when t is unreachable
    trace: Optional[ReductionTrace]  # None when t is unreachable
    k: int
    reason: Optional[str] = None  # rule that rejected, if any


@dataclass(frozen=True)
class SigmaConfig:
    """Sparsity constant for the declared minor-free class and derived constants."""

    sigma: Fraction = Fraction(3)  # planar
    c1: Fraction = Fraction(283, 100)  # separator quality, advisory only
    c2: Optional[Fraction] = None
    c3: Optional[Fraction] = None

    def __post_init__(self):
        if self.c2 is None:
            object.__setattr__(self, "c2", 16 * self.sigma**2 + 8 * self.sigma + 1)
        if self.c3 is None:
            object.__setattr__(self, "c3", 9 * self.sigma**2 + 3 * self.sigma)
        if self.c2 < 16 * self.sigma**2 + 8 * self.sigma + 1:
            raise ValueError("c2 below the minor-free kernel constant")
        if self.c3 < 9 * self.sigma**2 + 3 * self.sigma:
            raise ValueError("c3 below the boundary-neighborhood constant")


def _cut_vertices(instance: Instance) -> set[int]:
    """The vertices that consecutive blocks of the s-t chain share: on a
    reduced instance, every cut vertex."""
    blocks = st_blocks(instance.graph, instance.s, instance.t)
    return {v for a, b in zip(blocks, blocks[1:]) for v in a & b}


def maxdeg_bound(graph: Graph, cut_vertices: Iterable[int]) -> int:
    """max(0, max degree among the vertices outside ``cut_vertices`` minus 2):
    the lower bound of a reduced instance whose cut vertices those are."""
    cuts = set(cut_vertices)
    degrees = (graph.degree(v) for v in range(graph.n) if v not in cuts)
    return max(0, max(degrees, default=0) - 2)


def lower_bound_maxdeg(instance: Instance) -> int:
    """The max-degree lower bound of a reduced instance."""
    if not is_reduced(instance):
        raise NotReducedError("lower bound requires a fully reduced instance")
    return maxdeg_bound(instance.graph, _cut_vertices(instance))


def instance_lower_bound(instance: Instance) -> int:
    """The max-degree lower bound after reducing an arbitrary instance."""
    reduced, _ = reduce_all(instance)
    return lower_bound_maxdeg(reduced)


def rule4(instance: Instance, k: int) -> bool:
    """True = accept; False = reject (some non-cut vertex of a reduced
    instance has degree > k+2, so the max-degree bound exceeds k)."""
    return maxdeg_bound(instance.graph, _cut_vertices(instance)) <= k


def rule5(instance: Instance, k: int) -> bool:
    """True = accept; False = reject (size beyond the quadratic kernel bounds)."""
    g = instance.graph
    return g.n <= 4 * k * k + 9 * k - 5 and g.m <= 5 * k * k + 11 * k - 6


def kernelize(instance: Instance, k: int) -> KernelOutcome:
    """Rules 1-3 to a fixpoint, then the rejection Rules 4 and 5.  Without
    an s-t path the empty set tracks the instance: a yes-kernel for every
    k >= 0, with no kernel instance."""
    try:
        reduced, trace = reduce_all(instance)
    except NoPathError:
        return KernelOutcome("kernel", None, None, k)
    if reduced.graph.n == 2:  # single edge (s,t): trivially a yes-kernel
        return KernelOutcome("kernel", reduced, trace, k)
    if not rule4(reduced, k):
        return KernelOutcome("trivial_no", None, trace, k, reason="rule4")
    if not rule5(reduced, k):
        return KernelOutcome("trivial_no", None, trace, k, reason="rule5")
    return KernelOutcome("kernel", reduced, trace, k)


@dataclass(frozen=True)
class SizeBoundReport:
    applicable: bool
    quadratic_vertices_ok: Optional[bool] = None
    quadratic_edges_ok: Optional[bool] = None
    linear_vertices_ok: Optional[bool] = None  # minor-free form, planar sigma
    linear_edges_ok: Optional[bool] = None


def check_size_bounds(
    instance: Instance, opt: int, cfg: SigmaConfig = SigmaConfig()
) -> SizeBoundReport:
    """Evaluate the quadratic and (for planar-declared) linear kernel bounds."""
    if not is_reduced(instance):
        raise NotReducedError("size bounds apply to reduced instances")
    if opt < 1:
        return SizeBoundReport(applicable=False)
    g = instance.graph
    qv = g.n <= 4 * opt * opt + 9 * opt - 5
    qe = g.m <= 5 * opt * opt + 11 * opt - 6
    lv = le = None
    if instance.declared_class == "planar":
        s = cfg.sigma
        lv = g.n <= (16 * s * s + 8 * s + 1) * opt - 5
        le = g.m <= (20 * s * s + 11 * s) * opt - 6
    return SizeBoundReport(True, qv, qe, lv, le)
