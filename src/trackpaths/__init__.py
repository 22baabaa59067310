"""Tracking-paths toolkit.

Find a smallest (or lightest) set of tracker vertices so that the ordered
subsequence of trackers visited by any simple s-t path identifies the path
uniquely.  The package provides reduction rules, kernelization with explicit
size checks, an exact solver, greedy and epsilon-net based approximations for
general graphs, a separator-based scheme for planar-declared graphs, and two
independent verifiers.
"""

from trackpaths.approx import approx_logn_weighted, approx_logopt_unweighted
from trackpaths.cover import SetSystem, VCConfig, bg_hitting_set, greedy_weighted_set_cover
from trackpaths.cycles import CycleFamily, enumerate_cf, expand_entry_exit
from trackpaths.disjoint import two_disjoint_paths
from trackpaths.eptas import eptas_solve
from trackpaths.exact import exact_decision, exact_tracking_set
from trackpaths.fvs import fvs_2approx, fvs_exact
from trackpaths.graph import Graph, Instance
from trackpaths.io import parse_instance, reconstruct_path, render_instance
from trackpaths.kernel import check_size_bounds, kernelize, lower_bound_maxdeg
from trackpaths.rdivision import balanced_separator, relaxed_r_division
from trackpaths.reduction import lift_trackers, reduce_all
from trackpaths.results import SolveResult
from trackpaths.verify import (
    entry_exit_pairs,
    verify_by_cycles,
    verify_by_paths,
)

__all__ = [
    "Graph",
    "Instance",
    "SolveResult",
    "SetSystem",
    "VCConfig",
    "CycleFamily",
    "reduce_all",
    "lift_trackers",
    "verify_by_paths",
    "verify_by_cycles",
    "entry_exit_pairs",
    "two_disjoint_paths",
    "enumerate_cf",
    "expand_entry_exit",
    "fvs_2approx",
    "fvs_exact",
    "greedy_weighted_set_cover",
    "bg_hitting_set",
    "approx_logn_weighted",
    "approx_logopt_unweighted",
    "kernelize",
    "lower_bound_maxdeg",
    "check_size_bounds",
    "balanced_separator",
    "relaxed_r_division",
    "eptas_solve",
    "exact_tracking_set",
    "exact_decision",
    "parse_instance",
    "render_instance",
    "reconstruct_path",
]
