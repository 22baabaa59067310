"""Span tracer for the traced run.

Wraps the package's public functions at every module binding through which
the pipeline calls them (the defining module and every module that imported
the name), records one span per call while an op is active, and keeps the
spans in memory.  A span is (function index, start, end, parent span index,
op id); span 0 of each op is the op itself.  Self time is a span's duration
minus the time its child spans cover; the op span's self time is the part of
the op no wrapped function accounts for.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

TRACED = (
    "reduction.reduce_all",
    "reduction.rule1",
    "reduction.is_rule1_reduced",
    "reduction.lift_trackers",
    "paths.edge_on_st_path",
    "kernel.instance_lower_bound",
    "kernel.lower_bound_maxdeg",
    "kernel.kernelize",
    "graph.block_chain",
    "fvs.fvs_2approx",
    "cycles.enumerate_cf",
    "cycles.expand_entry_exit",
    "verify.cycle_entry_exit_pairs",
    "verify.untracked_pair",
    "verify.verify_by_cycles",
    "verify.verify_by_paths",
    "disjoint.two_disjoint_paths",
    "cover.greedy_weighted_set_cover",
    "cover.bg_hitting_set",
    "approx.approx_logn_weighted",
    "approx.approx_logopt_unweighted",
    "rdivision.relaxed_r_division",
    "eptas.eptas_solve",
    "eptas.region_opt",
    "eptas.pi_subgraph",
    "exact.exact_tracking_set",
)
OP = "op"  # name of the root span of every op


class Tracer:
    def __init__(self):
        self.names = [OP]
        self.spans: list = []
        self.stack: list[int] = []
        self.op = None  # id of the running op; None = not recording
        self.op_input = None
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []

    def install(self) -> None:
        from trackpaths.graph import CapExceededError

        self.cap_error = CapExceededError
        hooks = {
            "reduction.reduce_all": self._on_reduce_all,
            "cycles.enumerate_cf": self._count_len("cycles.cycles", "cycles"),
            "cycles.expand_entry_exit": self._count_len("cycles.eecs", "eecs"),
            "rdivision.relaxed_r_division": self._on_rdivision,
            "cover.bg_hitting_set": self._on_bg,
        }
        modules = [m for k, m in sys.modules.items() if k == "trackpaths" or k.startswith("trackpaths.")]
        for dotted in TRACED:
            mod_name, fn_name = dotted.split(".")
            home = sys.modules.get(f"trackpaths.{mod_name}")
            orig = getattr(home, fn_name, None) if home is not None else None
            if orig is None:
                self.absent.append(dotted)  # deleted by a later change
                continue
            wrapper = self._wrap(dotted, orig, hooks.get(dotted))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def _wrap(self, dotted, fn, hook):
        idx = len(self.names)
        self.names.append(dotted)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            me = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(me)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except self.cap_error:
                self.counts[dotted + ".cap_raised"] += 1
                raise
            finally:
                spans[me] = (idx, t0, clock(), parent, self.op)
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def run_op(self, op_id, op_input, call):
        """Run ``call()`` as op ``op_id`` under a root span; re-raises."""
        me = len(self.spans)
        self.spans.append(None)
        self.stack.append(me)
        self.op, self.op_input = op_id, op_input
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            self.spans[me] = (0, t0, time.perf_counter(), -1, op_id)
            self.stack.pop()
            self.op = self.op_input = None

    # --- counters recorded at the same boundaries -------------------------

    def _count_len(self, key, attr):
        def hook(args, result):
            self.counts[key] += len(getattr(result, attr))

        return hook

    def _on_reduce_all(self, args, result):
        if args[0] is self.op_input:  # the op's own input, not a re-reduction
            self.counts["reduction.kernel_n"] += result[0].graph.n
            self.counts["reduction.input_n"] += args[0].graph.n

    def _on_rdivision(self, args, result):
        self.counts["rdivision.relaxed_r_division.B"] += result.B
        self.counts["rdivision.relaxed_r_division.regions"] += len(result.regions)

    def _on_bg(self, args, result):
        self.counts["cover.bg_hitters"] += len(result)
        self.counts["cover.bg_candidates"] += len(args[0])

    # --- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls and self seconds, root-span totals, counters,
        and the number of ops that called reduce_all at least once."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        reducing = set()
        op_wall = 0.0
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            dotted = self.names[name]
            calls[dotted] += 1
            self_s[dotted] += (t1 - t0) - child[i]
            if name == 0:
                op_wall += t1 - t0
            elif dotted == "reduction.reduce_all":
                reducing.add(op)
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "op_wall": op_wall,
            "counts": dict(self.counts),
            "ops_reducing": len(reducing),
            "absent": self.absent,
        }

    def dump(self, path) -> None:
        """Write the spans as tab-separated lines (name, start, end, parent, op)."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{self.names[name]}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{op}\n")
