"""Command-line surface: reduce, kernel, solve, verify, reconstruct, rdiv,
bench.

Results print as a single JSON object; exit codes are 0 success, 1 a step
met a graph it cannot run on (no s-t path, unreduced or disconnected), 2
parse error, 3 verification failure, 4 cap exceeded.  ``solve`` and
``verify`` need no s-t path: without one the empty set tracks every path.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from typing import Optional

from trackpaths import generators
from trackpaths.approx import approx_logn_weighted, approx_logopt_unweighted
from trackpaths.cover import VCConfig
from trackpaths.eptas import eptas_solve
from trackpaths.exact import exact_tracking_set
from trackpaths.graph import (
    CapExceededError,
    Instance,
    NoPathError,
    NotConnectedError,
    NotReducedError,
)
from trackpaths.io import ParseError, ReconstructionError, parse_instance, reconstruct_path, render_instance
from trackpaths.kernel import kernelize
from trackpaths.rdivision import relaxed_r_division
from trackpaths.reduction import reduce_all, rule1
from trackpaths.results import SolveResult
from trackpaths.verify import EntryExitCycle, VerifyReport, canonical_cycle, verify_by_cycles, verify_by_paths

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_CAP = 4

_PATHS_VERIFIER_MAX_N = 14


def _read_instance(path: str, declared: str) -> Instance:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read(), declared_class=declared)


def _result_json(res: SolveResult) -> str:
    stats = {k: (str(v) if isinstance(v, Fraction) else v) for k, v in res.stats.items()}
    return json.dumps(
        {
            "trackers": sorted(v + 1 for v in res.trackers),
            "size": len(res.trackers),
            "weight": str(res.total_weight),
            "lower_bound": res.lower_bound,
            "method": res.method,
            "valid": res.valid,
            "stats": stats,
        },
        sort_keys=True,
    )


def _parse_ids(text: str) -> list[int]:
    """A comma-separated list of 1-indexed ids, as 0-indexed ids in order."""
    if not text.strip():
        return []
    try:
        ids = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise ParseError(f"bad vertex list {text!r}") from exc
    if any(v < 1 for v in ids):
        raise ParseError("vertex ids are 1-indexed")
    return [v - 1 for v in ids]


def _verify_set(instance: Instance, trackers: set[int]):
    """Paths verifier on small instances, else the cycle verifier on the
    Rule-1 kernel, which keeps every s-t path; a witness comes back in input
    ids."""
    if instance.graph.n <= _PATHS_VERIFIER_MAX_N:
        return verify_by_paths(instance, trackers)
    try:
        reduced, trace = rule1(instance)
    except NoPathError:  # no path to tell apart
        return VerifyReport(True)
    origin = [min(vs) for vs in trace.origin_map]
    report = verify_by_cycles(reduced, {kv for kv, v in enumerate(origin) if v in trackers})
    w = report.witness
    if w is None:
        return report
    cycle = canonical_cycle(origin[v] for v in w.cycle)
    return VerifyReport(False, EntryExitCycle(cycle, origin[w.entry], origin[w.exit]))


def _cmd_reduce(args) -> int:
    inst = _read_instance(args.file, args.declared_class)
    reduced, trace = reduce_all(inst)
    sys.stdout.write(render_instance(reduced))
    sys.stderr.write(
        f"reduced {inst.graph.n}->{reduced.graph.n} vertices, "
        f"{inst.graph.m}->{reduced.graph.m} edges, "
        f"{len(trace.applied_rules)} rule applications\n"
    )
    return EXIT_OK


def _cmd_kernel(args) -> int:
    inst = _read_instance(args.file, args.declared_class)
    outcome = kernelize(inst, args.k)
    payload = {
        "decision": outcome.decision,
        "k": outcome.k,
        "reason": outcome.reason,
        "kernel": render_instance(outcome.kernel_instance)
        if outcome.kernel_instance is not None
        else None,
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = _read_instance(args.file, args.declared_class)
    res = _solve(inst, args.method, r=args.r, eps=args.eps, seed=args.seed)
    print(_result_json(res))
    return EXIT_OK if res.valid else EXIT_INVALID


def _solve(
    inst: Instance,
    method: str,
    r: Optional[int] = None,
    eps: Optional[str] = None,
    seed: int = 0,
) -> SolveResult:
    if method == "exact":
        return exact_tracking_set(inst)
    if method == "greedy":
        return approx_logn_weighted(inst)
    if method == "bg":
        return approx_logopt_unweighted(inst, VCConfig(rng_seed=seed))
    if method == "eptas":
        if r is None and eps is None:
            r = 12
        return eptas_solve(inst, r=r, eps=Fraction(eps) if eps else None)
    raise ValueError(f"unknown method {method!r}")


def _cmd_verify(args) -> int:
    inst = _read_instance(args.file, args.declared_class)
    trackers = set(_parse_ids(args.trackers))
    report = _verify_set(inst, trackers)
    witness = None
    if report.witness is not None:
        w = report.witness
        if isinstance(w, tuple):
            witness = {
                "colliding_paths": [[v + 1 for v in p] for p in w]
            }
        else:
            witness = {
                "cycle": [v + 1 for v in w.cycle],
                "entry": w.entry + 1,
                "exit": w.exit + 1,
            }
    print(json.dumps({"valid": report.valid, "witness": witness}, sort_keys=True))
    return EXIT_OK if report.valid else EXIT_INVALID


def _cmd_reconstruct(args) -> int:
    inst = _read_instance(args.file, args.declared_class)
    trackers = set(_parse_ids(args.trackers))
    sequence = _parse_ids(args.sequence)
    path = reconstruct_path(inst, trackers, sequence)
    print(json.dumps({"path": [v + 1 for v in path]}))
    return EXIT_OK


def _cmd_rdiv(args) -> int:
    inst = _read_instance(args.file, args.declared_class)
    division = relaxed_r_division(inst.graph, args.r)
    payload = {
        "r": division.r,
        "B": division.B,
        "regions": [
            {
                "vertices": sorted(v + 1 for v in reg.vertices),
                "boundary": sorted(v + 1 for v in reg.boundary),
                "edges": sorted([u + 1, v + 1] for u, v in reg.edges),
            }
            for reg in division.regions
        ],
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


BENCH_HEADER = [
    "instance", "n", "m", "class", "method", "status", "size", "weight",
    "lower_bound", "opt", "ratio", "kernel_n", "kernel_m", "cycles", "B",
    "seconds",
]
_BENCH_ORACLE_MAX_N = 12


def _bench_corpus(spec: str, seed: int) -> list[tuple[str, Instance]]:
    """Corpus grammar: semicolon-separated '<kind>:k=v,...' entries.

    Kinds: er (n, p, count), grid (w, h, perturb), theta (arms, len),
    k4chain (blocks).
    """
    out: list[tuple[str, Instance]] = []
    for entry in filter(None, (e.strip() for e in spec.split(";"))):
        kind, _, body = entry.partition(":")
        params = {}
        for kv in filter(None, (p.strip() for p in body.split(","))):
            key, _, val = kv.partition("=")
            params[key] = val
        if kind == "er":
            n = int(params.get("n", 10))
            p = float(params.get("p", 0.4))
            count = int(params.get("count", 1))
            made = 0
            attempt = 0
            while made < count and attempt < 50 * count:
                inst = generators.random_reduced(n, p, seed + attempt)
                attempt += 1
                if inst is not None:
                    out.append((f"er-{n}-{made}", inst))
                    made += 1
        elif kind == "grid":
            w = int(params.get("w", 4))
            h = int(params.get("h", w))
            perturb = int(params.get("perturb", 0))
            out.append((f"grid-{w}x{h}-p{perturb}", generators.grid(w, h, perturb, seed)))
        elif kind == "theta":
            arms = int(params.get("arms", 3))
            length = int(params.get("len", 1))
            out.append((f"theta-{arms}x{length}", generators.theta(arms, length)))
        elif kind == "k4chain":
            blocks = int(params.get("blocks", 2))
            out.append((f"k4chain-{blocks}", generators.k4_chain(blocks)))
        else:
            raise ParseError(f"unknown corpus kind {kind!r}")
    return out


def _bench_row(name: str, inst: Instance, method: str, seed: int) -> dict:
    """One CSV row.  ``kernel_n``, ``kernel_m``, ``cycles`` (greedy, bg) and
    ``B`` (eptas) come from the solve's own stats; a skipped row leaves them
    blank."""
    row = dict.fromkeys(BENCH_HEADER, "")
    row.update(
        {"instance": name, "n": inst.graph.n, "m": inst.graph.m,
         "class": inst.declared_class, "method": method}
    )
    if method == "eptas" and inst.declared_class != "planar":
        row["status"] = "skipped:class"  # the separator scheme needs a planar declaration
        return row
    t0 = time.perf_counter()
    try:
        res = _solve(inst, method, seed=seed)
    except CapExceededError:
        row.update(status="skipped:cap", seconds=round(time.perf_counter() - t0, 4))
        return row
    row["seconds"] = round(time.perf_counter() - t0, 4)
    row["status"] = "ok" if res.valid else "invalid"
    row["size"] = len(res.trackers)
    row["weight"] = str(res.total_weight)
    row["lower_bound"] = res.lower_bound
    for key in ("kernel_n", "kernel_m", "cycles", "B"):
        row[key] = res.stats.get(key, "")
    if inst.graph.n <= _BENCH_ORACLE_MAX_N:
        try:
            exact = exact_tracking_set(inst)
            row["opt"] = str(exact.total_weight)
            if exact.total_weight > 0:
                row["ratio"] = f"{float(res.total_weight / exact.total_weight):.3f}"
            elif res.total_weight == 0:
                row["ratio"] = "1.000"
        except CapExceededError:
            pass
    return row


def _cmd_bench(args) -> int:
    corpus = _bench_corpus(args.corpus, args.seed)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    rows = [
        _bench_row(name, inst, method, args.seed) for name, inst in corpus for method in methods
    ]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=BENCH_HEADER)
        writer.writeheader()
        writer.writerows(rows)
    sys.stderr.write(f"wrote {len(rows)} rows to {args.out}\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trackpaths")
    parser.add_argument(
        "--declared-class",
        choices=("general", "planar"),
        default="general",
        help="advisory graph class driving constant choices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="apply reduction rules 1-3 to a fixpoint")
    p.add_argument("file")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("kernel", help="kernelize for the size-k decision problem")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("solve", help="compute a verified tracking set")
    p.add_argument("file")
    p.add_argument("--method", choices=("exact", "greedy", "bg", "eptas"), required=True)
    p.add_argument("--r", type=int, default=None, help="region size for eptas")
    p.add_argument("--eps", default=None, help="target ratio slack for eptas")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="verify a candidate tracking set")
    p.add_argument("file")
    p.add_argument("--trackers", required=True, help="comma-separated 1-indexed ids")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reconstruct", help="recover a path from its tracker sequence")
    p.add_argument("file")
    p.add_argument("--trackers", required=True)
    p.add_argument("--sequence", required=True, default="")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("rdiv", help="compute a relaxed r-division")
    p.add_argument("file")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_rdiv)

    p = sub.add_parser("bench", help="run a benchmark corpus to CSV")
    p.add_argument("--corpus", required=True, help="e.g. 'grid:w=4;theta:arms=3'")
    p.add_argument("--methods", required=True, help="comma list: exact,greedy,bg,eptas")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NoPathError, NotReducedError, NotConnectedError) as exc:
        # the input parsed; a step's precondition on the graph failed
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    except (ParseError, FileNotFoundError, ValueError) as exc:
        if isinstance(exc, ReconstructionError):
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_INVALID
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except CapExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
