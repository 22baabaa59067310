"""Seeded, closed-loop benchmark of the trackpaths solve pipeline.

    python3 perfbench/run.py --workload cover --seed 1 --seconds 25 --trace 0

One client, one operation at a time.  Each method of the workload gets a
fresh worker process (worker.py); this script sends each op of the workload's
schedule to its method's worker and waits for the answer, until the ops have
taken ``--seconds`` seconds.  Then every worker checks its outputs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the ops for
half the time untraced, replays exactly those ops in fresh traced workers,
and prints the per-layer metrics, with the tracing overhead measured on the
paired ops.  Metric names and units come from BENCHMARK.json.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from spans import OP, TRACED  # noqa: E402
from workloads import WORKLOADS, schedule  # noqa: E402

READY_TIMEOUT = 60.0
RUN_DEADLINE = 140.0  # seconds after start: no new op is sent after this
OP_TIMEOUT = 150.0
CHECK_DEADLINE = 170.0  # seconds after start by which every check must be in
# setup_s is the median of this many set-ups of every worker: the workers'
# own, then throwaway ones between rounds, spread over the op budget.  One
# set-up takes under half a second, so it falls in a single fast or slow
# spell of a shared host; spreading the samples over the run is what
# steadies the median.
SETUP_SAMPLES = 5


class WorkerError(RuntimeError):
    pass


class Worker:
    """A worker process and its line protocol."""

    def __init__(self, workload: str, method: str, seed: int, trace: bool, spans_path=None):
        self.method = method
        argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, method, str(seed), str(int(trace))]
        if spans_path:
            argv.append(spans_path)
        spawned = time.monotonic()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            ready = self.recv(READY_TIMEOUT)
        except WorkerError:
            self.close(kill=True)
            raise
        # process start to package imported, plus the first-round instances
        self.setup_s = ready["ready"] - spawned + statistics.median(ready["gen_s"])

    def recv(self, timeout: float) -> dict:
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not readable:
            raise WorkerError(f"{self.method} worker gave no answer in {timeout:.0f} s")
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerError(f"{self.method} worker exited with {self.proc.wait()}")
        return json.loads(line)

    def send(self, msg: dict) -> None:
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkerError(f"{self.method} worker is gone") from exc

    def request(self, msg: dict, timeout: float) -> dict:
        self.send(msg)
        return self.recv(timeout)

    def close(self, kill: bool = False) -> None:
        """Let the worker exit (or kill it) and wait until it has ended."""
        if kill:
            self.proc.kill()
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def probe_setup(workload, seed: int) -> float:
    """One more set-up of every method's worker, in throwaway processes."""
    total = 0.0
    for method in workload.methods:
        probe = Worker(workload.name, method, seed, False)
        probe.close()
        total += probe.setup_s
    return total


def run_phase(workload, seed: int, budget: float, trace: bool, started: float, replay=None,
              setup_samples: int = 1) -> dict:
    """Run whole rounds of the schedule until the ops have taken ``budget``
    seconds (or replay a given op list), then collect every worker's checks.
    Between rounds, set up the workers again until there are
    ``setup_samples`` set-ups, spread over the budget."""
    spans_paths = {}
    if trace:
        os.makedirs(OUT, exist_ok=True)
        spans_paths = {m: os.path.join(OUT, f"spans-{workload.name}-{seed}-{m}.tsv") for m in workload.methods}
    workers = {}
    try:
        for method in workload.methods:
            workers[method] = Worker(workload.name, method, seed, trace, spans_paths.get(method))
        setups = [sum(w.setup_s for w in workers.values())]
        ops, spent, rss = [], 0.0, {}
        rounds = [replay] if replay is not None else schedule(workload)
        for rnd, round_ops in enumerate(rounds):
            if (replay is None and spent >= budget) or time.monotonic() - started > RUN_DEADLINE:
                break
            for fi, draw, method in round_ops:
                op = {"family": fi, "draw": draw, "method": method, "round": rnd}
                if method not in workers:  # its worker died earlier in this phase
                    op.update(dt=0.0, err="worker gone")
                else:
                    try:
                        op.update(workers[method].request({"cmd": "op", "family": fi, "draw": draw}, OP_TIMEOUT))
                    except WorkerError as exc:
                        op.update(dt=0.0, err=str(exc))
                        workers.pop(method).close(kill=True)
                if rnd < workload.rounds and "rss_kb" in op:
                    rss[method] = op["rss_kb"]
                ops.append(op)
                spent += op["dt"]
            if len(setups) < setup_samples and spent >= budget * len(setups) / setup_samples:
                setups.append(probe_setup(workload, seed))
        while len(setups) < setup_samples:
            setups.append(probe_setup(workload, seed))
        # the workers check their outputs side by side; this is untimed
        for worker in workers.values():
            try:
                worker.send({"cmd": "check"})
            except WorkerError:
                pass  # recv below reports how the worker ended
        traces, check_s = {}, {}
        for method, worker in workers.items():
            mine = [op for op in ops if op["method"] == method]
            try:
                reply = worker.recv(max(1.0, CHECK_DEADLINE - (time.monotonic() - started)))
            except WorkerError as exc:
                for op in mine:
                    op["check"] = {"ok": False, "fallback": False, "why": str(exc)}
                continue
            for op, chk in zip(mine, reply["checks"]):
                op["check"] = chk
            check_s[method] = reply["check_s"]
            if "trace" in reply:
                traces[method] = reply["trace"]
    finally:
        for worker in workers.values():
            worker.close()
    judge(ops)
    return {"ops": ops, "spent": spent, "setup": setups, "rss_kb": rss, "traces": traces, "check_s": check_s}


def judge(ops: list) -> None:
    """Mark each op failed or not; where the exact optimum is known, a
    method that returns less than it is an error."""
    opt = {}
    for op in ops:
        op["failed"] = bool(op.get("err")) or op.get("valid") is False or not op.get("check", {}).get("ok")
        if op["method"] == "exact" and not op["failed"]:
            opt[(op["family"], op["draw"])] = Fraction(*op["weight"])
    for op in ops:
        best = opt.get((op["family"], op["draw"]))
        if best is None or op["method"] == "exact" or "weight" not in op:
            continue
        weight = Fraction(*op["weight"])
        if weight < best:
            op["failed"] = True
            op["check"] = {"ok": False, "fallback": False, "why": "weight below the exact optimum"}
        elif best > 0:
            op["over_opt"] = float(weight / best)


def tail(values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(workload, phase: dict) -> tuple[dict, list[str]]:
    ops = phase["ops"]
    dts = [op["dt"] for op in ops if op["round"] < workload.rounds]
    sized = [op["size"] / op["n"] for op in ops if "size" in op]
    tail_s, beyond = tail(dts, workload.tail_pct)
    values = {
        "setup_s": statistics.median(phase["setup"]),
        "ops_per_s": len(ops) / phase["spent"],
        "op_s_p50": statistics.median(dts),
        "op_s_tail": tail_s,
        "peak_rss_mb": max(phase["rss_kb"].values()) / 1024,
        "size_per_n": statistics.fmean(sized),
    }
    notes = [
        f"op_s_p50 and op_s_tail are over the {len(dts)} ops of the first {workload.rounds} rounds, "
        f"of {len(ops)} ops in all; op_s_tail is p{workload.tail_pct}, {beyond} ops beyond it",
        f"fail_share {sum(op['failed'] for op in ops) / len(ops):.4f} ratio",
        "setup_s is the median of set-ups (s): " + ", ".join(f"{x:.3f}" for x in phase["setup"]),
    ]
    return values, notes


def quality(ops: list) -> dict:
    """Median size/opt per method, on the draws where exact finished."""
    out = {}
    for method in ("greedy", "bg", "eptas"):
        ratios = [op["over_opt"] for op in ops if op["method"] == method and "over_opt" in op]
        out[f"{method}_size_over_opt"] = statistics.median(ratios) if ratios else 0.0
    return out


def per_layer(plain: dict, traced: dict) -> tuple[dict, list[str]]:
    from_spans = traced["traces"]
    n_ops = max(1, len(traced["ops"]))

    def total(section: str, key: str) -> float:
        return sum(t[section].get(key, 0) for t in from_spans.values())

    values = {}
    for dotted in TRACED:
        values[f"{dotted}.calls"] = total("calls", dotted) / n_ops
        values[f"{dotted}.self_s"] = total("self_s", dotted) / n_ops
    reducing = sum(t["ops_reducing"] for t in from_spans.values())
    values["reduction.reduce_all.per_op"] = total("calls", "reduction.reduce_all") / reducing if reducing else 0.0
    input_n = total("counts", "reduction.input_n")
    values["reduction.kernel_n_share"] = total("counts", "reduction.kernel_n") / input_n if input_n else 0.0
    values["cycles.cycles"] = total("counts", "cycles.cycles") / n_ops
    values["cycles.eecs"] = total("counts", "cycles.eecs") / n_ops
    values["disjoint.two_disjoint_paths.cap_raised"] = total("counts", "disjoint.two_disjoint_paths.cap_raised") / n_ops
    exact_trace = from_spans.get("exact")
    exact_ops = sum(op["method"] == "exact" for op in traced["ops"])
    values["exact.verify_calls_per_op"] = (
        sum(exact_trace["calls"].get(f"verify.{v}", 0) for v in ("verify_by_cycles", "verify_by_paths")) / exact_ops
        if exact_trace and exact_ops else 0.0
    )
    rdiv_calls = total("calls", "rdivision.relaxed_r_division")
    for key in ("B", "regions"):
        name = f"rdivision.relaxed_r_division.{key}"
        values[name] = total("counts", name) / rdiv_calls if rdiv_calls else 0.0
    candidates = total("counts", "cover.bg_candidates")
    values["cover.bg_hit_share"] = total("counts", "cover.bg_hitters") / candidates if candidates else 0.0
    paired = sum(op["dt"] for op in plain["ops"])
    values["trace.overhead_share"] = traced["spent"] / paired - 1 if paired else 0.0
    op_wall = sum(t["op_wall"] for t in from_spans.values())
    values["trace.unattributed_share"] = total("self_s", OP) / op_wall if op_wall else 0.0
    checks = [op["check"] for op in plain["ops"] + traced["ops"] if "check" in op]
    values["check.fallback_share"] = sum(c["fallback"] for c in checks) / len(checks) if checks else 0.0
    values.update(quality(plain["ops"]))
    notes = [f"traced {len(traced['ops'])} ops"]
    absent = sorted({name for t in from_spans.values() for name in t["absent"]})
    if absent:
        notes.append("absent (reported as 0): " + ", ".join(absent))
    return values, notes


def check_notes(workload, ops: list, phases: list) -> list[str]:
    """How many checks fell back to the cycle verifier, per family, and how
    long each worker's check phase took."""
    notes = []
    for fi, fam in enumerate(workload.families):
        checks = [op["check"] for op in ops if op["family"] == fi and "check" in op]
        if checks:
            fell = sum(c["fallback"] for c in checks)
            notes.append(f"check fallback {fam.name}: {fell}/{len(checks)} = {fell / len(checks):.3f}")
    for phase in phases:
        times = ", ".join(f"{m} {t:.1f}" for m, t in phase["check_s"].items())
        notes.append(f"check phase seconds: {times}")
    return notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "trackpaths", "__init__.py")):
        print(f"no trackpaths package under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workload = WORKLOADS[args.workload]

    if args.trace == 0:
        phase = run_phase(workload, args.seed, args.seconds, False, started, setup_samples=SETUP_SAMPLES)
        ops, phases = phase["ops"], [phase]
        values, notes = end_to_end(workload, phase)
        wanted = spec["end_to_end"]
    else:
        plain = run_phase(workload, args.seed, args.seconds / 2, False, started)
        replay = [(op["family"], op["draw"], op["method"]) for op in plain["ops"]]
        traced = run_phase(workload, args.seed, 0.0, True, started, replay=replay)
        ops, phases = plain["ops"] + traced["ops"], [plain, traced]
        values, notes = per_layer(plain, traced)
        wanted = spec["per_layer"]
    if not ops:
        print("no op ran", file=sys.stderr)
        return 1

    failed = [op for op in ops if op["failed"]]
    fallbacks = sum(op.get("check", {}).get("fallback", False) for op in ops)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {len(ops)} ops, "
          f"{len(failed)} failed, {fallbacks} checks fell back to the cycle verifier")
    for op in failed[:5]:
        print(f"  failed: {op['method']} family {workload.families[op['family']].name} "
              f"draw {op['draw']}: {op.get('err') or op.get('check', {}).get('why')}")
    for note in notes + check_notes(workload, ops, phases):
        print("  " + note)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']:<8} ({m['better']} is better)")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
