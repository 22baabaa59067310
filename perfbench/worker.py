"""One benchmark worker: a fresh process for one (workload, method) pair.

    python3 perfbench/worker.py <workload> <method> <seed> <trace 0|1> [spans file]

run.py starts it and drives it over stdin/stdout, one JSON object per line:
the worker answers ``ready`` once the package is imported and its first
round of instances is generated, then one reply per ``op`` request, then a
final reply to ``check`` with the output checks and, when traced, the
per-layer summary.  A worker never sees the same input twice, so
the package's module-global caches cannot carry answers from one op to
another op on the same instance.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    workload_name, method, seed, trace = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
    spans_path = sys.argv[5] if len(sys.argv) > 5 else None
    sys.path.insert(0, SRC)
    import trackpaths

    if not os.path.abspath(trackpaths.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported trackpaths from {trackpaths.__file__}, not {SRC}")
    import instances
    from workloads import WORKLOADS, first_round

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    import_done = time.monotonic()

    workload = WORKLOADS[workload_name]
    gen_s = []
    for _ in range(3):  # set-up is repeated so run.py can take its median
        t0 = time.perf_counter()
        cases = {
            key: instances.make_case(workload.families[key[0]], seed, key[1])
            for key in first_round(workload, method)
        }
        gen_s.append(time.perf_counter() - t0)
    send({"ready": import_done, "gen_s": gen_s})

    done = []  # (case, result or None) per op, in order
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["cmd"] == "op":
            key = (msg["family"], msg["draw"])
            case = cases.pop(key, None)
            if case is None:  # later rounds are generated on demand, untimed
                case = instances.make_case(workload.families[key[0]], seed, key[1])

            def call():
                return instances.run_op(method, case, seed)

            result, err = None, None
            t0 = time.process_time()  # CPU time: the op runs on this one thread
            try:
                if tracer is None:
                    result = call()
                else:
                    result = tracer.run_op(len(done), case.instance, call)
            except Exception as exc:  # a failed op is counted, not fatal
                err = f"{type(exc).__name__}: {exc}"
            dt = time.process_time() - t0
            done.append((case, result))
            reply = {"dt": dt, "err": err, "n": case.instance.graph.n,
                     "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
            if result is not None and method != "kernelize":
                w = result.total_weight
                reply.update(valid=result.valid, size=len(result.trackers),
                             weight=[w.numerator, w.denominator])
            send(reply)
        elif msg["cmd"] == "check":
            # the check must not read answers the solver left in the caches
            instances.clear_caches()
            t0 = time.perf_counter()
            checks = []
            for case, result in done:
                if result is None:
                    checks.append({"ok": False, "fallback": False, "why": "op raised"})
                    continue
                try:
                    ok, fallback, why = instances.check(method, case, result)
                except Exception as exc:
                    ok, fallback, why = False, False, f"check raised {type(exc).__name__}: {exc}"
                checks.append({"ok": ok, "fallback": fallback, "why": why})
            reply = {"checks": checks, "check_s": time.perf_counter() - t0}
            if tracer is not None:
                reply["trace"] = tracer.summary()
                if spans_path:
                    tracer.dump(spans_path)
            send(reply)
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
