"""One fresh interpreter: import, make inputs, warm up, then run a closed loop of ops.

run.py starts this once per set-up sample (--setup-only) and once for
the measured run. It prints one JSON object with raw measurements on its
last stdout line; run.py turns them into metrics. Set-up time runs from
the parent's clock reading just before launch (--launch-ns, on the
system-wide monotonic clock) to the start of the first timed op.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def run_loop(wl, seconds: float, tracer=None) -> dict:
    """Closed loop, one caller: start the next op when the last one returns."""
    latencies, kinds, failures = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    end = start
    i = 0
    while end < deadline:
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                wl.op(i)
            else:
                tracer.op_id = i
                frame = tracer.enter("bench.op", "bench")
                try:
                    wl.op(i, tracer)
                finally:
                    tracer.leave(frame)
        except Exception as exc:  # every failure is counted, none may stop the run
            failures.append(f"op {i} ({wl.kind(i)}): {type(exc).__name__}: {exc}")
        t1 = time.perf_counter_ns()
        end = time.perf_counter()
        latencies.append((t1 - t0) / 1e6)
        kinds.append(wl.kind(i))
        i += 1
    return {"latencies_ms": latencies, "kinds": kinds, "elapsed_s": end - start,
            "failed": len(failures), "failures": failures[:5]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launch-ns", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter_ns()
    import spherekern as sk
    import_ms = (time.perf_counter_ns() - t0) / 1e6

    import workloads
    workdir = Path(args.workdir)
    wl = workloads.WORKLOADS[args.workload](sk, args.seed, workdir)
    warmup_failures = []
    try:
        wl.op(-1)
    except Exception as exc:  # counted like a failed timed op
        warmup_failures.append(f"warm-up op ({wl.kind(-1)}): {type(exc).__name__}: {exc}")
    setup_s = (time.monotonic_ns() - args.launch_ns) / 1e9
    out = {"setup_s": setup_s, "import_ms": import_ms, "warmup_failures": warmup_failures}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    if args.trace:
        from tracer import Tracer
        out["untraced"] = run_loop(wl, args.seconds / 2)
        tracer = Tracer()
        tracer.install(sk)
        tracer.start()
        out["traced"] = run_loop(wl, args.seconds / 2, tracer)
        tracer.stop()
        tracer.uninstall()
    else:
        out["untraced"] = run_loop(wl, args.seconds)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0

    # Workloads that run no LP compute the gap here, after measuring.
    bounds = dict(getattr(wl, "bounds", {}))
    bounds.update(workloads.lp_bounds(sk, [x for x in workloads.GAP_INSTANCES if x not in bounds]))
    out["lp_gap_rel"] = workloads.lp_gap_rel(bounds)

    if args.trace:
        out["aggregates"] = tracer.aggregates()
        trace_file = workdir / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_file)
        out["trace_file"] = str(trace_file)
        out["spans_stored"] = len(tracer.spans)
        out["spans_dropped"] = tracer.dropped
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
