"""spherekern benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload bundle-verify --seed 1 --seconds 20 --trace 0

Starts SETUP_SAMPLES fresh worker interpreters one after another, each
of which imports the package, makes the seeded inputs and runs one
checked warm-up op; the last of them then runs the timed closed loop.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics of a traced loop (after an untraced one of the same length, for
the tracing overhead). The last stdout line is the result object; the
line before it is the full report with the machine record, which is
also written under bench/out/. See bench/README.md.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Fresh interpreters per run; setup_s is the median of their set-up times.
SETUP_SAMPLES = 3

#: Every run must end within this many seconds.
DEADLINE_S = 170


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """BLAS library, version and thread count as numpy sees them."""
    import ctypes
    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                info["threads"] = int(getattr(lib, sym)())
                return info
    return info


def machine_record(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


def _worker(args, workdir: Path, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--launch-ns", str(time.monotonic_ns())]
    # Own session, so a timeout also stops the CLI processes a worker starts.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _with_units(values: dict, units: dict) -> dict:
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def measure(args) -> tuple[dict, dict]:
    """(result line, full report) for one run."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        samples = [_worker(args, workdir, True, deadline) for _ in range(SETUP_SAMPLES - 1)]
        main = _worker(args, workdir, False, deadline)
    finally:
        for f in workdir.glob("*.json"):
            f.unlink()
    samples.append(main)

    failures = [f for s in samples for f in s["warmup_failures"]]
    attempted = len(samples)
    loops = [main["untraced"]] + ([main["traced"]] if args.trace else [])
    for loop in loops:
        failures += loop["failures"]
        attempted += len(loop["latencies_ms"])
    failed = sum(len(s["warmup_failures"]) for s in samples) + sum(loop["failed"] for loop in loops)

    e2e, e2e_details = metrics.end_to_end([s["setup_s"] for s in samples], main["untraced"],
                                          main["peak_rss_mb"], main["lp_gap_rel"], attempted, failed)
    named_e2e = _with_units(e2e, metrics.END_TO_END_UNITS)
    fail_ratio = {"value": e2e_details["fail_ratio"], "unit": "ratio"}
    report = {"machine": machine_record(args.workload, args.seed), "seconds": args.seconds,
              "trace": args.trace, "attempted": attempted, "failed": failed,
              "failures": failures[:10], "end_to_end": dict(named_e2e, fail_ratio=fail_ratio),
              "end_to_end_details": e2e_details}
    if args.trace:
        import_ms = statistics.median(s["import_ms"] for s in samples)
        layer, layer_details = metrics.per_layer(main["aggregates"], main["traced"],
                                                 main["untraced"], import_ms)
        report.update(per_layer=_with_units(layer, metrics.PER_LAYER_UNITS),
                      per_layer_details=layer_details,
                      trace_file=os.path.relpath(main["trace_file"], ROOT),
                      spans_stored=main["spans_stored"], spans_dropped=main["spans_dropped"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": report["per_layer"] if args.trace else named_e2e}
    (workdir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    return result, report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "spherekern" / "__init__.py").is_file():
        print(f"error: no spherekern sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, report = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
