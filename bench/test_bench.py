"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import spherekern  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from worker import run_loop  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_unit_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == metrics.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metrics.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_are_declared_and_seed_independent(trace, key):
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    for seed in (1, 2):
        result = _run("lp-certify", seed, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_changes_inputs(name, tmp_path):
    def inputs(seed):
        wl = workloads.WORKLOADS[name](spherekern, seed, tmp_path)
        return [np.asarray(getattr(wl, a), dtype=object) for a in ("seeds", "coeffs", "order")
                if hasattr(wl, a)]

    a, b, a2 = inputs(1), inputs(2), inputs(1)
    assert all(np.array_equal(x, y) for x, y in zip(a, a2))
    assert not all(np.array_equal(x, y) for x, y in zip(a, b))


def test_wrong_certificate_bound_is_a_failed_op(tmp_path, monkeypatch):
    real = spherekern.delsarte_lp

    def inflated(p, *args, **kwargs):
        cert = real(p, *args, **kwargs)
        cert.bound *= 1.0 + 1e-6
        return cert

    monkeypatch.setattr(spherekern, "delsarte_lp", inflated)
    loop = run_loop(workloads.LPCertify(spherekern, 1, tmp_path), 0.3)
    n = len(loop["latencies_ms"])
    assert n >= 1 and loop["failed"] == n
    assert "recomputed bound" in loop["failures"][0]
    e2e, details = metrics.end_to_end([1.0], loop, 50.0, 0.0, n, loop["failed"])
    assert details["fail_ratio"] == 1.0 and e2e["pass_ratio"] == 0.0


def test_wrong_expansion_is_a_failed_op(tmp_path, monkeypatch):
    real = spherekern.schoenberg_coeffs

    def perturbed(*args, **kwargs):
        e = real(*args, **kwargs)
        e.coefficients[0] += 1e-6
        return e

    monkeypatch.setattr(spherekern, "schoenberg_coeffs", perturbed)
    wl = workloads.SphereExpand(spherekern, 1, tmp_path)
    with pytest.raises(workloads.CheckFailed, match="round trip"):
        wl.op(0)
    wl.op(1)  # the other kinds do not call it


def test_tail_has_ten_samples_beyond():
    lat = list(range(100))
    value, pct = metrics.tail(lat)
    assert sum(x > value for x in lat) == 10 and pct == 90.0
    assert metrics.tail([3.0, 1.0]) == (3.0, 100.0)


def test_self_time_partitions_root_time():
    t = tracer_mod.Tracer()
    opened = [t.enter("bench.op", "bench"), t.enter("a.f", "a"), t.enter("b.g", "b")]
    sum(range(10000))
    for frame in reversed(opened[1:]):
        t.leave(frame)
    t.leave(t.enter("b.g", "b"))
    t.leave(opened[0])
    assert sum(t.self_ns.values()) == t.total_ns["bench.op"] == t.root_ns
    assert t.calls == {"b.g": 2, "a.f": 1, "bench.op": 1}
    parents = [s[3] for s in t.spans]
    assert parents == [-1, 0, 1, 0]


def test_traced_op_counts_and_restores(tmp_path):
    wl = workloads.LPCertify(spherekern, 1, tmp_path)
    original = spherekern.delsarte_lp
    t = tracer_mod.Tracer()
    t.install(spherekern)
    try:
        assert spherekern.delsarte_lp is not original
        t.start()
        loop = run_loop(wl, 1e-9, t)  # one op
        t.stop()
    finally:
        t.uninstall()
    assert spherekern.delsarte_lp is original
    assert loop["failed"] == 0
    assert t.calls["lp_bound.delsarte_lp"] == t.calls["lp_bound.certify"] == len(loop["latencies_ms"])
    assert t.calls["simplex.simplex_max"] >= 1 and t.counters["simplex.iterations"] >= 1
    assert t.absent == []


def test_missing_layer_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "spherekern._gone", None)
    monkeypatch.setattr(tracer_mod, "LAYERS", tracer_mod.LAYERS + ("_gone",))
    monkeypatch.setattr(tracer_mod, "PRIVATE_HOOKS", {"lp_bound": ("_no_such_function",)})
    t = tracer_mod.Tracer()
    t.install(spherekern)
    try:
        t.start()
        workloads.LPCertify(spherekern, 1, tmp_path).op(0)
        t.stop()
    finally:
        t.uninstall()
    assert "_gone" in t.absent and "lp_bound._no_such_function" in t.absent
    assert t.calls["lp_bound.delsarte_lp"] == 1


def test_no_sources_exits_nonzero_without_result(tmp_path):
    for rel in ["BENCHMARK.json"] + [str(p.relative_to(ROOT)) for p in BENCH.glob("*.py")]:
        dst = tmp_path / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_bytes((ROOT / rel).read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "lp-certify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
