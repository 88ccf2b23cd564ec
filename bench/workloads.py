"""The benchmark's four workloads: seeded inputs, one op at a time, and per-op output checks.

Every op either returns normally or raises; a raise (including
CheckFailed, the output checks below) counts as a failed op. Inputs are
made in the constructor from the workload seed, which runs during set-up.
The package is passed in as `sk` and called only through its public
namespace at call time, so the tracer's wrappers see every call.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import numpy as np

THETA = math.pi / 3

#: Optimal kissing configurations at 60 degrees (Odlyzko & Sloane 1979).
LP_OPTIMA = {8: 240.0, 24: 196560.0}

#: LP instances whose bound is compared with LP_OPTIMA for lp_gap_rel.
GAP_INSTANCES = ((8, 12), (24, 12), (24, 30))

#: Op inputs made at set-up; op i uses entry i % POOL.
POOL = 2048


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _check(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _unit_rows(rng, count: int, n: int) -> np.ndarray:
    pts = rng.standard_normal((count, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _neg_dot(x, y):
    return -float(np.dot(x, y))


class BundleVerify:
    """Acceptance criterion 4's path: random feature-map bundle kernels, p.d. and invariance."""

    name = "bundle-verify"
    CONFIGS = ((4, 1, 4), (5, 2, 4), (6, 3, 2))

    def __init__(self, sk, seed: int, workdir: Path):
        self.sk = sk
        self.seeds = np.random.default_rng(seed).integers(0, 2 ** 31 - 1, size=(POOL, 3))

    def kind(self, i: int) -> str:
        n, r, d = self.CONFIGS[i % 3]
        return f"n{n}-r{r}-d{d}"

    def op(self, i: int, tracer=None) -> None:
        sk = self.sk
        n, r, d_max = self.CONFIGS[i % 3]
        s_exp, s_pd, s_inv = (int(v) for v in self.seeds[i % POOL])
        e = sk.random_feature_expansion(n, r, d_max=d_max, seed=s_exp)
        K = sk.synth_bundle_kernel(e, seed=s_exp)
        reps = sk.check_pd(K, trials=1, m=24, seed=s_pd)
        _check(sk.all_passed(reps), f"bundle kernel {self.kind(i)} failed check_pd: "
                                    f"min_eig {min(r.min_eig for r in reps):.3e}")
        inv = sk.check_invariance(K, trials=20, seed=s_inv)
        _check(inv.passed, f"bundle kernel {self.kind(i)} not invariant: {inv.max_residual:.3e}")


class SphereExpand:
    """Cheap sphere kernels: analysis and synthesis, sampled checks, transport, addition formula."""

    name = "sphere-expand"
    KINDS = ("roundtrip", "check-pd", "musin", "addition")
    DIMS = (3, 5, 8)
    D_MAX = 12
    MUSIN_D_MAX = 8
    RECONSTRUCTS = 20

    def __init__(self, sk, seed: int, workdir: Path):
        self.sk = sk
        rng = np.random.default_rng(seed)
        self.coeffs = rng.uniform(0.0, 1.0, size=(POOL, self.D_MAX + 1))
        self.musin_coeffs = rng.uniform(0.0, 1.0, size=(POOL, self.MUSIN_D_MAX + 1))
        self.musin_z = _unit_rows(rng, POOL, 4)
        self.musin_pts = _unit_rows(rng, POOL * 2 * self.RECONSTRUCTS, 4).reshape(
            POOL, 2 * self.RECONSTRUCTS, 4)
        self.seeds = rng.integers(0, 2 ** 31 - 1, size=(POOL, 2))

    def kind(self, i: int) -> str:
        return self.KINDS[i % 4]

    def op(self, i: int, tracer=None) -> None:
        sk = self.sk
        j = (i // 4) % POOL
        n = self.DIMS[j % 3]
        s1, s2 = (int(v) for v in self.seeds[j])
        kind = i % 4
        if kind == 0:
            c = self.coeffs[j]
            K = sk.synth_schoenberg(sk.ScalarExpansion(n, c))
            back = sk.schoenberg_coeffs(K, n, d_max=self.D_MAX, check=True, seed=s1)
            err = float(np.max(np.abs(back.coefficients - c)))
            _check(err < 1e-9, f"round trip n={n}: coefficient error {err:.3e}")
        elif kind == 1:
            K = sk.synth_schoenberg(sk.ScalarExpansion(n, self.coeffs[j]))
            reps = sk.check_pd(K, trials=1, m=40, seed=s1)
            _check(sk.all_passed(reps), f"p.d. kernel n={n} failed check_pd")
            neg = sk.check_pd(sk.Kernel(n, _neg_dot, name="neg-dot"), trials=1, m=40, seed=s2)
            _check(not neg[0].passed and neg[0].witness_points is not None,
                   f"neg-dot n={n} passed check_pd or gave no witness")
        elif kind == 2:
            K = sk.synth_schoenberg(sk.ScalarExpansion(4, self.musin_coeffs[j]))
            cfg = sk.SphereConfig(self.musin_z[j][:, None])
            tc = sk.musin_coeffs(K, cfg, d_max=self.MUSIN_D_MAX, seed=s1)
            pts = self.musin_pts[j]
            err = max(abs(tc.reconstruct(pts[2 * q], pts[2 * q + 1]) - K(pts[2 * q], pts[2 * q + 1]))
                      for q in range(self.RECONSTRUCTS))
            _check(err < 1e-8, f"musin reconstruction error {err:.3e}")
        else:
            rep = sk.verify_addition(6, 1, i % 7, samples=50, seed=s1)
            _check(rep.passed and rep.max_residual < 1e-8,
                   f"addition k={i % 7}: residual {rep.max_residual:.3e}")


class LPCertify:
    """Delsarte LP bounds and their certificates; carries the bound-quality metric."""

    name = "lp-certify"
    INSTANCES = ((3, 12), (4, 12), (8, 12), (16, 20), (24, 12), (24, 30))

    def __init__(self, sk, seed: int, workdir: Path):
        self.sk = sk
        order = np.random.default_rng(seed).permutation(len(self.INSTANCES))
        self.order = [self.INSTANCES[k] for k in order]
        self.bounds: dict[tuple, float] = {}

    def kind(self, i: int) -> str:
        n, d = self.order[i % 6]
        return f"n{n}-d{d}"

    def op(self, i: int, tracer=None) -> None:
        sk = self.sk
        n, d_max = self.order[i % 6]
        p = sk.LPBoundProblem(n=n, theta=THETA, d_max=d_max)
        cert = sk.delsarte_lp(p)
        rep = sk.certify(cert, p)
        _check(rep.passed, f"certificate n={n} d={d_max} failed: violation {rep.max_violation:.3e}")
        _check(abs(rep.bound - cert.bound) <= 1e-9 * abs(cert.bound),
               f"n={n} d={d_max}: recomputed bound {rep.bound!r} != certificate {cert.bound!r}")
        seen = self.bounds.setdefault((n, d_max), cert.bound)
        _check(seen == cert.bound, f"n={n} d={d_max}: bound changed between ops")


class CliCold:
    """One fresh `python -m spherekern` process per op: import cost inside the timed op."""

    name = "cli-cold"

    def __init__(self, sk, seed: int, workdir: Path):
        self.sk = sk
        self.workdir = workdir
        self.seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2 ** 31 - 1, size=2)]
        self.cert = workdir / "cert.json"
        cli = import_module(sk.__name__ + ".cli")
        code = cli.main(["lp-bound", "--n", "8", "--theta", "60deg", "--seed", str(self.seeds[0]),
                         "--no-timestamp", "--output", str(self.cert)])
        _check(code == 0, f"writing the certificate exited {code}")
        self.bound = json.loads(self.cert.read_text())["bound"]
        self.commands = (
            (["lp-bound", "--n", "8", "--theta", "60deg"], 0, None),
            (["certify", "--input", str(self.cert)], 0, True),
            (["expand", "--kernel", "dot", "--n", "3"], 0, None),
            (["verify-t1t2", "--n", "5", "--r", "2"], 0, True),
            (["check-pd", "--kernel", "dot", "--n", "3"], 0, True),
            (["check-pd", "--kernel", "neg-dot", "--n", "3"], 1, False),
        )
        self.digests: dict[tuple, str] = {}
        self.env = dict(os.environ)
        src = str(Path(sk.__file__).resolve().parents[1])
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def kind(self, i: int) -> str:
        return self.commands[i % 6][0][0] + ("-neg" if i % 6 == 5 else "")

    def argv(self, i: int) -> list[str]:
        args, _, _ = self.commands[i % 6]
        return args + ["--seed", str(self.seeds[(i // 6) % 2]), "--no-timestamp"]

    def op(self, i: int, tracer=None) -> None:
        argv = self.argv(i)
        _, want_code, want_passed = self.commands[i % 6]
        env = self.env
        if tracer is None:
            cmd = [sys.executable, "-m", "spherekern", *argv]
        else:
            trace_out = self.workdir / f"child-{os.getpid()}.json"
            env = dict(env, BENCH_TRACE_OUT=str(trace_out))
            cmd = [sys.executable, str(Path(__file__).with_name("cli_traced.py")), *argv]
        proc = subprocess.run(cmd, env=env, capture_output=True, timeout=60)
        if tracer is not None:
            doc = json.loads(trace_out.read_text())
            trace_out.unlink()
            tracer.merge(doc["aggregates"], doc["spans"], doc["names"], i)
        _check(proc.returncode == want_code,
               f"{' '.join(argv)} exited {proc.returncode}, expected {want_code}: "
               f"{proc.stderr.decode(errors='replace')[-300:]}")
        report = json.loads(proc.stdout)
        if want_passed is not None:
            _check(report.get("passed") is want_passed, f"{argv[0]}: passed={report.get('passed')!r}")
        if want_passed is False:
            _check(any("witness_points" in r for r in report["reports"]), "neg-dot gave no witness")
        if argv[0] == "lp-bound":
            _check(report["bound"] == self.bound,
                   f"lp-bound {report['bound']!r} != in-process {self.bound!r}")
        if argv[0] == "expand":
            # kappa(t) = t on S^2 is 1 * P_1^{1/2}(t): every other coefficient vanishes.
            c = np.asarray(report["expansion"]["coefficients"])
            want = np.zeros_like(c)
            want[1] = 1.0
            err = float(np.max(np.abs(c - want)))
            _check(err < 1e-9, f"expand dot: coefficient error {err:.3e}")
        digest = hashlib.sha256(proc.stdout).hexdigest()
        first = self.digests.setdefault(tuple(argv), digest)
        _check(first == digest, f"{' '.join(argv)}: output differs from an earlier run of the same argv")


WORKLOADS = {w.name: w for w in (BundleVerify, SphereExpand, LPCertify, CliCold)}


def lp_bounds(sk, instances) -> dict:
    """Delsarte bounds with default settings, for the gap of workloads that run no LP."""
    return {(n, d): sk.delsarte_lp(sk.LPBoundProblem(n=n, theta=THETA, d_max=d)).bound
            for n, d in instances}


def lp_gap_rel(bounds: dict) -> float:
    """Largest (bound - optimum) / optimum over GAP_INSTANCES."""
    return max((bounds[(n, d)] - LP_OPTIMA[n]) / LP_OPTIMA[n] for n, d in GAP_INSTANCES)
